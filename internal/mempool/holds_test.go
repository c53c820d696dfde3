package mempool

import (
	"errors"
	"testing"
)

// Cross-shard claim holds: a 2PC coordinator claims spend keys on
// behalf of a transaction that never enters the pool, and the
// admission screen treats the claims exactly like a pending rival's.
func TestHoldBlocksAdmission(t *testing.T) {
	p := New(Config{})
	if err := p.Hold([]string{"k:1", "k:2"}, "xs-1"); err != nil {
		t.Fatalf("hold on free keys: %v", err)
	}

	// A rival spending a held key is skipped at admission (a claim
	// clash is transient: the hold may release, so not a hard reject).
	res := admit(t, p, spender("a", "k:1"))
	var claimed *ErrSpendClaimed
	if err := res.Skipped["a"]; !errors.As(err, &claimed) {
		t.Fatalf("rival over a held key: %+v", res)
	}
	if claimed.ClaimedBy != "xs-1" {
		t.Fatalf("claimant = %q, want xs-1", claimed.ClaimedBy)
	}

	// Release frees the keys; the same rival now admits.
	p.Release([]string{"k:1", "k:2"}, "xs-1")
	if res := admit(t, p, spender("a", "k:1")); len(res.Admitted) != 1 {
		t.Fatalf("post-release admit: %+v", res)
	}
}

func TestHoldAllOrNothing(t *testing.T) {
	p := New(Config{})
	// A pooled transaction claims k:2 via its spends.
	admit(t, p, spender("a", "k:2"))

	err := p.Hold([]string{"k:1", "k:2", "k:3"}, "xs-1")
	var claimed *ErrSpendClaimed
	if !errors.As(err, &claimed) {
		t.Fatalf("hold over a pooled claim: %v", err)
	}
	if claimed.Key != "k:2" || claimed.ClaimedBy != "a" {
		t.Fatalf("clash = %+v", claimed)
	}
	// Nothing partial was taken: k:1 and k:3 are still free.
	for _, key := range []string{"k:1", "k:3"} {
		if owner, ok := p.claimant(key); ok {
			t.Fatalf("failed hold leaked a claim on %s (owner %s)", key, owner)
		}
	}
}

func TestHoldIdempotentAndOwnerScopedRelease(t *testing.T) {
	p := New(Config{})
	if err := p.Hold([]string{"k:1"}, "xs-1"); err != nil {
		t.Fatal(err)
	}
	// Re-holding the same key for the same owner is a no-op.
	if err := p.Hold([]string{"k:1"}, "xs-1"); err != nil {
		t.Fatalf("idempotent re-hold: %v", err)
	}
	// A different owner is refused.
	if err := p.Hold([]string{"k:1"}, "xs-2"); err == nil {
		t.Fatal("rival hold succeeded over an existing hold")
	}
	// Release under the wrong owner leaves the claim intact.
	p.Release([]string{"k:1"}, "xs-2")
	if owner, ok := p.claimant("k:1"); !ok || owner != "xs-1" {
		t.Fatalf("foreign release dropped the claim (owner=%q ok=%v)", owner, ok)
	}
	p.Release([]string{"k:1"}, "xs-1")
	if _, ok := p.claimant("k:1"); ok {
		t.Fatal("owner release left the claim")
	}
}

// The commit sweep evicts pooled rivals of a committed cross-shard
// transaction but does not release the transaction's own holds — the
// shard layer pairs every Hold with an explicit Release.
func TestRemoveCommittedKeepsOwnHolds(t *testing.T) {
	p := New(Config{})
	if err := p.Hold([]string{"k:1"}, "xs-1"); err != nil {
		t.Fatal(err)
	}
	// The cross-shard transaction commits without ever being pooled.
	p.RemoveCommitted([]Tx{spender("xs-1", "k:1")})
	if owner, ok := p.claimant("k:1"); !ok || owner != "xs-1" {
		t.Fatalf("commit sweep released the committed tx's own hold (owner=%q ok=%v)", owner, ok)
	}
	p.Release([]string{"k:1"}, "xs-1")
	if _, ok := p.claimant("k:1"); ok {
		t.Fatal("release failed after commit sweep")
	}
}
