package mempool

import (
	"errors"
	"fmt"
	"testing"

	"smartchaindb/internal/txn"
)

// fakeTx is a string-hashed transaction with a synthetic footprint.
type fakeTx struct {
	hash string
	fp   txn.Footprint
}

func (t *fakeTx) Hash() string { return t.hash }

// Footprint declares the synthetic footprint, the way *txn.Transaction
// declares its own: ForTransaction reads it.
func (t *fakeTx) Footprint() txn.Footprint { return t.fp }

// spender builds a transaction spending the given keys (conflict
// grouping sees them as writes too, as real spends are).
func spender(hash string, keys ...string) *fakeTx {
	return &fakeTx{hash: hash, fp: txn.Footprint{Spends: keys, Writes: append([]string{"tx:" + hash}, keys...)}}
}

// indep builds a fully independent transaction.
func indep(hash string) *fakeTx {
	return &fakeTx{hash: hash, fp: txn.Footprint{Writes: []string{"tx:" + hash}}}
}

func admit(t *testing.T, p *Pool, txs ...Tx) AdmitResult {
	t.Helper()
	return p.AdmitBatch(txs)
}

// claimant returns the pending transaction or hold owner claiming a
// spend key, if any.
func (p *Pool) claimant(key string) (string, bool) {
	_, owner, ok := p.claimed([]string{key}, nil)
	return owner, ok
}

func TestAdmitAndContains(t *testing.T) {
	p := New(Config{})
	res := admit(t, p, indep("a"), indep("b"))
	if len(res.Admitted) != 2 || len(res.Skipped) != 0 || len(res.Rejected) != 0 {
		t.Fatalf("admit = %+v", res)
	}
	if !p.Contains("a") || !p.Contains("b") || p.Contains("c") {
		t.Error("Contains wrong")
	}
	if p.live != 2 || p.PendingCount() != 2 {
		t.Errorf("Len=%d Pending=%d", p.live, p.PendingCount())
	}
}

func TestDuplicateIDRejectedAtAdmission(t *testing.T) {
	p := New(Config{})
	a := indep("a")
	admit(t, p, a)
	// Duplicate against the pool.
	res := admit(t, p, a)
	var dup *ErrDuplicate
	if err := res.Skipped["a"]; !errors.As(err, &dup) {
		t.Fatalf("pool duplicate not skipped: %v", res)
	}
	// Duplicate within one batch.
	b := indep("b")
	res = admit(t, p, b, b)
	if len(res.Admitted) != 1 {
		t.Fatalf("batch duplicate admitted twice: %+v", res)
	}
	if err := res.Skipped["b"]; !errors.As(err, &dup) {
		t.Fatalf("batch duplicate not skipped: %v", res)
	}
	if p.live != 2 {
		t.Errorf("Len = %d, want 2", p.live)
	}
}

func TestSpendClaimRejectedAndReleasedOnRemove(t *testing.T) {
	p := New(Config{})
	a := spender("a", "utxo:x")
	b := spender("b", "utxo:x")
	admit(t, p, a)
	res := admit(t, p, b)
	var clash *ErrSpendClaimed
	if err := res.Skipped["b"]; !errors.As(err, &clash) || clash.ClaimedBy != "a" {
		t.Fatalf("rival spend not skipped: %+v", res)
	}
	// Evicting the claimant releases the key for a later admission.
	p.Remove([]Tx{a})
	if res := admit(t, p, b); len(res.Admitted) != 1 {
		t.Fatalf("spend key not released after Remove: %+v", res)
	}
}

func TestIntraBatchSpendConflict(t *testing.T) {
	p := New(Config{})
	res := admit(t, p, spender("a", "utxo:x"), spender("b", "utxo:x"))
	if len(res.Admitted) != 1 || res.Admitted[0].Hash() != "a" {
		t.Fatalf("first claimant should win in batch order: %+v", res)
	}
	if _, ok := res.Skipped["b"]; !ok {
		t.Fatal("second claimant not skipped")
	}
}

func TestCheckRejectionsArePerTransaction(t *testing.T) {
	bad := errors.New("semantic failure")
	p := New(Config{
		Check: func(txs []Tx) map[string]error {
			errs := make(map[string]error)
			for _, tx := range txs {
				if tx.Hash() == "evil" {
					errs[tx.Hash()] = bad
				}
			}
			return errs
		},
	})
	res := admit(t, p, indep("good"), indep("evil"), indep("fine"))
	if len(res.Admitted) != 2 {
		t.Fatalf("admitted = %d, want 2", len(res.Admitted))
	}
	if !errors.Is(res.Rejected["evil"], bad) {
		t.Fatalf("rejection missing: %+v", res.Rejected)
	}
	if p.Contains("evil") {
		t.Error("rejected transaction entered the pool")
	}
}

func TestRivalOfRejectedClaimantRescuedInSameBatch(t *testing.T) {
	bad := errors.New("bad signature")
	p := New(Config{
		Check: func(txs []Tx) map[string]error {
			errs := make(map[string]error)
			for _, tx := range txs {
				if tx.Hash() == "a" {
					errs["a"] = bad
				}
			}
			return errs
		},
	})
	// a claims utxo:x first but fails semantically; b — screened out by
	// a's claim — must be admitted in the same batch, not bounced to a
	// client retry. c chains behind b's claim through a, transitively.
	a := spender("a", "utxo:x")
	b := spender("b", "utxo:x")
	res := admit(t, p, a, b)
	if !errors.Is(res.Rejected["a"], bad) {
		t.Fatalf("claimant not rejected: %+v", res)
	}
	if len(res.Admitted) != 1 || res.Admitted[0].Hash() != "b" {
		t.Fatalf("rival not rescued: %+v", res)
	}
	if !p.Contains("b") || p.Contains("a") {
		t.Error("pool contents wrong after rescue")
	}
	// Two rivals blocked by the same rejected claimant: the rescue
	// round re-arbitrates between them, first in batch order wins.
	p2 := New(Config{
		Check: func(txs []Tx) map[string]error {
			for _, tx := range txs {
				if tx.Hash() == "a" {
					return map[string]error{"a": bad}
				}
			}
			return nil
		},
	})
	res = admit(t, p2, spender("a", "utxo:y"), spender("b", "utxo:y"), spender("c", "utxo:y"))
	if len(res.Admitted) != 1 || res.Admitted[0].Hash() != "b" {
		t.Fatalf("rescue arbitration wrong: %+v", res)
	}
	if _, ok := res.Skipped["c"]; !ok {
		t.Fatalf("losing rescue not re-skipped: %+v", res)
	}
}

func TestCheckSkippedForScreenedTransactions(t *testing.T) {
	checked := make(map[string]int)
	p := New(Config{
		Check: func(txs []Tx) map[string]error {
			for _, tx := range txs {
				checked[tx.Hash()]++
			}
			return nil
		},
	})
	a := spender("a", "utxo:x")
	admit(t, p, a)
	// Resubmitted duplicate and a pending rival: neither may reach the
	// semantic validator — that skip is the admission fast path.
	admit(t, p, a, spender("b", "utxo:x"))
	if checked["a"] != 1 {
		t.Errorf("duplicate re-validated: %d", checked["a"])
	}
	if checked["b"] != 0 {
		t.Errorf("screened rival validated: %d", checked["b"])
	}
}

func TestRemoveCommittedSweepsTransactionAndRivals(t *testing.T) {
	p := New(Config{})
	a := spender("a", "utxo:x")
	c := indep("c")
	admit(t, p, a, c)
	// A block commits a foreign transaction (never pooled here) that
	// consumed utxo:x — the pending claimant can never commit now.
	foreign := spender("f", "utxo:x")
	p.RemoveCommitted([]Tx{foreign})
	if p.Contains("a") {
		t.Error("stale rival survived the commit sweep")
	}
	if !p.Contains("c") {
		t.Error("unrelated transaction swept")
	}
	// Committing a pooled transaction removes it and frees its claims.
	p.RemoveCommitted([]Tx{c})
	if p.Contains("c") || p.live != 0 {
		t.Error("committed transaction survived")
	}
}

func TestReserveExcludesFromPackingUntilCommit(t *testing.T) {
	p := New(Config{})
	a, b := indep("a"), indep("b")
	admit(t, p, a, b)
	p.Reserve([]Tx{a})
	if p.PendingCount() != 1 {
		t.Fatalf("PendingCount = %d, want 1", p.PendingCount())
	}
	if got := p.Pack(10, 1); len(got) != 1 || got[0].Hash() != "b" {
		t.Fatalf("Pack over reserved = %v", got)
	}
	if p.live != 2 {
		t.Errorf("reserved tx left the pool")
	}
	p.RemoveCommitted([]Tx{a})
	if p.live != 1 {
		t.Errorf("commit did not clear reserved entry")
	}
}

func TestArrivalOrderSurvivesChurn(t *testing.T) {
	p := New(Config{})
	var want []string
	for i := 0; i < 100; i++ {
		h := fmt.Sprintf("t%03d", i)
		admit(t, p, indep(h))
		want = append(want, h)
	}
	// Remove a scattered half to force tombstone compaction.
	var removed []Tx
	var kept []string
	for i, h := range want {
		if i%2 == 0 {
			removed = append(removed, indep(h))
		} else {
			kept = append(kept, h)
		}
	}
	p.RemoveCommitted(removed)
	got := p.Pending()
	if len(got) != len(kept) {
		t.Fatalf("pending = %d, want %d", len(got), len(kept))
	}
	for i, tx := range got {
		if tx.Hash() != kept[i] {
			t.Fatalf("order broken at %d: %s != %s", i, tx.Hash(), kept[i])
		}
	}
}

func TestAdmitDuplicateSkipped(t *testing.T) {
	p := New(Config{})
	if res := p.AdmitBatch([]Tx{indep("a")}); len(res.Admitted) != 1 {
		t.Fatalf("first admission: %+v", res)
	}
	if res := p.AdmitBatch([]Tx{indep("a")}); len(res.Admitted) != 0 || res.Skipped["a"] == nil {
		t.Fatalf("duplicate admission: %+v", res)
	}
}
