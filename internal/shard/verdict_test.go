package shard

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"smartchaindb/internal/keys"
	"smartchaindb/internal/txn"
)

// condOf names the condition of a condition-set refusal: a
// ValidationError's Cond, or the name txtype.Type.Validate wraps any
// other error of a condition in ("condition NAME (doc): ..."). It is
// "" for a refusal no condition made.
func condOf(err error) string {
	var invalid *txn.ValidationError
	if errors.As(err, &invalid) {
		return invalid.Cond
	}
	if err == nil {
		return ""
	}
	msg, ok := strings.CutPrefix(err.Error(), "condition ")
	if !ok {
		return ""
	}
	name, _, _ := strings.Cut(msg, " ")
	return name
}

// leafType is the dynamic type of the innermost error err wraps.
func leafType(err error) string {
	for {
		inner := errors.Unwrap(err)
		if inner == nil {
			return fmt.Sprintf("%T", err)
		}
		err = inner
	}
}

// verdictSeed is the committed state every verdict run starts from,
// all of it on shard 0.
type verdictSeed struct {
	alice, bob, carol, dave, mallory *keys.KeyPair

	a     *txn.Transaction // alice's 10 shares
	b     *txn.Transaction // alice's 7 shares of a second asset
	j     *txn.Transaction // the asset of joint
	joint *txn.Transaction // j's 10 shares held by alice and bob together
	g     *txn.Transaction // carol's 10 shares, already spent by gone
	gone  *txn.Transaction
}

func newVerdictSeed(t *testing.T) *verdictSeed {
	s := &verdictSeed{alice: kp(1), bob: kp(2), carol: kp(3), dave: kp(4), mallory: kp(66)}
	s.a = mkCreate(t, s.alice, 10, 0)
	s.b = mkCreate(t, s.alice, 7, 0)
	s.j = mkCreate(t, s.bob, 10, 0)
	s.joint = mkTransfer(t, s.j.ID, txn.OutputRef{TxID: s.j.ID}, s.bob, []*txn.Output{
		{PublicKeys: []string{s.alice.PublicBase58(), s.bob.PublicBase58()}, Amount: 10},
	}, -1)
	s.g = mkCreate(t, s.carol, 10, 0)
	s.gone = mkTransfer(t, s.g.ID, txn.OutputRef{TxID: s.g.ID}, s.carol, []*txn.Output{out(s.bob, 10)}, -1)
	return s
}

// signed builds a transfer of asset over spends, signed by signers and
// hinted as mkTransfer's hint says.
func signed(t *testing.T, asset string, spends []txn.Spend, outs []*txn.Output, hint int, signers ...*keys.KeyPair) *txn.Transaction {
	t.Helper()
	var meta map[string]any
	if hint >= 0 {
		meta = map[string]any{MetaShardHint: float64(hint)}
	}
	tr := txn.NewTransfer(asset, spends, outs, meta)
	if err := txn.Sign(tr, signers...); err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestCrossShardVerdictMatchesLocal is the verdict differential
// between the two ways a transfer commits: each variant is submitted
// once homed with its input (a local block on shard 0) and once hinted
// to shard 1 (the two-phase commit). Both must commit, or both must be
// refused with the same error type and the same condition: validity is
// TRANSFER's condition set wherever the transfer lands.
func TestCrossShardVerdictMatchesLocal(t *testing.T) {
	s := newVerdictSeed(t)
	refA := txn.OutputRef{TxID: s.a.ID}
	for _, v := range []struct {
		name    string
		commits bool
		build   func(hint int) *txn.Transaction
	}{
		{"valid", true, func(h int) *txn.Transaction {
			return mkTransfer(t, s.a.ID, refA, s.alice, []*txn.Output{out(s.bob, 10)}, h)
		}},
		{"inflated", false, func(h int) *txn.Transaction {
			return mkTransfer(t, s.a.ID, refA, s.alice, []*txn.Output{out(s.bob, 11)}, h)
		}},
		{"deflated", false, func(h int) *txn.Transaction {
			return mkTransfer(t, s.a.ID, refA, s.alice, []*txn.Output{out(s.bob, 9)}, h)
		}},
		{"wrong-signer", false, func(h int) *txn.Transaction {
			return mkTransfer(t, s.a.ID, refA, s.mallory, []*txn.Output{out(s.bob, 10)}, h)
		}},
		{"co-signer", true, func(h int) *txn.Transaction {
			return signed(t, s.a.ID, []txn.Spend{{Ref: refA, Owners: []string{s.alice.PublicBase58(), s.carol.PublicBase58()}}},
				[]*txn.Output{out(s.bob, 10)}, h, s.alice, s.carol)
		}},
		{"joint-owners-reversed", true, func(h int) *txn.Transaction {
			return signed(t, s.j.ID, []txn.Spend{{Ref: txn.OutputRef{TxID: s.joint.ID}, Owners: []string{s.bob.PublicBase58(), s.alice.PublicBase58()}}},
				[]*txn.Output{out(s.carol, 10)}, h, s.bob, s.alice)
		}},
		{"wrong-asset", false, func(h int) *txn.Transaction {
			return signed(t, s.b.ID, []txn.Spend{{Ref: refA, Owners: []string{s.alice.PublicBase58()}}},
				[]*txn.Output{out(s.bob, 10)}, h, s.alice)
		}},
		{"already-spent", false, func(h int) *txn.Transaction {
			return mkTransfer(t, s.g.ID, txn.OutputRef{TxID: s.g.ID}, s.carol, []*txn.Output{out(s.dave, 10)}, h)
		}},
		{"unknown-input", false, func(h int) *txn.Transaction {
			return mkTransfer(t, s.a.ID, txn.OutputRef{TxID: strings.Repeat("ab", 32)}, s.alice, []*txn.Output{out(s.bob, 10)}, h)
		}},
		{"corrupt-signature", false, func(h int) *txn.Transaction {
			tr := mkTransfer(t, s.a.ID, refA, s.alice, []*txn.Output{out(s.bob, 10)}, h).Clone()
			sig, mid := []byte(tr.Inputs[0].Fulfillment), len(tr.Inputs[0].Fulfillment)/2
			if sig[mid] == '2' {
				sig[mid] = '3'
			} else {
				sig[mid] = '2'
			}
			tr.Inputs[0].Fulfillment = string(sig)
			return tr
		}},
	} {
		t.Run(v.name, func(t *testing.T) {
			local := submitVerdict(t, s, v.build(-1), false)
			cross := submitVerdict(t, s, v.build(1), true)
			t.Logf("same-shard: %v\ncross-shard: %v", local, cross)
			if (local == nil) != v.commits {
				t.Fatalf("same-shard verdict %v, want committed=%v", local, v.commits)
			}
			if (local == nil) != (cross == nil) {
				t.Fatalf("verdicts differ: same-shard %v, cross-shard %v", local, cross)
			}
			if local == nil {
				return
			}
			if lt, ct := leafType(local), leafType(cross); lt != ct {
				t.Fatalf("refused as %s same-shard, %s cross-shard:\n same-shard  %v\n cross-shard %v", lt, ct, local, cross)
			}
			if lc, cc := condOf(local), condOf(cross); lc != cc {
				t.Fatalf("refused by condition %q same-shard, %q cross-shard:\n same-shard  %v\n cross-shard %v", lc, cc, local, cross)
			}
		})
	}
}

// submitVerdict opens a fresh two-shard cluster holding seed, submits
// tr (which must route across shards iff cross) and reports its
// verdict: nil once it committed on its home shard.
func submitVerdict(t *testing.T, seed *verdictSeed, tr *txn.Transaction, cross bool) error {
	t.Helper()
	c := newTestCluster(t, Config{Shards: 2})
	submitDrain(t, c, seed.a, seed.b, seed.j, seed.g)
	submitDrain(t, c, seed.joint, seed.gone)
	r, err := c.RouteOf(tr)
	if err == nil && r.Cross() != cross {
		t.Fatalf("%s routed %+v, want cross=%v", tr.ID[:8], r, cross)
	}
	if err := c.Submit(tr); err != nil {
		return err
	}
	c.DrainLocal(64)
	if !c.Shard(r.Home).Node.State().IsCommitted(tr.ID) {
		return fmt.Errorf("%s admitted but not committed", tr.ID[:8])
	}
	return nil
}
