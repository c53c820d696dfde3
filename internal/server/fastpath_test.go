package server

import (
	"testing"

	"smartchaindb/internal/consensus"
	"smartchaindb/internal/keys"
	"smartchaindb/internal/obs"
	"smartchaindb/internal/txn"
)

// fastPathBatch builds an admission batch mixing valid transactions
// with every rejection class the signature stage produces: tampered
// payload, forged signature, and missing fulfillment. Each bad one is
// an edited clone of a signed transaction.
func fastPathBatch(t *testing.T) []consensus.Tx {
	t.Helper()
	alice := keys.DeterministicKeyPair(61)
	mallory := keys.DeterministicKeyPair(62)

	good1 := signedCreate(t, alice, "cnc")
	good2 := signedCreate(t, alice, "mill")

	tampered := signedCreate(t, alice, "lathe").Clone()
	tampered.Asset.Data["seq"] = -1

	forged := signedCreate(t, alice, "drill").Clone()
	forged.Inputs[0].Fulfillment = mallory.Sign(forged.SigningPayload())

	unsigned := signedCreate(t, alice, "press").Clone()
	unsigned.Inputs[0].Fulfillment = ""

	return []consensus.Tx{good1, good2, tampered, forged, unsigned}
}

// coldClones returns a cold clone of each transaction, so no run sees
// the verdicts another memoized.
func coldClones(batch []consensus.Tx) []consensus.Tx {
	out := make([]consensus.Tx, len(batch))
	for i, tx := range batch {
		out[i] = tx.(*txn.Transaction).Clone()
	}
	return out
}

// TestAdmissionFastPathParity pins the fast path's contract: for the
// same batch, CheckTxBatch — the batched signature stage, then the
// condition sets over the conflict-group scheduler — produces exactly
// the verdict set (same IDs, same error strings) ValidateTx gives each
// transaction on its own, on one admission worker and on four. Every
// run starts from cold clones.
func TestAdmissionFastPathParity(t *testing.T) {
	batch := fastPathBatch(t)
	for _, workers := range []int{0, 4} {
		reg := obs.New()
		n := NewNode(Config{ReservedSeed: 71, AdmissionWorkers: workers, Obs: reg})
		want := make(map[string]string)
		for _, tx := range coldClones(batch) {
			if err := n.ValidateTx(tx.(*txn.Transaction)); err != nil {
				want[tx.Hash()] = err.Error()
			}
		}
		if len(want) != 3 {
			t.Fatalf("%d workers: ValidateTx rejected %d of 5, want 3: %v", workers, len(want), want)
		}
		got := n.CheckTxBatch(coldClones(batch))
		if len(got) != len(want) {
			t.Fatalf("%d workers: verdict sets differ: batch=%d per-tx=%d\nbatch:  %v\nper-tx: %v", workers, len(got), len(want), got, want)
		}
		for id, w := range want {
			g, ok := got[id]
			if !ok {
				t.Fatalf("%d workers: the batch admitted tx %.8s, ValidateTx rejected it: %s", workers, id, w)
			}
			if g.Error() != w {
				t.Fatalf("%d workers: tx %.8s: batch=%q per-tx=%q", workers, id, g, w)
			}
		}
		if reg.Counter("server.admit.sig_tasks").Value() == 0 {
			t.Errorf("%d workers: the fast path never ran the batch verifier", workers)
		}
	}
}

// TestAdmissionFastPathMutatedAfterCache: an edited copy of a
// transaction whose encodings and verdict are memoized must still be
// rejected — a clone never inherits the memo.
func TestAdmissionFastPathMutatedAfterCache(t *testing.T) {
	n := NewNode(Config{ReservedSeed: 72})
	alice := keys.DeterministicKeyPair(63)
	tx := signedCreate(t, alice, "cnc")
	// Warm the memo through a passing batch.
	if errs := n.CheckTxBatch([]consensus.Tx{tx}); len(errs) != 0 {
		t.Fatalf("pristine tx rejected: %v", errs)
	}
	// Edit a copy and submit it: the original's verdict must not leak
	// to it.
	tampered := tx.Clone()
	tampered.Asset.Data["seq"] = -99
	if errs := n.CheckTxBatch([]consensus.Tx{tampered}); len(errs) != 1 {
		t.Fatalf("tampered tx admitted after cache warm-up: %v", errs)
	}
}
