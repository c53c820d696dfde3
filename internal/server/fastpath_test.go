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
// payload, forged signature, and missing fulfillment.
func fastPathBatch(t *testing.T) []consensus.Tx {
	t.Helper()
	alice := keys.DeterministicKeyPair(61)
	mallory := keys.DeterministicKeyPair(62)

	good1 := signedCreate(t, alice, "cnc")
	good2 := signedCreate(t, alice, "mill")

	tampered := signedCreate(t, alice, "lathe")
	tampered.Asset.Data["seq"] = -1
	tampered.Invalidate()

	forged := signedCreate(t, alice, "drill")
	forged.Inputs[0].Fulfillment = mallory.Sign(forged.SigningPayload())

	unsigned := signedCreate(t, alice, "press")
	unsigned.Inputs[0].Fulfillment = ""
	unsigned.Invalidate()

	return []consensus.Tx{good1, good2, tampered, forged, unsigned}
}

// TestAdmissionFastPathParity pins the fast path's contract: for the
// same batch, CheckTxBatch with the batched signature stage produces
// exactly the verdict set (same IDs, same error strings) as the
// per-transaction slow path — on one admission worker and, planned
// over the conflict-group scheduler, on four.
func TestAdmissionFastPathParity(t *testing.T) {
	slowReg := obs.New()
	slowNode := NewNode(Config{ReservedSeed: 71, DisableAdmissionFastPath: true, Obs: slowReg})
	for _, workers := range []int{0, 4} {
		fastReg := obs.New()
		admissionParity(t, slowNode, NewNode(Config{ReservedSeed: 71, AdmissionWorkers: workers, Obs: fastReg}))
		if fastReg.Counter("server.admit.sig_tasks").Value() == 0 {
			t.Errorf("%d workers: the fast path never ran the batch verifier", workers)
		}
	}
	// The two sides agree because the switch changes nothing but cost,
	// not because it does nothing: a disabled node never batch-verifies.
	if n := slowReg.Counter("server.admit.sig_tasks").Value(); n != 0 {
		t.Errorf("disabled fast path ran the batch verifier on %d signatures", n)
	}
}

func admissionParity(t *testing.T, slowNode, fastNode *Node) {
	t.Helper()

	batch := fastPathBatch(t)
	// Clone per node so neither sees the other's memoized verdicts.
	clone := func() []consensus.Tx {
		out := make([]consensus.Tx, len(batch))
		for i, tx := range batch {
			out[i] = tx.(*txn.Transaction).Clone()
		}
		return out
	}

	slow := slowNode.CheckTxBatch(clone())
	fast := fastNode.CheckTxBatch(clone())

	if len(slow) != 3 {
		t.Fatalf("slow path rejected %d of 5, want 3: %v", len(slow), slow)
	}
	if len(fast) != len(slow) {
		t.Fatalf("verdict sets differ: fast=%d slow=%d\nfast: %v\nslow: %v", len(fast), len(slow), fast, slow)
	}
	for id, serr := range slow {
		ferr, ok := fast[id]
		if !ok {
			t.Fatalf("fast path admitted tx %.8s, slow path rejected it: %v", id, serr)
		}
		if ferr.Error() != serr.Error() {
			t.Fatalf("tx %.8s: fast=%q slow=%q", id, ferr, serr)
		}
	}
}

// TestAdmissionFastPathMutatedAfterCache: a transaction whose payload
// is mutated after its encodings were memoized must still be rejected
// — Invalidate drops the memo, and a clone never inherits one.
func TestAdmissionFastPathMutatedAfterCache(t *testing.T) {
	n := NewNode(Config{ReservedSeed: 72})
	alice := keys.DeterministicKeyPair(63)
	tx := signedCreate(t, alice, "cnc")
	// Warm the memo through a passing batch on a clone.
	if errs := n.CheckTxBatch([]consensus.Tx{tx.Clone()}); len(errs) != 0 {
		t.Fatalf("pristine tx rejected: %v", errs)
	}
	// Mutate the original and resubmit: the verified clone's verdict
	// must not leak to the tampered original.
	tx.Asset.Data["seq"] = -99
	tx.Invalidate()
	if errs := n.CheckTxBatch([]consensus.Tx{tx}); len(errs) != 1 {
		t.Fatalf("tampered tx admitted after cache warm-up: %v", errs)
	}
}
