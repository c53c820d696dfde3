package ledger

import (
	"testing"

	"smartchaindb/internal/keys"
	"smartchaindb/internal/txn"
	"smartchaindb/internal/workload"
)

// shapeState commits the transactions the repo benchmark streams
// (workload.BenchmarkShapes) and returns a view of the result.
func shapeState(tb testing.TB) (v *StateView, transfer4, create1k *txn.Transaction) {
	funding, transfer4, create1k := workload.BenchmarkShapes()
	s := NewState()
	tb.Cleanup(func() { s.Close() })
	batch := []*txn.Transaction{funding, transfer4, create1k}
	if committed, skipped := s.CommitBlock(batch); len(committed) != len(batch) {
		tb.Fatalf("committed %d of %d: %v", len(committed), len(batch), skipped)
	}
	return s.View(), transfer4, create1k
}

// TestStateViewReadAllocationCeilings: a point read of committed state
// borrows the stored document, so the UTXO questions cost the key they
// look up and nothing else, and GetTx costs the decoded transaction.
func TestStateViewReadAllocationCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	v, transfer4, _ := shapeState(t)
	spent := *transfer4.Inputs[3].Fulfills
	unspent := txn.OutputRef{TxID: transfer4.ID, Index: 0}
	for _, c := range []struct {
		name    string
		ceiling float64
		fn      func()
	}{
		{"SpenderOf", 1, func() {
			if by, ok := v.SpenderOf(spent); !ok || by != transfer4.ID {
				t.Fatalf("SpenderOf = %q, %v", by, ok)
			}
		}},
		{"IsUnspent", 1, func() {
			if v.IsUnspent(spent) {
				t.Fatal("IsUnspent is wrong")
			}
		}},
		{"OutputAssetID", 1, func() {
			if id, ok := v.OutputAssetID(unspent); !ok || id != transfer4.Asset.ID {
				t.Fatalf("OutputAssetID = %q, %v", id, ok)
			}
		}},
		{"IsCommitted", 0, func() {
			if !v.IsCommitted(transfer4.ID) {
				t.Fatal("IsCommitted is wrong")
			}
		}},
		{"OperationOf", 0, func() {
			if op, _ := v.OperationOf(transfer4.ID); op != txn.OpTransfer {
				t.Fatalf("OperationOf = %q", op)
			}
		}},
		{"GetTx", 20, func() {
			if got, err := v.GetTx(transfer4.ID); err != nil || got.ID != transfer4.ID {
				t.Fatalf("GetTx: %v", err)
			}
		}},
	} {
		if got := testing.AllocsPerRun(200, c.fn); got > c.ceiling {
			t.Errorf("%s: %v allocations, ceiling %v", c.name, got, c.ceiling)
		}
	}
}

var (
	sinkTx  *txn.Transaction
	sinkStr string
	sinkOK  bool
)

func BenchmarkStateViewGetTx(b *testing.B) {
	v, transfer4, create1k := shapeState(b)
	for _, c := range []struct {
		name string
		id   string
	}{{"transfer4", transfer4.ID}, {"create1k", create1k.ID}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				sinkTx, _ = v.GetTx(c.id)
			}
		})
	}
}

func BenchmarkStateViewSpenderOf(b *testing.B) {
	v, transfer4, _ := shapeState(b)
	ref := *transfer4.Inputs[3].Fulfills
	b.ReportAllocs()
	for b.Loop() {
		sinkStr, sinkOK = v.SpenderOf(ref)
	}
}

func BenchmarkStateViewIsUnspent(b *testing.B) {
	v, transfer4, _ := shapeState(b)
	ref := txn.OutputRef{TxID: transfer4.ID, Index: 0}
	b.ReportAllocs()
	for b.Loop() {
		sinkOK = v.IsUnspent(ref)
	}
}

func BenchmarkStateViewOutputAssetID(b *testing.B) {
	v, transfer4, _ := shapeState(b)
	ref := txn.OutputRef{TxID: transfer4.ID, Index: 0}
	b.ReportAllocs()
	for b.Loop() {
		sinkStr, sinkOK = v.OutputAssetID(ref)
	}
}

// BenchmarkStageBlock stages (does not seal) a block of the two shapes
// against the state that funds it: the commit path's share of ToDoc,
// EncodableDoc, the overlay and the UTXO reads.
func BenchmarkStageBlock(b *testing.B) {
	owner := keys.DeterministicKeyPair(41)
	recipient := keys.DeterministicKeyPair(42).PublicBase58()
	gen := workload.NewGenerator(1, keys.DeterministicKeyPair(43))
	const n = 32
	funding := make([]*txn.Transaction, n)
	block := make([]*txn.Transaction, 0, 2*n)
	for i := range funding {
		var transfer *txn.Transaction
		funding[i], transfer = workload.FanIn(owner, recipient, i, 4)
		block = append(block, transfer, gen.Create(owner, []string{"cnc"}, 1024))
	}
	s := NewState()
	b.Cleanup(func() { s.Close() })
	if committed, _ := s.CommitBlock(funding); len(committed) != n {
		b.Fatalf("funded %d of %d", len(committed), n)
	}
	b.ReportAllocs()
	for b.Loop() {
		p := &PendingCommit{s: s, height: s.Height() + 1}
		p.Stage(block)
		for i, st := range p.staged {
			if st.err != nil {
				b.Fatalf("tx %d: %v", i, st.err)
			}
		}
	}
}
