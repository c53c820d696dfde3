package ledger

import (
	"testing"

	"smartchaindb/internal/keys"
	"smartchaindb/internal/txn"
)

// TestCommitBlockAppliesInOrder checks the batched commit path: the
// whole block applies under one lock acquisition, in block order, with
// per-transaction atomicity preserved.
func TestCommitBlockAppliesInOrder(t *testing.T) {
	s := NewState()
	kp := keys.MustGenerate()
	to := keys.MustGenerate()

	create := txn.NewCreate(kp.PublicBase58(), map[string]any{"k": "v"}, 2, nil)
	if err := txn.Sign(create, kp); err != nil {
		t.Fatal(err)
	}
	transfer := txn.NewTransfer(create.ID,
		[]txn.Spend{{Ref: txn.OutputRef{TxID: create.ID, Index: 0}, Owners: []string{kp.PublicBase58()}}},
		[]*txn.Output{{PublicKeys: []string{to.PublicBase58()}, Amount: 2}}, nil)
	if err := txn.Sign(transfer, kp); err != nil {
		t.Fatal(err)
	}

	committed, skipped := s.CommitBlock([]*txn.Transaction{create, transfer})
	if len(committed) != 2 || len(skipped) != 0 {
		t.Fatalf("committed %d, skipped %v", len(committed), skipped)
	}
	if committed[0].ID != create.ID || committed[1].ID != transfer.ID {
		t.Error("block order not preserved")
	}
	if s.TxCount() != 2 {
		t.Errorf("tx count = %d", s.TxCount())
	}
	if s.View().unspent(txn.OutputRef{TxID: create.ID, Index: 0}) {
		t.Error("transferred output should be spent")
	}
	if !s.View().unspent(txn.OutputRef{TxID: transfer.ID, Index: 0}) {
		t.Error("new output should be unspent")
	}
}

// TestCommitBlockSkipsFailuresWithoutSideEffects checks that a
// duplicate or conflicting entry is skipped — reported, not applied —
// and the rest of the block still commits.
func TestCommitBlockSkipsFailuresWithoutSideEffects(t *testing.T) {
	s := NewState()
	kp := keys.MustGenerate()
	a, b := keys.MustGenerate(), keys.MustGenerate()

	create := txn.NewCreate(kp.PublicBase58(), nil, 1, nil)
	if err := txn.Sign(create, kp); err != nil {
		t.Fatal(err)
	}
	spend := func(to *keys.KeyPair, meta map[string]any) *txn.Transaction {
		tr := txn.NewTransfer(create.ID,
			[]txn.Spend{{Ref: txn.OutputRef{TxID: create.ID, Index: 0}, Owners: []string{kp.PublicBase58()}}},
			[]*txn.Output{{PublicKeys: []string{to.PublicBase58()}, Amount: 1}}, meta)
		if err := txn.Sign(tr, kp); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	first := spend(a, nil)
	doubleSpend := spend(b, map[string]any{"n": 2.0})

	committed, skipped := s.CommitBlock([]*txn.Transaction{create, first, create, doubleSpend})
	if len(committed) != 2 {
		t.Fatalf("committed %d, want 2 (create + first transfer)", len(committed))
	}
	if len(skipped) != 2 {
		t.Fatalf("skipped %v, want duplicate create and double spend", skipped)
	}
	if _, dup := skipped[create.ID]; !dup {
		t.Error("duplicate create should be reported")
	}
	if _, ds := skipped[doubleSpend.ID]; !ds {
		t.Error("double spend should be reported")
	}
	if s.IsCommitted(doubleSpend.ID) {
		t.Error("double spend must leave no state")
	}
	if f, ok := s.Output(txn.OutputRef{TxID: create.ID, Index: 0}); !ok || f.SpentBy != first.ID {
		t.Errorf("spender = %s, want first transfer", f.SpentBy)
	}
}

// TestCommitBlockMatchesPerTxCommits checks batched and per-tx commits
// produce identical state.
func TestCommitBlockMatchesPerTxCommits(t *testing.T) {
	build := func() (*State, []*txn.Transaction) {
		s := NewState()
		kp := keys.DeterministicKeyPair(41)
		to := keys.DeterministicKeyPair(42)
		var block []*txn.Transaction
		for i := 0; i < 5; i++ {
			c := txn.NewCreate(kp.PublicBase58(), map[string]any{"i": float64(i)}, 1, nil)
			if err := txn.Sign(c, kp); err != nil {
				t.Fatal(err)
			}
			tr := txn.NewTransfer(c.ID,
				[]txn.Spend{{Ref: txn.OutputRef{TxID: c.ID, Index: 0}, Owners: []string{kp.PublicBase58()}}},
				[]*txn.Output{{PublicKeys: []string{to.PublicBase58()}, Amount: 1}}, nil)
			if err := txn.Sign(tr, kp); err != nil {
				t.Fatal(err)
			}
			block = append(block, c, tr)
		}
		return s, block
	}

	s1, block1 := build()
	s2, block2 := build()
	if committed, _ := s1.CommitBlock(block1); len(committed) != len(block1) {
		t.Fatalf("batched commit applied %d of %d", len(committed), len(block1))
	}
	for _, tx := range block2 {
		if err := commitOne(s2, tx); err != nil {
			t.Fatal(err)
		}
	}
	if s1.TxCount() != s2.TxCount() {
		t.Errorf("tx counts differ: %d vs %d", s1.TxCount(), s2.TxCount())
	}
	u1 := s1.Store().Collection(ColUTXOs).Keys()
	u2 := s2.Store().Collection(ColUTXOs).Keys()
	if len(u1) != len(u2) {
		t.Errorf("utxo counts differ: %d vs %d", len(u1), len(u2))
	}
	for i := range u1 {
		if u1[i] != u2[i] {
			t.Errorf("utxo key order differs at %d: %s vs %s", i, u1[i], u2[i])
		}
	}
}
