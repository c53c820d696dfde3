package txtype_test

import (
	"errors"
	"fmt"
	"testing"

	"smartchaindb/internal/keys"
	"smartchaindb/internal/ledger"
	"smartchaindb/internal/txn"
	"smartchaindb/internal/txtype"
	"smartchaindb/internal/validate"
)

func signedCreate(t *testing.T, owner *keys.KeyPair, seq int) *txn.Transaction {
	t.Helper()
	tx := txn.NewCreate(owner.PublicBase58(), map[string]any{"seq": seq}, 1, nil)
	if err := txn.Sign(tx, owner); err != nil {
		t.Fatal(err)
	}
	return tx
}

func TestBatchDuplicateAndConflict(t *testing.T) {
	owner := keys.MustGenerate()
	create := signedCreate(t, owner, 1)
	b := txtype.NewBatch(nil)
	if err := b.Add(create); err != nil {
		t.Fatal(err)
	}
	var dup *txn.DuplicateTransactionError
	if err := b.Add(create); !errors.As(err, &dup) {
		t.Fatalf("want DuplicateTransactionError, got %v", err)
	}
	mkSpend := func(to string) *txn.Transaction {
		tr := txn.NewTransfer(create.ID,
			[]txn.Spend{{Ref: txn.OutputRef{TxID: create.ID, Index: 0}, Owners: []string{owner.PublicBase58()}}},
			[]*txn.Output{{PublicKeys: []string{to}, Amount: 1}}, nil)
		if err := txn.Sign(tr, owner); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	first := mkSpend(keys.MustGenerate().PublicBase58())
	second := mkSpend(keys.MustGenerate().PublicBase58())
	if err := b.Add(first); err != nil {
		t.Fatal(err)
	}
	var ds *txn.DoubleSpendError
	if err := b.Add(second); !errors.As(err, &ds) {
		t.Fatalf("want DoubleSpendError, got %v", err)
	}
	if got := b.Transactions(); len(got) != 2 || got[0].ID != create.ID {
		t.Errorf("Transactions order wrong")
	}
	if spender, ok := b.SpentBy(txn.OutputRef{TxID: create.ID, Index: 0}); !ok || spender != first.ID {
		t.Errorf("SpentBy = %q, %v", spender, ok)
	}
	if _, ok := b.Get(first.ID); !ok {
		t.Error("Get should find batched tx")
	}
}

func TestContextResolveOrder(t *testing.T) {
	owner := keys.MustGenerate()
	committed := signedCreate(t, owner, 1)
	batched := signedCreate(t, owner, 2)
	state := ledger.NewState()
	if _, skipped := state.CommitBlock([]*txn.Transaction{committed}); skipped[committed.ID] != nil {
		t.Fatal(skipped[committed.ID])
	}
	batch := txtype.NewBatch(nil)
	if err := batch.Add(batched); err != nil {
		t.Fatal(err)
	}
	ctx := &txtype.Context{State: state, Batch: batch}
	// Tx reads a committed transaction from the store and a batched one
	// from its own document.
	for _, want := range []*txn.Transaction{committed, batched} {
		s, ok := ctx.Tx(want.ID)
		if id, err := s.ID(); !ok || err != nil || id != want.ID {
			t.Errorf("Tx(%.8s) reads id %q, %v, %v", want.ID, id, ok, err)
		}
	}
	if _, ok := ctx.Tx("missing"); ok {
		t.Error("Tx of a missing transaction should not be found")
	}
	// Output reads a batched transaction's outputs from it, and names
	// a batched spender of a committed output.
	if f, ok := ctx.Output(txn.OutputRef{TxID: batched.ID, Index: 0}); !ok || f.Amount != 1 || f.AssetID != batched.ID || f.SpentBy != "" || len(f.Owners) != 1 || f.Owners.At(0) != owner.PublicBase58() {
		t.Errorf("Output of a batched output = %+v, %v", f, ok)
	}
	if _, ok := ctx.Output(txn.OutputRef{TxID: batched.ID, Index: 1}); ok {
		t.Error("a batched transaction's missing output has no fact")
	}
	if f, ok := ctx.Output(txn.OutputRef{TxID: committed.ID, Index: 0}); !ok || f.Amount != 1 || f.SpentBy != "" {
		t.Errorf("Output of a committed output = %+v, %v", f, ok)
	}
	tr := txn.NewTransfer(committed.ID,
		[]txn.Spend{{Ref: txn.OutputRef{TxID: committed.ID, Index: 0}, Owners: []string{owner.PublicBase58()}}},
		[]*txn.Output{{PublicKeys: []string{owner.PublicBase58()}, Amount: 1}}, nil)
	if err := txn.Sign(tr, owner); err != nil {
		t.Fatal(err)
	}
	if err := batch.Add(tr); err != nil {
		t.Fatal(err)
	}
	if f, ok := ctx.Output(txn.OutputRef{TxID: committed.ID, Index: 0}); !ok || f.SpentBy != tr.ID || f.Amount != 1 {
		t.Errorf("Output spent through the batch = %+v, %v", f, ok)
	}
}

func TestRegistryDispatchAndConditionNaming(t *testing.T) {
	r := txtype.NewRegistry()
	calls := []string{}
	if err := r.Register(&txtype.Type{
		Op: "PING",
		Conditions: []txtype.Condition{
			{Name: "PING.1", Doc: "always holds", Check: func(*txtype.Context, *txn.Transaction) error {
				calls = append(calls, "1")
				return nil
			}},
			{Name: "PING.2", Doc: "fails with a bare error", Check: func(*txtype.Context, *txn.Transaction) error {
				calls = append(calls, "2")
				return fmt.Errorf("boom")
			}},
			{Name: "PING.3", Doc: "never reached", Check: func(*txtype.Context, *txn.Transaction) error {
				calls = append(calls, "3")
				return nil
			}},
		},
	}); err != nil {
		t.Fatal(err)
	}
	ctx := &txtype.Context{State: ledger.NewState()}
	err := r.Validate(ctx, &txn.Transaction{Operation: "PING"})
	if err == nil {
		t.Fatal("want error")
	}
	// The failing condition's name and doc are woven into the error.
	if got := err.Error(); got == "" || !contains(got, "PING.2") || !contains(got, "bare error") {
		t.Errorf("error = %q", got)
	}
	if len(calls) != 2 {
		t.Errorf("conditions evaluated = %v, want short-circuit after failure", calls)
	}
	// Unknown operations are rejected.
	if err := r.Validate(ctx, &txn.Transaction{Operation: "NOPE"}); err == nil {
		t.Error("unknown op should fail")
	}
	if _, ok := r.Type("PING"); !ok {
		t.Error("Type lookup failed")
	}
}

// TestRegisterRefusesWhatItCannotRun: a type with no operation, a
// condition with no name or no check, two conditions of one name, and
// an operation registered twice — a native one included — are refused
// with an error naming the fault, and the registry keeps what it had.
func TestRegisterRefusesWhatItCannotRun(t *testing.T) {
	holds := func(*txtype.Context, *txn.Transaction) error { return nil }
	cond := func(name string) txtype.Condition { return txtype.Condition{Name: name, Doc: "holds", Check: holds} }
	r := txtype.NewRegistry()
	if err := r.Register(&txtype.Type{Op: "PING", Conditions: []txtype.Condition{cond("PING.1")}}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		ty   *txtype.Type
		want string
	}{
		{"nil type", nil, "needs an operation"},
		{"empty op", &txtype.Type{Conditions: []txtype.Condition{cond("X.1")}}, "needs an operation"},
		{"unnamed condition", &txtype.Type{Op: "X", Conditions: []txtype.Condition{cond("X.1"), {Doc: "no name", Check: holds}}}, "condition 1 has no name"},
		{"condition without check", &txtype.Type{Op: "X", Conditions: []txtype.Condition{{Name: "X.1", Doc: "no check"}}}, "condition X.1 has no check"},
		{"two conditions of one name", &txtype.Type{Op: "X", Conditions: []txtype.Condition{cond("X.1"), cond("X.2"), cond("X.1")}}, "two conditions are named X.1"},
		{"operation twice", &txtype.Type{Op: "PING"}, "operation PING is already registered"},
	} {
		err := r.Register(c.ty)
		if err == nil || !contains(err.Error(), c.want) {
			t.Errorf("%s: Register = %v, want an error naming %q", c.name, err, c.want)
		}
	}
	if _, ok := r.Type("X"); ok {
		t.Error("a refused type was registered")
	}
	if ty, _ := r.Type("PING"); len(ty.Conditions) != 1 {
		t.Errorf("a refused registration replaced PING: %+v", ty)
	}
	// A native operation, registered a second time over the native set.
	native := validate.NewRegistry()
	create, _ := native.Type(txn.OpCreate)
	if err := native.Register(&txtype.Type{Op: txn.OpCreate, Conditions: []txtype.Condition{cond("CREATE.x")}}); err == nil || !contains(err.Error(), "CREATE is already registered") {
		t.Errorf("registering CREATE again: %v", err)
	}
	if again, _ := native.Type(txn.OpCreate); again != create {
		t.Error("registering CREATE again replaced the native type")
	}
}

func TestValidationErrorGetsConditionName(t *testing.T) {
	ty := &txtype.Type{
		Op: "X",
		Conditions: []txtype.Condition{
			{Name: "X.7", Doc: "doc", Check: func(*txtype.Context, *txn.Transaction) error {
				return &txn.ValidationError{Op: "X", Reason: "nope"}
			}},
		},
	}
	err := ty.Validate(&txtype.Context{}, &txn.Transaction{Operation: "X"})
	var ve *txn.ValidationError
	if !errors.As(err, &ve) {
		t.Fatalf("want ValidationError, got %T", err)
	}
	if ve.Cond != "X.7" {
		t.Errorf("Cond = %q, want X.7", ve.Cond)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		func() bool {
			for i := 0; i+len(sub) <= len(s); i++ {
				if s[i:i+len(sub)] == sub {
					return true
				}
			}
			return false
		}())
}
