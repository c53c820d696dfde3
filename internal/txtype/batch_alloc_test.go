package txtype_test

import (
	"testing"

	"smartchaindb/internal/keys"
	"smartchaindb/internal/txn"
	"smartchaindb/internal/txtype"
	"smartchaindb/internal/workload"
)

// TestSizedBatchAdmitsWithoutGrowing: a batch sized for a block of
// 4-input fan-ins admits all of them without allocating — its maps
// never regrow and Add copies no spent-ref list.
func TestSizedBatchAdmitsWithoutGrowing(t *testing.T) {
	owner := keys.DeterministicKeyPair(71)
	recipient := keys.DeterministicKeyPair(72).PublicBase58()
	var txs []*txn.Transaction
	for i := range 64 {
		create, transfer := workload.FanIn(owner, recipient, i, 4)
		txs = append(txs, create, transfer)
	}
	build := func() *txtype.Batch { return txtype.NewBatch(txs) }
	admit := func() {
		b := build()
		for _, tx := range txs {
			if err := b.Add(tx); err != nil {
				t.Fatal(err)
			}
		}
	}
	sized := testing.AllocsPerRun(20, func() { build() })
	if got := testing.AllocsPerRun(20, admit) - sized; got != 0 {
		t.Errorf("admitting %d transactions into a sized batch: %v allocations, want 0", len(txs), got)
	}
}
