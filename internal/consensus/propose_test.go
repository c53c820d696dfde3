package consensus

import (
	"fmt"
	"testing"
	"time"
)

// packedApp wraps testApp and records the size of every batch handed
// to ValidateBlock.
type packedApp struct {
	*testApp
	sizes []int
}

func (a *packedApp) ValidateBlock(txs []Tx) []Tx {
	a.sizes = append(a.sizes, len(txs))
	return a.testApp.ValidateBlock(txs)
}

// TestValidateBlockOnlyOnPackedBlock is the regression test for the
// propose-time O(pending) re-validation: with far more pending
// transactions than fit in a block, ValidateBlock must only ever see
// packed blocks (<= MaxBlockTxs), never the full pending set.
func TestValidateBlockOnlyOnPackedBlock(t *testing.T) {
	const maxBlock = 8
	const n = 64
	apps := make([]*packedApp, 4)
	c := NewCluster(Config{Nodes: 4, Seed: 21, MaxBlockTxs: maxBlock}, func(i int) App {
		apps[i] = &packedApp{testApp: newTestApp(i)}
		return Lift(apps[i])
	})
	// Flood the mempool before the first block cuts, so pending >> block.
	for i := 0; i < n; i++ {
		c.SubmitAt(time.Duration(i)*time.Microsecond, testTx(fmt.Sprintf("tx%03d", i)))
	}
	if got := c.RunUntilCommitted(n, time.Minute); got != n {
		t.Fatalf("committed %d, want %d", got, n)
	}
	calls := 0
	for i, a := range apps {
		for _, size := range a.sizes {
			calls++
			if size > maxBlock {
				t.Fatalf("node %d: ValidateBlock saw %d txs, block cap is %d — pending-set re-validation is back", i, size, maxBlock)
			}
			if size == 0 {
				t.Errorf("node %d: ValidateBlock called on an empty batch", i)
			}
		}
	}
	if calls == 0 {
		t.Fatal("ValidateBlock was never invoked")
	}
}
