package consensus

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"smartchaindb/internal/obs"
)

// fullTestApp implements App directly, with the cost model Lift gives
// a MinimalApp (per-transaction check and price, freshness ignored,
// free commit, no early checks) but a real two-phase commit:
// CommitStart only notes the height, and the block reaches the
// recorded state at the join, which therefore hands the state on
// (HandsOn) and runs at its instant.
type fullTestApp struct {
	*testApp
	started []int64
	joined  []int64
}

func (a *fullTestApp) CheckTxBatch(txs []Tx) map[string]error {
	errs := make(map[string]error)
	for _, tx := range txs {
		if err := a.CheckTx(tx); err != nil {
			errs[tx.Hash()] = err
		}
	}
	return errs
}

func (a *fullTestApp) PrecheckBatch([]Tx) (wait func()) { return func() {} }

func (a *fullTestApp) ReceiverBatchTime(txs []Tx) time.Duration {
	return time.Duration(len(txs)) * a.recvTime
}

func (a *fullTestApp) ValidateBlockFresh(txs []Tx, _ []bool) []Tx { return a.ValidateBlock(txs) }

func (a *fullTestApp) ValidationTimeFresh([]Tx, []bool) time.Duration { return a.valTime }

func (a *fullTestApp) CommitStart(height int64, txs []Tx) (join func()) {
	a.started = append(a.started, height)
	return func() {
		a.joined = append(a.joined, height)
		a.Commit(height, txs)
	}
}

func (a *fullTestApp) HandsOn([]Tx) bool { return true }

func (a *fullTestApp) CommitTime([]Tx) time.Duration { return 0 }

func (a *fullTestApp) Obs() *obs.Registry { return nil }

// TestLiftedAndFullAppCommitSameBlocks pins the adapter and the depth
// knob on the engine's one commit path: a MinimalApp behind Lift and
// an App written out in full commit the same blocks, at CommitDepth 1
// (charge the execution resource, join at once) and CommitDepth 2
// (commit slot, join scheduled), and the full app sees every block
// started and joined exactly once, in height order.
func TestLiftedAndFullAppCommitSameBlocks(t *testing.T) {
	const n = 60
	run := func(t *testing.T, depth int, full bool) (blocks []map[int64][]string, fulls []*fullTestApp) {
		t.Helper()
		apps := make([]*testApp, 4)
		c := NewCluster(Config{Nodes: 4, Seed: 41, MaxBlockTxs: 8, CommitDepth: depth}, func(i int) App {
			apps[i] = newTestApp(i)
			apps[i].reject["bad"] = true
			if full {
				fulls = append(fulls, &fullTestApp{testApp: apps[i]})
				return fulls[i]
			}
			return Lift(apps[i])
		})
		for i := 0; i < n; i++ {
			c.SubmitAt(time.Duration(i)*3*time.Millisecond, testTx(fmt.Sprintf("tx%03d", i)))
		}
		c.SubmitAt(10*time.Millisecond, testTx("bad"))
		if got := c.RunUntilCommitted(n, time.Minute); got != n {
			t.Fatalf("committed %d, want %d", got, n)
		}
		c.RunUntil(c.Sched().Now() + time.Second) // let stragglers apply and join
		if err, ok := c.rejected["bad"]; !ok || err == nil {
			t.Error("rejection not recorded")
		}
		for _, a := range apps {
			blocks = append(blocks, a.perHeight)
		}
		return blocks, fulls
	}
	var want []map[int64][]string // the first run's blocks; every other run must match
	for _, depth := range []int{1, 2} {
		for _, full := range []bool{false, true} {
			t.Run(fmt.Sprintf("depth=%d/full=%v", depth, full), func(t *testing.T) {
				got, fulls := run(t, depth, full)
				if want == nil {
					want = got
					if len(want[0]) < 2 {
						t.Fatalf("workload committed %d blocks, want several", len(want[0]))
					}
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("blocks differ from the lifted depth-1 run:\n got=%v\nwant=%v", got[0], want[0])
				}
				for i, a := range fulls {
					heights := make([]int64, len(got[i]))
					for h := range heights {
						heights[h] = int64(h + 1)
					}
					if !reflect.DeepEqual(a.started, heights) || !reflect.DeepEqual(a.joined, heights) {
						t.Fatalf("node %d: started %v, joined %v, want each of %v once in order", i, a.started, a.joined, heights)
					}
				}
			})
		}
	}
}
