package server

import (
	"testing"
	"time"

	"smartchaindb/internal/obs"
	"smartchaindb/internal/txn"
)

// runTracedWorkload drives a multi-auction workload through a
// single-validator cluster — proposer == committer, so every pipeline
// stage of every committed transaction runs on the one instrumented
// node — and returns the live registry plus the committed hashes.
func runTracedWorkload(t *testing.T, dataDir string) (*obs.Registry, []string) {
	t.Helper()
	reg := obs.New()
	run := runAuctionCluster(t, ClusterConfig{
		Nodes:         1,
		Seed:          99,
		BlockInterval: 30 * time.Millisecond,
		MaxBlockTxs:   8,
		Pipelined:     true,
		DataDir:       dataDir,
		ChildDelay:    50 * time.Millisecond,
		ObsFor:        func(int) *obs.Registry { return reg },
		Node: Config{
			ParallelWorkers:  2,
			AdmissionWorkers: 2,
			MempoolBatch:     8,
			CommitWorkers:    2,
			CommitDepth:      2,
		},
	}, auctionLoad{genSeed: 7, auctions: 2, bidders: 3, payload: 96, gap: 2 * time.Millisecond}, nil)
	return reg, run.committed
}

// assertTracesComplete is the tentpole's trace acceptance: every
// committed transaction's trace is height-stamped and reports every
// pipeline stage. Exactly-once is structural (stages record
// first-observation-wins), so observed == recorded exactly once.
func assertTracesComplete(t *testing.T, reg *obs.Registry, committed []string) {
	t.Helper()
	if len(committed) == 0 {
		t.Fatal("no transactions committed")
	}
	tracer := reg.Tracer()
	for _, h := range committed {
		tr, ok := tracer.Trace(h)
		if !ok {
			t.Errorf("committed tx %s has no trace", h)
			continue
		}
		if tr.Height <= 0 {
			t.Errorf("committed tx %s: trace not height-stamped (height %d)", h, tr.Height)
		}
		for s := obs.Stage(0); s < obs.StageCount; s++ {
			if !tr.Observed(s) {
				t.Errorf("committed tx %s: stage %s never observed", h, s)
			}
		}
	}
	// The aggregate seal histogram counts one observation per committed
	// transaction: stages cannot double-record.
	if got := reg.Snapshot().Stages[obs.StageSeal.String()].Count; got != uint64(len(committed)) {
		t.Errorf("seal stage recorded %d observations for %d committed txs", got, len(committed))
	}
}

func TestClusterTracesEveryStage(t *testing.T) {
	for _, backend := range []string{"memory", "disk"} {
		t.Run(backend, func(t *testing.T) {
			dir := ""
			if backend == "disk" {
				dir = t.TempDir()
			}
			reg, committed := runTracedWorkload(t, dir)
			assertTracesComplete(t, reg, committed)

			// The registry's snapshot carries the same stages for the ops
			// endpoint: every stage histogram saw every committed tx.
			snap := reg.Snapshot()
			for s := obs.Stage(0); s < obs.StageCount; s++ {
				d, ok := snap.Stages[s.String()]
				if !ok || d.Count < uint64(len(committed)) {
					t.Errorf("snapshot stage %s: %d observations for %d committed txs (present %t)",
						s, d.Count, len(committed), ok)
				}
			}
		})
	}
}

// TestTraceIDsAreTxIDs pins the cross-layer contract every tracer call
// site relies on: consensus keys traces by Tx.Hash, the ledger by
// Transaction.ID — they must be the same string or traces split.
func TestTraceIDsAreTxIDs(t *testing.T) {
	tx := &txn.Transaction{ID: "abc123"}
	if got := tx.Hash(); got != tx.ID {
		t.Fatalf("Transaction.Hash() = %q, want ID %q", got, tx.ID)
	}
}
