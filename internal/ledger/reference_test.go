package ledger

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"testing"

	"smartchaindb/internal/obs"
	"smartchaindb/internal/parallel"
	"smartchaindb/internal/storage"
	"smartchaindb/internal/txn"
)

// referenceCommitBlockAt is the independent reference the block commit
// is pinned to: the interleaved per-transaction loop — check one
// transaction against committed state, write it, move to the next —
// with no plan, no shared overlay and no staging of the block as a
// whole. It is deliberately not built from PendingCommit, and it
// writes the height record by hand, so a change to either shows up as
// a byte difference here. Test-only: production has one block commit.
func referenceCommitBlockAt(s *State, height int64, batch []*txn.Transaction) (committed []*txn.Transaction, skipped map[string]error, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	bk := s.store.Backend()
	bk.BeginBlock(height)
	defer func() {
		bk.SealBlock(height)
		s.store.SweepIndexes()
	}()
	err = s.store.Group(func() error {
		for _, t := range batch {
			st := newGroupOverlay(s).stageTx(t)
			if st.err != nil {
				if skipped == nil {
					skipped = make(map[string]error)
				}
				skipped[t.ID] = st.err
				continue
			}
			// A checked transaction that then fails to write is a lost
			// backend write, not a skip: the block fails, as it does in
			// the block commit.
			if serr := s.sealTx(st); serr != nil {
				return serr
			}
			committed = append(committed, t)
		}
		ids := make([]any, len(committed))
		for i, t := range committed {
			ids[i] = t.ID
		}
		return s.store.Collection(ColBlocks).Upsert(blockKey(height), map[string]any{
			"height": float64(height),
			"count":  float64(len(committed)),
			"txids":  ids,
		})
	})
	if err != nil {
		return nil, nil, err
	}
	if height > s.lastHeight {
		s.lastHeight = height
	}
	return committed, skipped, nil
}

// readWAL returns the raw bytes of the (closed) state directory's WAL.
func readWAL(t *testing.T, dir string) []byte {
	t.Helper()
	b, err := os.ReadFile(findWAL(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// sameOutcome requires one block's commit outcome to equal the
// reference's: the committed sequence, and the skipped set with the
// same error type per transaction.
func sameOutcome(t *testing.T, h int64, wantC []*txn.Transaction, wantS map[string]error, gotC []*txn.Transaction, gotS map[string]error) {
	t.Helper()
	if !reflect.DeepEqual(txIDs(wantC), txIDs(gotC)) {
		t.Fatalf("block %d: committed sets differ:\n want=%v\n  got=%v", h, txIDs(wantC), txIDs(gotC))
	}
	if len(wantS) != len(gotS) {
		t.Fatalf("block %d: skipped sets differ: %v vs %v", h, skippedIDs(wantS), skippedIDs(gotS))
	}
	for id, werr := range wantS {
		gerr, ok := gotS[id]
		if !ok {
			t.Fatalf("block %d: lost skip for %.8s (%v)", h, id, werr)
		}
		if fmt.Sprintf("%T", werr) != fmt.Sprintf("%T", gerr) {
			t.Fatalf("block %d: skip error type differs for %.8s: %T vs %T", h, id, werr, gerr)
		}
	}
}

// blockResult collects one block's commit outcome.
type blockResult struct {
	committed []*txn.Transaction
	skipped   map[string]error
	err       error
}

// commitBehindFence drives the blocks through the commit the way
// server.CommitStart does: the ordered caller thread admits height h
// through the one-slot fence — parking until h-1 has sealed — and
// opens its commit, then a per-block goroutine stages off-lock, seals
// and retires the fence slot.
func commitBehindFence(s *State, blocks [][]*txn.Transaction) []blockResult {
	var fence parallel.PipelineFence
	results := make([]blockResult, len(blocks))
	for i, block := range blocks {
		h := int64(i + 1)
		fence.Begin(h, parallel.BuildPlan(block).Footprints)
		pending := s.BeginBlockCommit(h)
		go func(i int, block []*txn.Transaction) {
			pending.Stage(block)
			c, sk, err := pending.Seal()
			results[i] = blockResult{committed: c, skipped: sk, err: err}
			fence.End(h)
		}(i, block)
	}
	fence.Drain()
	return results
}

// TestBlockCommitMatchesInterleavedReference pins the one block commit
// to the interleaved reference at every way of driving it: the
// synchronous CommitBlock (depth 1) and BeginBlockCommit → Stage →
// Seal in the background behind the commit fence (depth 2), each with
// the conflict groups staged one after another (workers 0 and 1) and
// on 2, 4 and 8 appliers, on both backends. Per block the committed sequences and skip sets must
// match; at the end the heights and state fingerprints; on disk the
// raw WAL byte streams and the fingerprints recovered from them.
func TestBlockCommitMatchesInterleavedReference(t *testing.T) {
	const seed = 7
	for _, backend := range []string{"memory", "disk"} {
		for _, depth := range []int{1, 2} {
			for _, workers := range []int{0, 1, 2, 4, 8} {
				t.Run(fmt.Sprintf("%s/depth=%d/workers=%d", backend, depth, workers), func(t *testing.T) {
					open := func() (*State, string) {
						if backend == "memory" {
							return NewStateWith(storage.NewMemory()), ""
						}
						dir := t.TempDir()
						return openDiskState(t, dir), dir
					}
					ref, refDir := open()
					got, gotDir := open()
					got.SetCommitWorkers(workers)
					blocks := chaosBlocks(t, seed, 8, 32)

					results := make([]blockResult, len(blocks))
					if depth == 1 {
						for i, block := range blocks {
							c, sk := got.CommitBlock(block)
							results[i] = blockResult{committed: c, skipped: sk}
						}
					} else {
						results = commitBehindFence(got, blocks)
					}
					for i, block := range blocks {
						h := int64(i + 1)
						refC, refS, err := referenceCommitBlockAt(ref, h, block)
						if err != nil {
							t.Fatal(err)
						}
						if results[i].err != nil {
							t.Fatalf("block %d: %v", h, results[i].err)
						}
						sameOutcome(t, h, refC, refS, results[i].committed, results[i].skipped)
					}
					if ref.Height() != got.Height() {
						t.Fatalf("heights differ: %d vs %d", ref.Height(), got.Height())
					}
					if rf, gf := ref.Fingerprint(), got.Fingerprint(); rf != gf {
						t.Fatalf("state fingerprints differ:\n ref=%s\n got=%s", rf, gf)
					}
					if err := ref.Close(); err != nil {
						t.Fatal(err)
					}
					if err := got.Close(); err != nil {
						t.Fatal(err)
					}
					if backend == "memory" {
						return
					}
					if refWAL, gotWAL := readWAL(t, refDir), readWAL(t, gotDir); !bytes.Equal(refWAL, gotWAL) {
						t.Fatalf("WAL byte streams differ: reference %d bytes, got %d bytes", len(refWAL), len(gotWAL))
					}
					ref2, got2 := openDiskState(t, refDir), openDiskState(t, gotDir)
					defer ref2.Close()
					defer got2.Close()
					if rf, gf := ref2.Fingerprint(), got2.Fingerprint(); rf != gf {
						t.Fatalf("recovered fingerprints differ:\n ref=%s\n got=%s", rf, gf)
					}
				})
			}
		}
	}
}

// TestCommitAttributionIsOnePath pins the metric attribution: the same
// blocks report the same plan/apply/seal split whether they commit
// through CommitBlock or through BeginBlockCommit → Stage → Seal, at
// any worker count. Before the paths were unified the synchronous
// entry point at workers < 2 reported apply = 0 and seal = total. Every
// block is planned, so every block reports its conflict groups, and
// the appliers' busy time (the sum of the groups' stage times) never
// exceeds the phase's wall time times the appliers running it — on one
// applier, the wall time itself.
func TestCommitAttributionIsOnePath(t *testing.T) {
	blocks := chaosBlocks(t, 11, 4, 32)
	for _, workers := range []int{0, 4} {
		for _, staged := range []bool{false, true} {
			t.Run(fmt.Sprintf("workers=%d/staged=%v", workers, staged), func(t *testing.T) {
				s := NewStateWith(storage.NewMemory())
				defer s.Close()
				reg := obs.New()
				s.SetObs(reg)
				s.SetCommitWorkers(workers)
				for i, block := range blocks {
					h := int64(i + 1)
					var err error
					if staged {
						p := s.BeginBlockCommit(h)
						p.Stage(block)
						_, _, err = p.Seal()
					} else {
						s.CommitBlock(block)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				snap := reg.Snapshot()
				apply := snap.Histograms["ledger.commit.apply_ns"]
				seal := snap.Histograms["ledger.commit.seal_ns"]
				total := snap.Histograms["ledger.commit.total_ns"]
				n := uint64(len(blocks))
				if apply.Count != n || seal.Count != n || total.Count != n {
					t.Fatalf("per-block samples: apply %d, seal %d, total %d, want %d each", apply.Count, seal.Count, total.Count, n)
				}
				if apply.Min <= 0 || seal.Min <= 0 {
					t.Fatalf("every block must report a real apply and a real seal: apply min %d ns, seal min %d ns", apply.Min, seal.Min)
				}
				if apply.Sum+seal.Sum > total.Sum {
					t.Fatalf("apply %d + seal %d exceeds total %d", apply.Sum, seal.Sum, total.Sum)
				}
				busy, wall := snap.Counters["ledger.commit.apply_busy_ns"], snap.Counters["ledger.commit.apply_wall_ns"]
				if wall != uint64(apply.Sum) {
					t.Fatalf("apply_wall_ns %d != sum of apply_ns %d", wall, apply.Sum)
				}
				if busy == 0 || busy > wall*uint64(max(workers, 1)) {
					t.Fatalf("apply_busy_ns %d outside (0, apply_wall_ns %d × %d appliers]", busy, wall, max(workers, 1))
				}
				if groups := snap.Histograms["ledger.commit.conflict_groups"].Count; groups != n {
					t.Fatalf("conflict_groups samples = %d, want %d", groups, n)
				}
			})
		}
	}
}
