package ledger

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"sync"
	"testing"

	"smartchaindb/internal/parallel"
	"smartchaindb/internal/storage"
	"smartchaindb/internal/txn"
)

// blockResult collects one pipelined block's commit outcome.
type blockResult struct {
	committed []*txn.Transaction
	skipped   map[string]error
	err       error
}

// commitDeepPipeline drives the blocks through the depth-N commit
// pipeline exactly the way server.CommitStart does: the ordered caller
// thread admits height h through the footprint fence and reserves its
// seal slot, then a per-block goroutine waits out write conflicts with
// earlier in-flight blocks, stages off-lock, seals (parking at the
// seal gate until h-1 has sealed), and retires the fence slot.
// capacity is the fence's in-flight bound — commit depth minus one.
func commitDeepPipeline(t *testing.T, s *State, capacity int, blocks [][]*txn.Transaction) []blockResult {
	t.Helper()
	var fence parallel.PipelineFence
	fence.SetDepth(capacity)
	results := make([]blockResult, len(blocks))
	var wg sync.WaitGroup
	for i, block := range blocks {
		h := int64(i + 1)
		fence.Begin(h, parallel.WriteKeys(block))
		pending := s.BeginBlockCommit(h)
		wg.Add(1)
		go func(i int, h int64, block []*txn.Transaction, pending *PendingCommit) {
			defer wg.Done()
			fence.WaitApply(h, parallel.TouchKeys(block))
			pending.Stage(block)
			c, sk, err := pending.Seal()
			results[i] = blockResult{committed: c, skipped: sk, err: err}
			fence.End(h)
		}(i, h, block, pending)
	}
	wg.Wait()
	return results
}

// deepPipelineDifferential commits the same chaos workload through a
// sequential reference state and through the depth-N pipeline and
// requires identical outcomes per block — committed sequences, skip
// sets — plus identical final heights and state fingerprints.
func deepPipelineDifferential(t *testing.T, seq, deep *State, capacity, workers int, seed int64) {
	t.Helper()
	deep.SetCommitWorkers(workers)
	blocks := chaosBlocks(t, seed, 8, 32)
	results := commitDeepPipeline(t, deep, capacity, blocks)
	for i, block := range blocks {
		h := int64(i + 1)
		seqC, seqS, err := seq.CommitBlockAt(h, block)
		if err != nil {
			t.Fatal(err)
		}
		r := results[i]
		if r.err != nil {
			t.Fatalf("block %d: pipelined seal error: %v", h, r.err)
		}
		sameOutcome(t, h, seqC, seqS, r.committed, r.skipped)
	}
	if seq.Height() != deep.Height() {
		t.Fatalf("heights differ: %d vs %d", seq.Height(), deep.Height())
	}
	if sf, df := seq.Fingerprint(), deep.Fingerprint(); sf != df {
		t.Fatalf("state fingerprints differ at capacity %d:\n seq=%s\n deep=%s", capacity, sf, df)
	}
}

// TestDeepPipelineDifferentialMemory pins byte-identical state between
// the sequential commit and the depth-N pipeline with up to capacity
// blocks genuinely mid-apply at once, across depths and worker counts,
// on the volatile backend.
func TestDeepPipelineDifferentialMemory(t *testing.T) {
	for _, depth := range []int{2, 4, 8} {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("depth=%d/seed=%d", depth, seed), func(t *testing.T) {
				seq := NewStateWith(storage.NewMemory())
				deep := NewStateWith(storage.NewMemory())
				defer seq.Close()
				defer deep.Close()
				deepPipelineDifferential(t, seq, deep, depth-1, 4, seed)
			})
		}
	}
}

// TestDeepPipelineDifferentialDisk is the same differential over the
// durable engine, strengthened to the byte level: overlapped commits
// must seal in height order into the identical WAL byte stream the
// sequential reference writes, and both directories must recover to
// the same fingerprint.
func TestDeepPipelineDifferentialDisk(t *testing.T) {
	for _, depth := range []int{2, 8} {
		seed := int64(3)
		t.Run(fmt.Sprintf("depth=%d", depth), func(t *testing.T) {
			seqDir, deepDir := t.TempDir(), t.TempDir()
			seq := openDiskState(t, seqDir)
			deep := openDiskState(t, deepDir)
			deepPipelineDifferential(t, seq, deep, depth-1, 4, seed)
			if err := seq.Close(); err != nil {
				t.Fatal(err)
			}
			if err := deep.Close(); err != nil {
				t.Fatal(err)
			}
			if seqWAL, deepWAL := readWAL(t, seqDir), readWAL(t, deepDir); !bytes.Equal(seqWAL, deepWAL) {
				t.Fatalf("WAL byte streams differ: seq %d bytes, deep %d bytes", len(seqWAL), len(deepWAL))
			}
			seq2, deep2 := openDiskState(t, seqDir), openDiskState(t, deepDir)
			defer seq2.Close()
			defer deep2.Close()
			if sf, df := seq2.Fingerprint(), deep2.Fingerprint(); sf != df {
				t.Fatalf("recovered fingerprints differ:\n seq=%s\n deep=%s", sf, df)
			}
		})
	}
}

// TestDeepPipelineCrashMultiBlockInFlight kills the writer by WAL
// truncation while the deep pipeline had several blocks mid-apply. The
// sequential reference directory supplies the per-block WAL offsets
// and state snapshots; since the deep pipeline provably writes the
// identical byte stream (checked below before cutting), a cut at any
// offset must recover the pipelined directory to exactly the last
// block that sealed in height order before the cut — never a later
// block that happened to finish staging first, never a partial block.
func TestDeepPipelineCrashMultiBlockInFlight(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	const capacity = 4 // commit depth 5: up to 4 blocks mid-apply
	for trial := 0; trial < 6; trial++ {
		refDir, dir := t.TempDir(), t.TempDir()
		ref := openDiskState(t, refDir)
		s := openDiskState(t, dir)
		s.SetCommitWorkers(4)
		walPath := findWAL(t, dir)
		blocks := chaosBlocks(t, int64(300+trial), 6, 24)

		snaps := []ledgerDump{dumpState(ref)}
		ends := []int64{fileSize(t, findWAL(t, refDir))}
		for i, block := range blocks {
			if _, _, err := ref.CommitBlockAt(int64(i+1), block); err != nil {
				t.Fatal(err)
			}
			snaps = append(snaps, dumpState(ref))
			ends = append(ends, fileSize(t, findWAL(t, refDir)))
		}

		results := commitDeepPipeline(t, s, capacity, blocks)
		for i, r := range results {
			if r.err != nil {
				t.Fatalf("trial %d: block %d seal error: %v", trial, i+1, r.err)
			}
		}
		if err := s.Close(); err != nil { // release the dir lock; NoSync close flushes nothing
			t.Fatal(err)
		}
		if refWAL, deepWAL := readWAL(t, refDir), readWAL(t, dir); !bytes.Equal(refWAL, deepWAL) {
			t.Fatalf("trial %d: pipelined WAL diverges from sequential reference (%d vs %d bytes)",
				trial, len(deepWAL), len(refWAL))
		}
		if err := ref.Close(); err != nil {
			t.Fatal(err)
		}

		cut := int64(rng.Int63n(ends[len(ends)-1] + 1))
		if err := os.Truncate(walPath, cut); err != nil {
			t.Fatal(err)
		}
		survivor := 0
		for i, end := range ends {
			if end <= cut {
				survivor = i
			}
		}
		s2 := openDiskState(t, dir)
		got := dumpState(s2)
		if !reflect.DeepEqual(got, snaps[survivor]) {
			s2.Close()
			t.Fatalf("trial %d: cut at %d: recovered height %d does not equal sealed block %d state (height %d)",
				trial, cut, got.Height, survivor, snaps[survivor].Height)
		}
		// The recovered node keeps committing through the deep pipeline.
		extra := chaosBlocks(t, int64(400+trial), 2, 12)
		base := got.Height
		var fence parallel.PipelineFence
		fence.SetDepth(capacity)
		var wg sync.WaitGroup
		for i, block := range extra {
			h := base + int64(i+1)
			fence.Begin(h, parallel.WriteKeys(block))
			pending := s2.BeginBlockCommit(h)
			wg.Add(1)
			go func(h int64, block []*txn.Transaction, pending *PendingCommit) {
				defer wg.Done()
				fence.WaitApply(h, parallel.TouchKeys(block))
				pending.Stage(block)
				if _, _, err := pending.Seal(); err != nil {
					panic(err)
				}
				fence.End(h)
			}(h, block, pending)
		}
		wg.Wait()
		if s2.Height() != base+int64(len(extra)) {
			t.Fatalf("trial %d: post-recovery height %d, want %d", trial, s2.Height(), base+int64(len(extra)))
		}
		s2.Close()
	}
}
