package ledger

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"smartchaindb/internal/keys"
	"smartchaindb/internal/storage"
	"smartchaindb/internal/txn"
)

// chaosBlocks builds a randomized commit workload: independent
// CREATE+TRANSFER pairs, in-block spend chains (a transfer consuming
// an output created earlier in the same block), double spends of both
// committed and in-block outputs, and duplicate deliveries of already
// seen transactions. Deterministic in seed.
func chaosBlocks(t *testing.T, seed int64, nBlocks, txsPerBlock int) [][]*txn.Transaction {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	kp := keys.DeterministicKeyPair(seed + 1)
	pub := kp.PublicBase58()
	sign := func(tx *txn.Transaction) *txn.Transaction {
		if err := txn.Sign(tx, kp); err != nil {
			t.Fatal(err)
		}
		return tx
	}
	transfer := func(assetID string, ref txn.OutputRef, tag int) *txn.Transaction {
		return sign(txn.NewTransfer(assetID,
			[]txn.Spend{{Ref: ref, Owners: []string{pub}}},
			[]*txn.Output{{PublicKeys: []string{pub}, Amount: 1}},
			map[string]any{"tag": float64(tag)}))
	}

	var all []*txn.Transaction // everything emitted so far, for duplicates
	type out struct {
		asset string
		ref   txn.OutputRef
	}
	var open []out // outputs not yet deliberately spent
	blocks := make([][]*txn.Transaction, nBlocks)
	tag := 0
	for b := range blocks {
		block := make([]*txn.Transaction, 0, txsPerBlock)
		for len(block) < txsPerBlock {
			tag++
			switch k := rng.Intn(10); {
			case k < 4 || len(open) == 0:
				// Fresh asset; its first output becomes spendable.
				c := sign(txn.NewCreate(pub, map[string]any{"tag": float64(tag)}, 1, nil))
				block = append(block, c)
				all = append(all, c)
				open = append(open, out{asset: c.ID, ref: txn.OutputRef{TxID: c.ID, Index: 0}})
			case k < 8:
				// Spend a random open output — often one created in this
				// very block, forming an in-block dependency chain.
				i := rng.Intn(len(open))
				o := open[i]
				tr := transfer(o.asset, o.ref, tag)
				block = append(block, tr)
				all = append(all, tr)
				open[i] = out{asset: o.asset, ref: txn.OutputRef{TxID: tr.ID, Index: 0}}
				if rng.Intn(3) == 0 {
					// Rival spend of the same output: a same-block (or
					// later-block) double spend that must be skipped.
					tag++
					dup := transfer(o.asset, o.ref, tag)
					block = append(block, dup)
					all = append(all, dup)
				}
			default:
				// Duplicate delivery of a random earlier transaction.
				block = append(block, all[rng.Intn(len(all))])
			}
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		blocks[b] = block[:txsPerBlock]
	}
	return blocks
}

func skippedIDs(m map[string]error) []string {
	out := make([]string, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	return out
}

// commitDifferential runs the same chaos workload through a sequential
// state and a pipelined state and requires identical outcomes: the
// committed sequences, the skipped sets, the heights, and the full
// state fingerprint, byte for byte.
func commitDifferential(t *testing.T, seq, par *State, workers int, seed int64) {
	t.Helper()
	par.SetCommitWorkers(workers)
	blocks := chaosBlocks(t, seed, 6, 48)
	for i, block := range blocks {
		h := int64(i + 1)
		seqC, seqS, err := commitAt(seq, h, block)
		if err != nil {
			t.Fatal(err)
		}
		parC, parS, err := commitAt(par, h, block)
		if err != nil {
			t.Fatal(err)
		}
		sameOutcome(t, h, seqC, seqS, parC, parS)
	}
	if seq.Height() != par.Height() {
		t.Fatalf("heights differ: %d vs %d", seq.Height(), par.Height())
	}
	if sf, pf := seq.Fingerprint(), par.Fingerprint(); sf != pf {
		t.Fatalf("state fingerprints differ after %d blocks:\n seq=%s\n par=%s", len(blocks), sf, pf)
	}
}

// TestPipelinedCommitDifferentialMemory pins byte-identical state
// between the sequential commit and the per-conflict-group pipelined
// commit across randomized workloads and worker counts, on the
// volatile backend.
func TestPipelinedCommitDifferentialMemory(t *testing.T) {
	for _, workers := range []int{2, 4, 8} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("workers=%d/seed=%d", workers, seed), func(t *testing.T) {
				seq := NewStateWith(storage.NewMemory())
				par := NewStateWith(storage.NewMemory())
				defer seq.Close()
				defer par.Close()
				commitDifferential(t, seq, par, workers, seed)
			})
		}
	}
}

// TestPipelinedCommitDifferentialDisk is the same differential over
// the durable WAL+segment engine: the pipelined seal must produce the
// identical WAL byte stream (one atomic group per block), so the two
// directories recover to the same state too.
func TestPipelinedCommitDifferentialDisk(t *testing.T) {
	for _, workers := range []int{2, 8} {
		for seed := int64(5); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("workers=%d/seed=%d", workers, seed), func(t *testing.T) {
				seqDir, parDir := t.TempDir(), t.TempDir()
				seq := openDiskState(t, seqDir)
				par := openDiskState(t, parDir)
				commitDifferential(t, seq, par, workers, seed)
				if err := seq.Close(); err != nil {
					t.Fatal(err)
				}
				if err := par.Close(); err != nil {
					t.Fatal(err)
				}
				// Reopen both: recovery replays the WALs; the pipelined
				// directory must recover to the sequential bytes.
				seq2, par2 := openDiskState(t, seqDir), openDiskState(t, parDir)
				defer seq2.Close()
				defer par2.Close()
				if sf, pf := seq2.Fingerprint(), par2.Fingerprint(); sf != pf {
					t.Fatalf("recovered fingerprints differ:\n seq=%s\n par=%s", sf, pf)
				}
				if seq2.Height() != par2.Height() {
					t.Fatalf("recovered heights differ: %d vs %d", seq2.Height(), par2.Height())
				}
			})
		}
	}
}

// TestPipelinedCommitCrashMidApply is the crash property test for the
// pipelined commit: blocks are committed with parallel per-group
// appliers, then the writer is killed by truncating the WAL at a
// uniformly random byte offset. A cut at a block boundary models a
// kill during the next block's apply phase (mid-group, pre-seal —
// nothing staged has touched the log); a cut inside a record models a
// kill mid-seal. Either way the reopened state must equal the last
// sealed block exactly — no partial block may ever be visible.
func TestPipelinedCommitCrashMidApply(t *testing.T) {
	rng := rand.New(rand.NewSource(20260726))
	for trial := 0; trial < 8; trial++ {
		dir := t.TempDir()
		s := openDiskState(t, dir)
		s.SetCommitWorkers(4)
		walPath := findWAL(t, dir)
		blocks := chaosBlocks(t, int64(100+trial), 5, 32)
		snaps := []ledgerDump{dumpState(s)}
		ends := []int64{fileSize(t, walPath)}
		for i, block := range blocks {
			if _, _, err := commitAt(s, int64(i+1), block); err != nil {
				t.Fatal(err)
			}
			snaps = append(snaps, dumpState(s))
			ends = append(ends, fileSize(t, walPath))
		}
		if err := s.Close(); err != nil { // release the dir lock; NoSync close flushes nothing
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
		s2.SetCommitWorkers(4)
		got := dumpState(s2)
		if !reflect.DeepEqual(got, snaps[survivor]) {
			s2.Close()
			t.Fatalf("trial %d: cut at %d: recovered height %d does not equal sealed block %d state (height %d)",
				trial, cut, got.Height, survivor, snaps[survivor].Height)
		}
		// The recovered node keeps committing through the pipeline.
		extra := chaosBlocks(t, int64(200+trial), 1, 16)[0]
		if _, _, err := commitAt(s2, got.Height+1, extra); err != nil {
			t.Fatal(err)
		}
		if s2.Height() != got.Height+1 {
			t.Fatalf("trial %d: post-recovery commit height %d, want %d", trial, s2.Height(), got.Height+1)
		}
		s2.Close()
	}
}

// TestSecondBeginBlockCommitPanics pins the one-open-block invariant:
// opening block h+1 while block h is unsealed is a caller bug the
// ledger names, with both heights, instead of letting the two commits
// race for the WAL; once h has sealed, h+1 opens.
func TestSecondBeginBlockCommitPanics(t *testing.T) {
	s := NewStateWith(storage.NewMemory())
	defer s.Close()
	blocks := chaosBlocks(t, 9, 2, 8)
	first := s.BeginBlockCommit(1)
	func() {
		defer func() {
			msg := fmt.Sprint(recover())
			if !strings.Contains(msg, "BeginBlockCommit(2)") || !strings.Contains(msg, "block 1 is unsealed") {
				t.Fatalf("second BeginBlockCommit: got %q, want a panic naming heights 2 and 1", msg)
			}
		}()
		s.BeginBlockCommit(2)
	}()
	first.Stage(blocks[0])
	if _, _, err := first.Seal(); err != nil {
		t.Fatal(err)
	}
	second := s.BeginBlockCommit(2)
	second.Stage(blocks[1])
	if _, _, err := second.Seal(); err != nil {
		t.Fatal(err)
	}
	if s.Height() != 2 {
		t.Fatalf("height %d after two sealed blocks, want 2", s.Height())
	}
}
