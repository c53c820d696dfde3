package ledger

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"smartchaindb/internal/keys"
	"smartchaindb/internal/storage"
	"smartchaindb/internal/txn"
	"smartchaindb/internal/workload"
)

// buildBlocks returns nBlocks blocks of txsPerBlock valid transactions
// (alternating CREATE and a TRANSFER spending the previous CREATE).
func buildBlocks(t *testing.T, tag string, nBlocks, txsPerBlock int) [][]*txn.Transaction {
	t.Helper()
	kp := keys.DeterministicKeyPair(1001)
	to := keys.DeterministicKeyPair(1002)
	blocks := make([][]*txn.Transaction, nBlocks)
	for b := range blocks {
		var block []*txn.Transaction
		for j := 0; j < txsPerBlock/2; j++ {
			c := txn.NewCreate(kp.PublicBase58(), map[string]any{"tag": tag, "b": float64(b), "j": float64(j)}, 1, nil)
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
		blocks[b] = block
	}
	return blocks
}

// ledgerDump captures everything the acceptance criterion compares:
// committed height, the transaction log, the UTXO set, and the
// recovery records.
type ledgerDump struct {
	Height   int64
	TxKeys   []string
	UTXOs    []map[string]any
	Recovery []map[string]any
}

func dumpState(s *State) ledgerDump {
	return ledgerDump{
		Height:   s.Height(),
		TxKeys:   s.Store().Collection(ColTransactions).Keys(),
		UTXOs:    s.Store().Collection(ColUTXOs).Find(nil),
		Recovery: s.Store().Collection(ColRecovery).Find(nil),
	}
}

func openDiskState(t *testing.T, dir string) *State {
	t.Helper()
	eng, err := storage.Open(dir, storage.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	return NewStateWith(eng)
}

// TestStateReopenRecoversExactCommittedState is the acceptance test's
// ledger half: a state killed (abandoned without Close) after
// committing N blocks reopens to identical TxCount, height, UTXO set,
// and recovery records.
func TestStateReopenRecoversExactCommittedState(t *testing.T) {
	dir := t.TempDir()
	s := openDiskState(t, dir)
	blocks := buildBlocks(t, "reopen", 5, 8)
	for i, block := range blocks {
		committed, skipped, err := commitAt(s, int64(i+1), block)
		if err != nil || len(skipped) != 0 || len(committed) != len(block) {
			t.Fatalf("block %d: committed %d skipped %v err %v", i, len(committed), skipped, err)
		}
	}
	// An auction whose ACCEPT_BID commits without its children leaves
	// a PENDING recovery record.
	grp := workload.NewGenerator(24, keys.DeterministicKeyPair(500)).NewAuctionGroup(0, workload.AuctionGroupSpec{BiddersPerAuction: 3})
	for _, block := range [][]*txn.Transaction{append([]*txn.Transaction{grp.Request}, grp.Creates...), grp.Bids, {grp.Accept}} {
		if committed, skipped, err := commitAt(s, s.Height()+1, block); err != nil || len(committed) != len(block) {
			t.Fatalf("auction block: committed %d skipped %v err %v", len(committed), skipped, err)
		}
	}
	want := dumpState(s)
	if want.Height != 8 || s.TxCount() != 48 || len(want.Recovery) != 1 || want.Recovery[0]["status"] != RecoveryPending {
		t.Fatalf("pre-kill height %d txcount %d recovery %v", want.Height, s.TxCount(), want.Recovery)
	}
	// "Kill" the state: Close here flushes nothing the per-block WAL
	// groups haven't already written (and releases the directory lock
	// the kernel would reclaim from a dead process — the faithful
	// no-close variant lives in internal/storage's own tests, and the
	// real-SIGKILL case is covered by the smartchaindb -datadir CLI).
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openDiskState(t, dir)
	defer s2.Close()
	if got := dumpState(s2); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened ledger state differs:\ngot  %+v\nwant %+v", got, want)
	}
	// The reopened state keeps committing where it left off.
	extra := buildBlocks(t, "extra", 1, 4)[0]
	committed, _ := s2.CommitBlock(extra)
	if len(committed) != len(extra) || s2.Height() != 9 {
		t.Fatalf("post-reopen commit: %d txs, height %d", len(committed), s2.Height())
	}
}

// TestFailedCheckpointIsNotReportedAsALostBlock: when the storage
// engine cannot cut its checkpoint — a directory squats on the next
// WAL's name — the block whose group triggered it is durable, and the
// fail-stop panic says so instead of "lost durability".
func TestFailedCheckpointIsNotReportedAsALostBlock(t *testing.T) {
	dir := t.TempDir()
	eng, err := storage.Open(dir, storage.Options{NoSync: true, CompactWALBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := NewStateWith(eng)
	defer s.Close()
	// Settle whatever checkpoint opening the state set off, so the next
	// group past the one-byte threshold is the one that cuts.
	if err := eng.Compact(); err != nil {
		t.Fatal(err)
	}
	// The one WAL left names the live generation.
	wals, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(wals) != 1 {
		t.Fatalf("WALs after Compact: %v, %v", wals, err)
	}
	var gen int
	if _, err := fmt.Sscanf(filepath.Base(wals[0]), "wal-%d.log", &gen); err != nil {
		t.Fatal(err)
	}
	squatter := filepath.Join(dir, fmt.Sprintf("wal-%06d.log", gen+1))
	if err := os.Mkdir(squatter, 0o755); err != nil {
		t.Fatal(err)
	}
	block := buildBlocks(t, "ckpt", 1, 4)[0]
	func() {
		defer func() {
			want := "ledger: block 1 is durable; checkpoint failed: storage: checkpoint failed: cut: "
			if msg, _ := recover().(string); !strings.HasPrefix(msg, want) {
				t.Fatalf("CommitBlock over a failing checkpoint panicked with %q, want %q…", msg, want)
			}
		}()
		s.CommitBlock(block)
	}()
	if got := SealFailure(7, fmt.Errorf("wal append: %w", os.ErrClosed)); got != "block 7 lost durability: wal append: file already closed" {
		t.Errorf("a real durability failure is reported as %q", got)
	}
	// Durable it is: a process that opens the directory next (the
	// squatter gone) finds the block.
	if err := os.Remove(squatter); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2 := openDiskState(t, dir)
	defer s2.Close()
	if s2.Height() != 1 || s2.TxCount() != len(block) {
		t.Fatalf("reopened at height %d with %d transactions, want block 1's %d", s2.Height(), s2.TxCount(), len(block))
	}
}

// TestStateReopenAfterCompaction checks recovery reads segments plus
// the WAL tail, not just a fresh log.
func TestStateReopenAfterCompaction(t *testing.T) {
	dir := t.TempDir()
	s := openDiskState(t, dir)
	blocks := buildBlocks(t, "compact", 4, 6)
	for i, block := range blocks[:2] {
		if _, _, err := commitAt(s, int64(i+1), block); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Store().Compact(); err != nil {
		t.Fatal(err)
	}
	for i, block := range blocks[2:] {
		if _, _, err := commitAt(s, int64(i+3), block); err != nil {
			t.Fatal(err)
		}
	}
	want := dumpState(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openDiskState(t, dir)
	defer s2.Close()
	if got := dumpState(s2); !reflect.DeepEqual(got, want) {
		t.Fatalf("segment+WAL reopen differs:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestStateCrashMidBlockRecoversLastFullBlock kills the WAL at random
// byte offsets and requires the reopened ledger to equal the state
// after the last fully-committed block — the block-atomicity property
// the single WAL group per block exists to provide.
func TestStateCrashMidBlockRecoversLastFullBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		dir := t.TempDir()
		s := openDiskState(t, dir)
		walPath := findWAL(t, dir)
		blocks := buildBlocks(t, fmt.Sprintf("crash%d", trial), 4, 6)
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
		got := dumpState(s2)
		s2.Close()
		if !reflect.DeepEqual(got, snaps[survivor]) {
			t.Fatalf("trial %d: cut at %d: recovered height %d does not equal block-%d state (want height %d)",
				trial, cut, got.Height, survivor, snaps[survivor].Height)
		}
	}
}

func findWAL(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("wal files in %s: %v (err %v)", dir, matches, err)
	}
	return matches[0]
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if os.IsNotExist(err) {
		return 0
	}
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestCommitBlockAssignsSequentialHeights pins the auto-height path.
func TestCommitBlockAssignsSequentialHeights(t *testing.T) {
	s := NewState()
	defer s.Close()
	for i, block := range buildBlocks(t, "heights", 3, 4) {
		if committed, _ := s.CommitBlock(block); len(committed) != len(block) {
			t.Fatalf("block %d under-committed", i)
		}
	}
	if s.Height() != 3 {
		t.Fatalf("height = %d, want 3", s.Height())
	}
	if got := len(s.Store().Collection(ColBlocks).Keys()); got != 3 {
		t.Fatalf("block records = %d, want 3", got)
	}
	doc, err := s.Store().Collection(ColBlocks).Get(fmt.Sprintf("%016d", 2))
	if err != nil {
		t.Fatal(err)
	}
	if doc["height"].(float64) != 2 || doc["count"].(float64) != 4 {
		t.Fatalf("block record = %v", doc)
	}
}
