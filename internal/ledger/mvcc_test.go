package ledger

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"smartchaindb/internal/txn"
)

// commitChaos commits blocks[0:n] onto a fresh state and returns it.
// The block commit tolerates the chaos workload's double spends and
// duplicates by skipping them — only hard errors fail the test.
func commitChaos(t *testing.T, blocks [][]*txn.Transaction, n int) *State {
	t.Helper()
	s := NewState()
	t.Cleanup(func() { s.Close() })
	s.SetRetain(int64(len(blocks)) + 2)
	for i := 0; i < n; i++ {
		if _, _, err := commitAt(s, int64(i+1), blocks[i]); err != nil {
			t.Fatalf("commit block %d: %v", i+1, err)
		}
	}
	return s
}

// TestStateAtMatchesSequentialBuild pins the acceptance criterion
// "snapshot at h is byte-identical to the sequentially built state at
// h": one state commits the full chaos chain, then every retained
// height's StateAt fingerprint must equal a reference state built by
// stopping at that height.
func TestStateAtMatchesSequentialBuild(t *testing.T) {
	const nBlocks = 6
	blocks := chaosBlocks(t, 411, nBlocks, 24)
	full := commitChaos(t, blocks, nBlocks)

	for h := 1; h <= nBlocks; h++ {
		v, err := full.StateAt(int64(h))
		if err != nil {
			t.Fatalf("StateAt(%d): %v", h, err)
		}
		if v.h != int64(h) {
			t.Fatalf("StateAt(%d).Height = %d", h, v.h)
		}
		ref := commitChaos(t, blocks, h)
		if got, want := v.Fingerprint(), ref.Fingerprint(); got != want {
			t.Fatalf("snapshot at height %d diverges from sequentially built state:\nsnapshot  %s\nreference %s", h, got, want)
		}
	}
	// The live view fingerprints identically to the writer-side one.
	if got, want := full.View().Fingerprint(), full.Fingerprint(); got != want {
		t.Fatalf("View fingerprint %s != State fingerprint %s", got, want)
	}
}

func TestStateAtOutsideRetainedWindow(t *testing.T) {
	blocks := chaosBlocks(t, 412, 6, 8)
	s := NewState()
	defer s.Close()
	s.SetRetain(2)
	for i, b := range blocks {
		if _, _, err := commitAt(s, int64(i+1), b); err != nil {
			t.Fatal(err)
		}
	}
	// retain=2 keeps heights {5, 6}.
	for _, h := range []int64{5, 6} {
		if _, err := s.StateAt(h); err != nil {
			t.Fatalf("StateAt(%d) inside window: %v", h, err)
		}
	}
	for _, h := range []int64{0, 4, 7} {
		_, err := s.StateAt(h)
		if err == nil {
			t.Fatalf("StateAt(%d) outside window: expected error", h)
		}
		if !strings.Contains(err.Error(), "retained window") {
			t.Fatalf("StateAt(%d) error %q does not report the window", h, err)
		}
	}
}

// TestViewReadersRacePipelinedCommits is the ledger-layer race pin:
// fingerprints for every height are precomputed sequentially, then
// snapshot readers run concurrently with pipelined block commits and
// assert that whatever height their view pins, its fingerprint matches
// the precomputed one — i.e. views are immutable and block-atomic even
// while the parallel commit pipeline is mid-flight.
func TestViewReadersRacePipelinedCommits(t *testing.T) {
	const nBlocks = 8
	blocks := chaosBlocks(t, 413, nBlocks, 16)
	want := map[int64]string{}
	{
		ref := commitChaos(t, blocks, 0)
		want[0] = ref.Fingerprint()
		for i, b := range blocks {
			if _, _, err := commitAt(ref, int64(i+1), b); err != nil {
				t.Fatal(err)
			}
			want[int64(i+1)] = ref.Fingerprint()
		}
	}

	s := NewState()
	defer s.Close()
	s.SetRetain(nBlocks + 2)
	s.SetCommitWorkers(4)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := s.View()
				fp, ok := want[v.h]
				if !ok {
					panic(fmt.Sprintf("view pinned unexpected height %d", v.h))
				}
				if got := v.Fingerprint(); got != fp {
					panic(fmt.Sprintf("view at height %d fingerprints %s, want %s", v.h, got, fp))
				}
			}
		}()
	}
	for i, b := range blocks {
		if _, _, err := commitAt(s, int64(i+1), b); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	if got := s.View().h; got != nBlocks {
		t.Fatalf("final view height %d, want %d", got, nBlocks)
	}
	if got := s.Fingerprint(); got != want[nBlocks] {
		t.Fatalf("final fingerprint mismatch")
	}
}
