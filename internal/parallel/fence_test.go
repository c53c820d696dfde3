package parallel_test

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smartchaindb/internal/mempool"
	"smartchaindb/internal/parallel"
	"smartchaindb/internal/txn"
)

// writes and reads are one-footprint fence arguments.
func writes(keys ...string) []txn.Footprint { return []txn.Footprint{{Writes: keys}} }
func reads(keys ...string) []txn.Footprint  { return []txn.Footprint{{Reads: keys}} }

// TestFenceDisjointProceedsConflictWaits pins the fence contract:
// while a commit is in flight, a reader with disjoint keys returns
// immediately and a conflicting reader blocks until End.
func TestFenceDisjointProceedsConflictWaits(t *testing.T) {
	var f parallel.PipelineFence
	f.Begin(1, writes("tx:a", "utxo:a:0"))

	// Disjoint: must not block.
	done := make(chan struct{})
	go func() {
		f.WaitKeysReport(writes("tx:b", "utxo:b:0"))
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("disjoint reader blocked on the fence")
	}

	// Conflicting: must block until End.
	var sealed atomic.Bool
	waited := make(chan struct{})
	go func() {
		f.WaitKeysReport(reads("utxo:a:0"))
		if !sealed.Load() {
			t.Error("conflicting reader proceeded before the seal")
		}
		close(waited)
	}()
	time.Sleep(20 * time.Millisecond) // give the waiter time to park
	sealed.Store(true)
	f.End(1)
	select {
	case <-waited:
	case <-time.After(5 * time.Second):
		t.Fatal("conflicting reader never released")
	}

	// Idle fence: everything passes straight through.
	f.WaitKeysReport(writes("utxo:a:0"))
	f.Drain()
}

// foreignTx is a transaction that declares no footprint, as the
// baseline chain's do.
type foreignTx string

func (t foreignTx) Hash() string { return string(t) }

// TestFenceRoleRule: the fence keys on roles, not on key overlap. The
// in-flight block publishes only its writes: a waiter that only reads
// a key the block only reads — or writes one — proceeds, and a waiter
// that reads or writes a key the block writes waits for the seal. A
// foreign transaction's fallback footprint writes its own hash only,
// so it fences nothing but itself.
func TestFenceRoleRule(t *testing.T) {
	block := []txn.Footprint{{Writes: []string{"w"}, Reads: []string{"r"}}}
	foreign := []txn.Footprint{mempool.ForTransaction(foreignTx("x"))}
	for _, c := range []struct {
		name  string
		block []txn.Footprint
		fps   []txn.Footprint
		waits bool
	}{
		{"reads what the block reads", block, reads("r"), false},
		{"writes what the block reads", block, writes("r"), false},
		{"disjoint", block, []txn.Footprint{{Writes: []string{"a"}, Reads: []string{"b"}}}, false},
		{"reads what the block writes", block, reads("w"), true},
		{"writes what the block writes", block, writes("w"), true},
		{"one of several reads what the block writes", block, append(reads("r"), reads("w")...), true},
		{"another foreign transaction", foreign, []txn.Footprint{mempool.ForTransaction(foreignTx("y"))}, false},
		{"a declared footprint beside a foreign one", foreign, reads("r"), false},
		{"the foreign transaction itself", foreign, []txn.Footprint{mempool.ForTransaction(foreignTx("x"))}, true},
	} {
		var f parallel.PipelineFence
		f.Begin(1, c.block)
		var sealed atomic.Bool
		done := make(chan bool)
		go func() {
			inflight, blocked := f.WaitKeysReport(c.fps)
			if !inflight {
				t.Errorf("%s: no commit in flight at entry", c.name)
			}
			if blocked && !sealed.Load() {
				t.Errorf("%s: proceeded before the seal", c.name)
			}
			done <- blocked
		}()
		if !c.waits {
			select {
			case blocked := <-done:
				if blocked {
					t.Errorf("%s: waited for the seal", c.name)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%s: blocked on the fence", c.name)
			}
			f.End(1)
			continue
		}
		select {
		case <-done:
			t.Fatalf("%s: proceeded while the block was in flight", c.name)
		case <-time.After(20 * time.Millisecond): // parked
		}
		sealed.Store(true)
		f.End(1)
		select {
		case blocked := <-done:
			if !blocked {
				t.Errorf("%s: released without reporting the wait", c.name)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: never released", c.name)
		}
	}
}

// TestFenceZeroValueIsSingleSlot checks the slot: a second Begin waits
// for the first End, so two in-flight commits can never coexist.
func TestFenceZeroValueIsSingleSlot(t *testing.T) {
	var f parallel.PipelineFence
	var inFlight atomic.Int32
	var height atomic.Int64
	var wg sync.WaitGroup
	var mu sync.Mutex // serializes Begin calls so heights ascend
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mu.Lock()
			h := height.Add(1)
			f.Begin(h, writes("k"))
			mu.Unlock()
			if n := inFlight.Add(1); n != 1 {
				t.Errorf("%d commits in flight on the one-slot fence", n)
			}
			time.Sleep(time.Millisecond)
			inFlight.Add(-1)
			f.End(h)
		}()
	}
	wg.Wait()
	f.Drain()
}

// TestFencePipelineProperty is the randomized pipeline property test:
// blocks with random footprints stream through the fence the way the
// server drives it — the ordered thread validates block h (waiting on
// the fence for its touch keys), admits it, and a background applier
// seals and retires it — and the test asserts (a) a validation never
// proceeds while the in-flight block's writes intersect its footprint,
// (b) no two blocks are ever mid-apply at the same time, and (c) seals
// retire in height order.
func TestFencePipelineProperty(t *testing.T) {
	const (
		heights = 64
		keySpan = 12 // small key space => frequent intersections
	)
	rng := rand.New(rand.NewSource(7))
	var f parallel.PipelineFence

	type block struct {
		height int64
		fp     txn.Footprint
	}
	blocks := make([]block, heights)
	for i := range blocks {
		b := block{height: int64(i + 1)}
		for k := 0; k < 1+rng.Intn(3); k++ {
			b.fp.Writes = append(b.fp.Writes, string(rune('a'+rng.Intn(keySpan))))
		}
		for k := 0; k < rng.Intn(3); k++ {
			b.fp.Reads = append(b.fp.Reads, string(rune('a'+rng.Intn(keySpan))))
		}
		blocks[i] = b
	}
	intersects := func(touch []string, b block) bool {
		for _, w := range b.fp.Writes {
			for _, k := range touch {
				if k == w {
					return true
				}
			}
		}
		return false
	}

	var mu sync.Mutex
	applying := make(map[int64]block) // height -> block currently mid-apply
	var wg sync.WaitGroup
	var sealed atomic.Int64 // highest height whose End has returned
	blockedWaits := 0

	for _, b := range blocks {
		b := b
		// Drawn on the driver thread: the applier goroutines must not
		// share the unsynchronized rng.
		pause := time.Duration(rng.Intn(500)) * time.Microsecond
		touch := append(append([]string{}, b.fp.Writes...), b.fp.Reads...)
		// Validation of block h: on return no unsealed block may write
		// into its footprint. Only this thread admits blocks, so what
		// is applying now is all that can be.
		if _, blocked := f.WaitKeysReport([]txn.Footprint{b.fp}); blocked {
			blockedWaits++
		}
		mu.Lock()
		for h, other := range applying {
			if intersects(touch, other) {
				t.Errorf("height %d validated while intersecting height %d was mid-apply", b.height, h)
			}
		}
		mu.Unlock()
		f.Begin(b.height, []txn.Footprint{b.fp})
		if got := sealed.Load(); got != b.height-1 {
			t.Errorf("height %d admitted with height %d the last sealed", b.height, got)
		}
		mu.Lock()
		if len(applying) != 0 {
			t.Errorf("height %d admitted with %d blocks still mid-apply", b.height, len(applying))
		}
		applying[b.height] = b
		mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(pause)
			mu.Lock()
			delete(applying, b.height)
			mu.Unlock()
			if !sealed.CompareAndSwap(b.height-1, b.height) {
				t.Errorf("height %d sealed after height %d", b.height, sealed.Load())
			}
			f.End(b.height)
		}()
	}
	wg.Wait()
	f.Drain()
	if got := sealed.Load(); got != heights {
		t.Fatalf("sealed up to height %d, want %d", got, heights)
	}
	if n := f.InFlight(); n != 0 {
		t.Fatalf("%d blocks still in flight after drain", n)
	}
	if blockedWaits == 0 {
		t.Fatal("no validation ever intersected an in-flight block: the schedule exercised nothing")
	}
}

// TestMakespanWeighted pins the verdict-reuse cost model: fresh
// transactions weigh zero, so a group's chain costs only its stale
// members.
func TestMakespanWeighted(t *testing.T) {
	p := &parallel.Plan{Groups: [][]int{{0, 1, 2, 3}, {4, 5}, {6}}}
	stale := map[int]bool{1: true, 4: true, 5: true, 6: true}
	weight := func(i int) int {
		if stale[i] {
			return 1
		}
		return 0
	}
	// One worker (zero and below alike): total stale count.
	for _, w := range []int{-1, 0, 1} {
		if got := p.MakespanWeighted(w, weight); got != 4 {
			t.Errorf("%d-worker weighted makespan = %d, want 4", w, got)
		}
	}
	// Two workers: chains weigh {1, 2, 1} -> LPT makespan 2.
	if got := p.MakespanWeighted(2, weight); got != 2 {
		t.Errorf("2-worker weighted makespan = %d, want 2", got)
	}
	// Nil weight degenerates to plain Makespan.
	if got, want := p.MakespanWeighted(2, nil), p.Makespan(2); got != want {
		t.Errorf("nil-weight makespan = %d, want %d", got, want)
	}
}
