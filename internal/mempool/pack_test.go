package mempool

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"smartchaindb/internal/parallel"
	"smartchaindb/internal/txn"
)

// chained builds a transaction joined to a conflict chain via a shared
// write key.
func chained(hash, chainKey string) *fakeTx {
	return &fakeTx{hash: hash, fp: txn.Footprint{Writes: []string{"tx:" + hash, chainKey}}}
}

// makespanOf list-schedules a block's conflict-group sizes on w
// workers — the metric Pack(…, w) minimizes, restated over fake
// footprints the way parallel.Plan.Makespan states it over real ones.
func makespanOf(block []Tx, w int) int {
	fps := make([]txn.Footprint, len(block))
	for i, tx := range block {
		fps[i] = ForTransaction(tx)
	}
	groups := parallel.GroupFootprints(fps)
	if w <= 1 {
		return len(block)
	}
	sizes := make([]int, len(groups))
	for i, g := range groups {
		sizes[i] = len(g)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	if w > len(sizes) {
		w = len(sizes)
	}
	if w == 0 {
		return 0
	}
	load := make([]int, w)
	for _, sz := range sizes {
		least := 0
		for i := 1; i < w; i++ {
			if load[i] < load[least] {
				least = i
			}
		}
		load[least] += sz
	}
	max := 0
	for _, l := range load {
		if l > max {
			max = l
		}
	}
	return max
}

func fillPool(t *testing.T, policy Policy, workers int, txs []Tx) *Pool {
	t.Helper()
	p := New(Config{Policy: policy, PackWorkers: workers})
	res := p.AdmitBatch(txs)
	if len(res.Admitted) != len(txs) {
		t.Fatalf("admitted %d of %d", len(res.Admitted), len(txs))
	}
	return p
}

// interleavedWorkload mixes one long conflict chain into independent
// traffic, the arrival pattern where FIFO packs badly.
func interleavedWorkload(n int, chainEvery int) []Tx {
	txs := make([]Tx, 0, n)
	for i := 0; i < n; i++ {
		h := fmt.Sprintf("t%04d", i)
		if chainEvery > 0 && i%chainEvery == 0 {
			txs = append(txs, chained(h, "chain:hot"))
		} else {
			txs = append(txs, indep(h))
		}
	}
	return txs
}

func TestPackFIFOKeepsArrivalPrefix(t *testing.T) {
	txs := interleavedWorkload(32, 3)
	p := fillPool(t, PackFIFO, 4, txs)
	block := p.Pack(10, 4)
	if len(block) != 10 {
		t.Fatalf("block size = %d", len(block))
	}
	for i, tx := range block {
		if tx.Hash() != txs[i].Hash() {
			t.Fatalf("FIFO order broken at %d", i)
		}
	}
}

func TestPackMakespanBeatsFIFOOnChainedTraffic(t *testing.T) {
	const n, blockTxs, workers = 256, 64, 8
	for _, chainEvery := range []int{4, 2} { // 25% and 50% of traffic on one chain
		txs := interleavedWorkload(n, chainEvery)
		fifo := fillPool(t, PackFIFO, workers, txs).Pack(blockTxs, workers)
		packed := fillPool(t, PackMakespan, workers, txs).Pack(blockTxs, workers)
		if len(fifo) != blockTxs || len(packed) != blockTxs {
			t.Fatalf("chain every %d: block sizes: fifo=%d packed=%d", chainEvery, len(fifo), len(packed))
		}
		fm, pm := makespanOf(fifo, workers), makespanOf(packed, workers)
		if pm >= fm {
			t.Fatalf("chain every %d: makespan not improved: fifo=%d packed=%d", chainEvery, fm, pm)
		}
	}
}

func TestPackMakespanTwoBigChainsStayBalanced(t *testing.T) {
	// Two 20-tx chains, interleaved arrivals, block of 16 on 4 workers.
	// FIFO picks 8+8 (makespan 8); the greedy pass must not dump its
	// leftover budget into one chain (12+4 would schedule at 12).
	txs := make([]Tx, 0, 40)
	for i := 0; i < 40; i++ {
		txs = append(txs, chained(fmt.Sprintf("t%04d", i), fmt.Sprintf("chain:%d", i%2)))
	}
	const blockTxs, workers = 16, 4
	fifo := fillPool(t, PackFIFO, workers, txs).Pack(blockTxs, workers)
	packed := fillPool(t, PackMakespan, workers, txs).Pack(blockTxs, workers)
	fm, pm := makespanOf(fifo, workers), makespanOf(packed, workers)
	if pm > fm {
		t.Fatalf("leftover budget unbalanced: packed makespan %d > fifo %d", pm, fm)
	}
}

func TestPackMakespanNeverWorseThanFIFO(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 32 + rng.Intn(200)
		blockTxs := 8 + rng.Intn(n)
		workers := 2 + rng.Intn(8)
		chains := 1 + rng.Intn(5)
		txs := make([]Tx, 0, n)
		for i := 0; i < n; i++ {
			h := fmt.Sprintf("t%04d", i)
			if rng.Float64() < 0.4 {
				txs = append(txs, chained(h, fmt.Sprintf("chain:%d", rng.Intn(chains))))
			} else {
				txs = append(txs, indep(h))
			}
		}
		fifo := fillPool(t, PackFIFO, workers, txs).Pack(blockTxs, workers)
		packed := fillPool(t, PackMakespan, workers, txs).Pack(blockTxs, workers)
		if len(fifo) != len(packed) {
			t.Fatalf("trial %d: block sizes differ: %d vs %d", trial, len(fifo), len(packed))
		}
		fm, pm := makespanOf(fifo, workers), makespanOf(packed, workers)
		if pm > fm {
			t.Fatalf("trial %d (n=%d block=%d w=%d): packed makespan %d > fifo %d",
				trial, n, blockTxs, workers, pm, fm)
		}
	}
}

func TestPackMakespanPreservesChainPrefixes(t *testing.T) {
	// A pick from a conflict chain must bring every earlier chain
	// member along: later members may depend on earlier ones.
	const n, blockTxs, workers = 128, 32, 4
	txs := interleavedWorkload(n, 3)
	p := fillPool(t, PackMakespan, workers, txs)
	block := p.Pack(blockTxs, workers)
	picked := make(map[string]bool, len(block))
	for _, tx := range block {
		picked[tx.Hash()] = true
	}
	// Once one chain member is skipped, no later member may appear.
	skipped := false
	for i := 0; i < n; i += 3 { // the chain members, in arrival order
		h := fmt.Sprintf("t%04d", i)
		if !picked[h] {
			skipped = true
		} else if skipped {
			t.Fatalf("chain member %s picked after an earlier member was skipped", h)
		}
	}
}

func TestPackLivenessOldestChainNeverStarved(t *testing.T) {
	// The pool's oldest transaction sits on a huge conflict chain;
	// plenty of fresh independent work competes. The chain's head must
	// still be packed.
	txs := make([]Tx, 0, 300)
	for i := 0; i < 100; i++ {
		txs = append(txs, chained(fmt.Sprintf("c%03d", i), "chain:old"))
	}
	for i := 0; i < 200; i++ {
		txs = append(txs, indep(fmt.Sprintf("f%03d", i)))
	}
	p := fillPool(t, PackMakespan, 4, txs)
	block := p.Pack(64, 4)
	found := false
	for _, tx := range block {
		if tx.Hash() == "c000" {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("oldest pending transaction starved by fresh independent work")
	}
}

func TestPackDeterministic(t *testing.T) {
	txs := interleavedWorkload(200, 5)
	a := fillPool(t, PackMakespan, 8, txs).Pack(64, 8)
	b := fillPool(t, PackMakespan, 8, txs).Pack(64, 8)
	if len(a) != len(b) {
		t.Fatal("sizes differ")
	}
	for i := range a {
		if a[i].Hash() != b[i].Hash() {
			t.Fatalf("pick %d differs: %s vs %s", i, a[i].Hash(), b[i].Hash())
		}
	}
}

func TestPackEverythingFitsKeepsArrivalOrder(t *testing.T) {
	txs := interleavedWorkload(20, 4)
	p := fillPool(t, PackMakespan, 4, txs)
	block := p.Pack(64, 4)
	if len(block) != 20 {
		t.Fatalf("block = %d", len(block))
	}
	for i, tx := range block {
		if tx.Hash() != txs[i].Hash() {
			t.Fatalf("order changed at %d despite full fit", i)
		}
	}
}

func TestPackSequentialWorkersFallsBackToFIFO(t *testing.T) {
	txs := interleavedWorkload(64, 2)
	p := fillPool(t, PackMakespan, 1, txs)
	block := p.Pack(16, 1)
	for i, tx := range block {
		if tx.Hash() != txs[i].Hash() {
			t.Fatalf("w=1 must be FIFO; differs at %d", i)
		}
	}
}
