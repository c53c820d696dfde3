package server

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"smartchaindb/internal/consensus"
	"smartchaindb/internal/txn"
	"smartchaindb/internal/workload"
)

// runAuctionWorkload drives a deterministic multi-auction workload
// through a cluster and returns the sorted committed hashes plus every
// validator's state fingerprint.
func runAuctionWorkload(t *testing.T, nodeCfg Config) (committed []string, fingerprints []string) {
	t.Helper()
	const auctions, bidders = 3, 4
	cluster := NewCluster(ClusterConfig{
		Nodes:         4,
		Seed:          777, // identical across runs: same scheduling, same workload
		BlockInterval: 30 * time.Millisecond,
		MaxBlockTxs:   8,
		Pipelined:     true,
		ChildDelay:    100 * time.Millisecond,
		Node:          nodeCfg,
	})
	defer cluster.Close()
	cluster.OnCommit(func(tx consensus.Tx, _ time.Duration) {
		committed = append(committed, tx.Hash())
	})
	gen := workload.NewGenerator(31, cluster.ServerNode(0).Escrow())
	groups := make([]*workload.AuctionGroup, 0, auctions)
	base := 0
	for i := 0; i < auctions; i++ {
		groups = append(groups, gen.NewAuctionGroup(base, workload.AuctionGroupSpec{
			BiddersPerAuction: bidders, PayloadBytes: 96,
		}))
		base += bidders + 1
	}
	at := cluster.Sched().Now()
	count, children := 0, 0
	submit := func(tx *txn.Transaction) {
		cluster.SubmitAt(at, tx)
		at += 2 * time.Millisecond
		count++
	}
	settle := func() {
		cluster.RunUntil(cluster.Sched().Now() + time.Second)
		at = cluster.Sched().Now()
	}
	for _, g := range groups {
		submit(g.Request)
		for _, c := range g.Creates {
			submit(c)
		}
	}
	cluster.RunUntilCommitted(count, at+time.Hour)
	settle()
	for _, g := range groups {
		for _, b := range g.Bids {
			submit(b)
		}
	}
	cluster.RunUntilCommitted(count, at+time.Hour)
	settle()
	for _, g := range groups {
		submit(g.Accept)
		children += len(g.Bids)
	}
	if got := cluster.RunUntilCommitted(count+children, at+time.Hour); got != count+children {
		t.Fatalf("committed %d of %d", got, count+children)
	}
	cluster.RunUntil(cluster.Sched().Now() + time.Second)
	sort.Strings(committed)
	for i := 0; i < 4; i++ {
		// Drain any in-flight background commit before snapshotting.
		cluster.ServerNode(i).DrainCommits()
		fingerprints = append(fingerprints, cluster.ServerNode(i).State().Fingerprint())
	}
	return committed, fingerprints
}

// TestCommitDepth1Vs2Differential runs the identical auction workload
// with the synchronous commit (depth 1) and with the full overlapped
// pipeline (depth 2 + per-group appliers + verdict reuse over the
// commit fence) and requires byte-identical committed sets and chain
// state. Overlap may reshape wall-clock, never state.
func TestCommitDepth1Vs2Differential(t *testing.T) {
	base := Config{
		ReceiverTime:        2 * time.Millisecond,
		ValidationTimePerTx: time.Millisecond,
		ParallelWorkers:     4,
		AdmissionWorkers:    4,
		MempoolBatch:        16,
	}
	syncCommitted, syncFPs := runAuctionWorkload(t, base)

	async := base
	async.CommitDepth = 2
	async.CommitWorkers = 4
	async.CommitTimePerTx = time.Millisecond
	asyncCommitted, asyncFPs := runAuctionWorkload(t, async)

	if len(syncCommitted) == 0 {
		t.Fatal("sync run committed nothing")
	}
	if len(syncCommitted) != len(asyncCommitted) {
		t.Fatalf("committed counts differ: sync=%d async=%d", len(syncCommitted), len(asyncCommitted))
	}
	for i := range syncCommitted {
		if syncCommitted[i] != asyncCommitted[i] {
			t.Fatalf("committed sets differ at %d: %.8s vs %.8s", i, syncCommitted[i], asyncCommitted[i])
		}
	}
	for i, fp := range syncFPs {
		if fp != syncFPs[0] {
			t.Fatalf("sync node %d diverged", i)
		}
	}
	for i, fp := range asyncFPs {
		if fp != asyncFPs[0] {
			t.Fatalf("async node %d diverged", i)
		}
	}
	if syncFPs[0] != asyncFPs[0] {
		t.Fatal("overlapped commit pipeline changed committed state")
	}
}

// TestCommitFenceStress races height h+1 reads against block h's
// in-flight appliers: while a block commits asynchronously through
// CommitStart, a footprint-disjoint batch must validate concurrently
// with the appliers, and a batch spending the in-flight block's
// outputs must wait on the fence and then validate cleanly against
// the sealed state — validating it early would see missing inputs.
// Under -race this is the commit-fence stress test of the race gate.
func TestCommitFenceStress(t *testing.T) {
	node := NewNode(Config{ReservedSeed: 99, ParallelWorkers: 4, CommitWorkers: 4})
	defer node.Close()
	gen := workload.NewGenerator(5, node.Escrow())

	const width = 24
	acct := 0
	nextAccount := func() int { acct++; return acct }
	// transferOf builds a signed transfer spending asset's output 0.
	transferOf := func(asset *txn.Transaction, owner int, tag string) *txn.Transaction {
		kp := gen.Account(owner)
		tr := txn.NewTransfer(asset.ID,
			[]txn.Spend{{Ref: txn.OutputRef{TxID: asset.ID, Index: 0}, Owners: []string{kp.PublicBase58()}}},
			[]*txn.Output{{PublicKeys: []string{gen.Account(nextAccount()).PublicBase58()}, Amount: 1}},
			map[string]any{"tag": tag})
		if err := txn.Sign(tr, kp); err != nil {
			t.Fatal(err)
		}
		return tr
	}

	for round := 0; round < 4; round++ {
		// Disjoint batch: transfers of assets committed before round h.
		var disjoint []consensus.Tx
		for i := 0; i < width; i++ {
			owner := nextAccount()
			asset := gen.Create(gen.Account(owner), []string{"cnc"}, 64)
			if err := node.State().CommitTx(asset); err != nil {
				t.Fatal(err)
			}
			disjoint = append(disjoint, transferOf(asset, owner, fmt.Sprintf("d%d-%d", round, i)))
		}
		// Block h: fresh CREATEs. The dependent batch spends their
		// outputs, so it must not validate before h seals.
		var block, dependent []consensus.Tx
		for i := 0; i < width; i++ {
			owner := nextAccount()
			asset := gen.Create(gen.Account(owner), []string{"cnc"}, 64)
			block = append(block, asset)
			dependent = append(dependent, transferOf(asset, owner, fmt.Sprintf("c%d-%d", round, i)))
		}

		join := node.CommitStart(int64(round*2+1), block)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			if bad := node.ValidateBlock(disjoint); len(bad) != 0 {
				t.Errorf("round %d: disjoint batch invalidated during overlap: %d rejected", round, len(bad))
			}
		}()
		go func() {
			defer wg.Done()
			if bad := node.ValidateBlock(dependent); len(bad) != 0 {
				t.Errorf("round %d: dependent batch saw pre-seal state: %d rejected", round, len(bad))
			}
		}()
		wg.Wait()
		join()
		// Seal the dependents as the next block so every round starts
		// from quiesced state.
		node.CommitStart(int64(round*2+2), dependent)()
		if got := node.State().Height(); got != int64(round*2+2) {
			t.Fatalf("round %d: height %d after seal, want %d", round, got, round*2+2)
		}
	}
}
