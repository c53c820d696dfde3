package server

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"smartchaindb/internal/consensus"
	"smartchaindb/internal/txn"
	"smartchaindb/internal/workload"
)

// runAuctionWorkload drives a deterministic multi-auction workload
// through a four-validator cluster of nodeCfg nodes.
func runAuctionWorkload(t *testing.T, nodeCfg Config) auctionRun {
	t.Helper()
	return runAuctionCluster(t, ClusterConfig{
		Nodes:         4,
		Seed:          777, // identical across runs: same scheduling, same workload
		BlockInterval: 30 * time.Millisecond,
		MaxBlockTxs:   8,
		Pipelined:     true,
		ChildDelay:    100 * time.Millisecond,
		Node:          nodeCfg,
	}, auctionLoad{genSeed: 31, auctions: 3, bidders: 4, payload: 96, gap: 2 * time.Millisecond}, nil)
}

// TestCommitDepth1Vs2Differential runs the identical auction workload
// with the synchronous commit (depth 1) and with the overlapped
// pipeline (depth 2: a block committing behind the next height's
// validation, plus per-group appliers and verdict reuse over the
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
	serial := runAuctionWorkload(t, base)
	async := base
	async.CommitDepth = 2
	async.CommitWorkers = 4
	async.CommitTimePerTx = time.Millisecond
	overlapped := runAuctionWorkload(t, async)
	requireSameCommitted(t, "depth 1", serial, "depth 2", overlapped)
	requireSameState(t, "depth 1", serial, "depth 2", overlapped)
}

// TestOpenNodeRefusesDepthAbove2 pins the CommitDepth domain: 0, 1 and
// 2 open; anything above is refused with an error naming the field and
// the two legal values — not clamped — and every constructor built on
// OpenNode surfaces that error.
func TestOpenNodeRefusesDepthAbove2(t *testing.T) {
	for _, depth := range []int{0, 1, 2} {
		n, err := OpenNode(Config{CommitDepth: depth})
		if err != nil {
			t.Fatalf("CommitDepth %d refused: %v", depth, err)
		}
		n.Close()
	}
	wantRefusal := func(where string, got any) {
		t.Helper()
		msg := fmt.Sprint(got)
		for _, want := range []string{"Config.CommitDepth is 3", "want 1 ", " or 2 "} {
			if !strings.Contains(msg, want) {
				t.Fatalf("%s: got %q, want a refusal containing %q", where, msg, want)
			}
		}
	}
	_, err := OpenNode(Config{CommitDepth: 3})
	wantRefusal("OpenNode", err)
	func() {
		defer func() { wantRefusal("NewCluster", recover()) }()
		NewCluster(ClusterConfig{Nodes: 1, Node: Config{CommitDepth: 3}})
	}()
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
		var assets []*txn.Transaction
		for i := 0; i < width; i++ {
			owner := nextAccount()
			asset := gen.Create(gen.Account(owner), []string{"cnc"}, 64)
			assets = append(assets, asset)
			disjoint = append(disjoint, transferOf(asset, owner, fmt.Sprintf("d%d-%d", round, i)))
		}
		if _, skipped := node.CommitNext(assets); len(skipped) != 0 {
			t.Fatalf("round %d: assets skipped: %v", round, skipped)
		}
		h := node.State().Height()
		// Block h: fresh CREATEs. The dependent batch spends their
		// outputs, so it must not validate before h seals.
		var block, dependent []consensus.Tx
		for i := 0; i < width; i++ {
			owner := nextAccount()
			asset := gen.Create(gen.Account(owner), []string{"cnc"}, 64)
			block = append(block, asset)
			dependent = append(dependent, transferOf(asset, owner, fmt.Sprintf("c%d-%d", round, i)))
		}

		join := node.CommitStart(h+1, block)
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
		node.CommitStart(h+2, dependent)()
		if got := node.State().Height(); got != h+2 {
			t.Fatalf("round %d: height %d after seal, want %d", round, got, h+2)
		}
	}
}
