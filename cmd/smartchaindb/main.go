// Command smartchaindb runs a simulated SmartchainDB validator cluster
// and drives a complete reverse-auction through it, printing the
// transaction life cycle (Figure 4) step by step: schema validation,
// semantic validation, consensus commit, and the nested ACCEPT_BID
// pipeline with its child RETURN transactions.
//
// Usage:
//
//	smartchaindb -nodes 4 -bidders 3 -seed 7
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"smartchaindb/internal/keys"
	"smartchaindb/internal/obs"
	"smartchaindb/internal/query"
	"smartchaindb/internal/server"
	"smartchaindb/internal/shard"
	"smartchaindb/internal/txn"
	"smartchaindb/internal/workflow"
)

func main() {
	var (
		nodes        = flag.Int("nodes", 4, "validator count")
		bidders      = flag.Int("bidders", 3, "bidders in the auction")
		seed         = flag.Int64("seed", 7, "simulation seed")
		datadir      = flag.String("datadir", "", "persist each validator's chain state under this directory (WAL + segments per node); empty keeps state in memory")
		packing      = flag.String("packing", "makespan", "block packing policy off the footprint-indexed mempool: makespan (conflict-aware) or fifo (arrival order)")
		admitBatch   = flag.Int("admitbatch", 64, "admission batch size: arrivals buffered while the receiver is busy join the next CheckTx batch")
		admitWorkers = flag.Int("admitworkers", 4, "CheckTx-stage admission workers per node (<2 = one worker)")
		valWorkers   = flag.Int("valworkers", 4, "DeliverTx-stage block-validation workers per node (<2 = one worker)")
		commitW      = flag.Int("commitworkers", 4, "commit-stage per-conflict-group apply workers per node (<2 = one worker)")
		commitDepth  = flag.Int("commitdepth", 2, "where a decided block commits: 1 joins each commit at once (synchronous); 2 overlaps block h's commit with height h+1's validation behind the footprint fence")
		opsAddr      = flag.String("opsaddr", "", "serve the ops endpoint (/metrics, /traces, /debug/pprof) on this address, e.g. localhost:6060 or :0; /metrics labels validator 0's registry node-0 and, with -shards, each shard's registry shard-<id>")
		shards       = flag.Int("shards", 0, "after the auction, demo a horizontally sharded cluster with this many footprint-routed shards: a local create on shard 0 then a cross-shard 2PC migration (0 disables)")
	)
	flag.Parse()
	if _, err := server.ParsePacking(*packing); err != nil {
		fmt.Fprintln(os.Stderr, "smartchaindb:", err)
		os.Exit(2)
	}
	if err := server.CheckCommitDepth(*commitDepth); err != nil {
		fmt.Fprintln(os.Stderr, "smartchaindb:", err)
		os.Exit(2)
	}

	// Observability is per-component: validator 0 gets a live registry,
	// and with -shards every shard gets its own, so one /metrics scrape
	// keeps them distinguishable by label. Everything else keeps the
	// no-op build.
	var reg *obs.Registry
	var shardRegs []*obs.Registry
	if *opsAddr != "" {
		reg = obs.New()
		regs := map[string]*obs.Registry{"node-0": reg}
		if *shards > 1 {
			shardRegs = make([]*obs.Registry, *shards)
			for i := range shardRegs {
				shardRegs[i] = obs.New()
				regs[fmt.Sprintf("shard-%02d", i)] = shardRegs[i]
			}
		}
		ops, err := obs.ServeLabeled(*opsAddr, regs)
		must(err)
		defer ops.Close()
		fmt.Printf("ops endpoint: http://%s/metrics\n", ops.Addr())
	}

	cluster := server.NewCluster(server.ClusterConfig{
		Nodes:         *nodes,
		Seed:          *seed,
		BlockInterval: 70 * time.Millisecond,
		MaxBlockTxs:   8,
		Pipelined:     true,
		DataDir:       *datadir,
		Packing:       *packing,
		ObsFor: func(node int) *obs.Registry {
			if node == 0 {
				return reg
			}
			return nil
		},
		Node: server.Config{
			ParallelWorkers:  *valWorkers,
			AdmissionWorkers: *admitWorkers,
			MempoolBatch:     *admitBatch,
			CommitWorkers:    *commitW,
			CommitDepth:      *commitDepth,
		},
	})
	defer cluster.Close()
	if *datadir != "" {
		h := cluster.ServerNode(0).State().Height()
		fmt.Printf("persistent storage: %s (validator 0 recovered at height %d)\n", *datadir, h)
	}
	escrow := cluster.ServerNode(0).Escrow()
	fmt.Printf("SmartchainDB cluster: %d validators, escrow account %s\n\n",
		*nodes, escrow.PublicBase58()[:12]+"...")

	submit := func(label string, t *txn.Transaction, expected int) {
		cluster.Submit(t)
		got := cluster.RunUntilCommitted(expected, cluster.Sched().Now()+time.Hour)
		if got < expected {
			fmt.Fprintf(os.Stderr, "%s did not commit (%d of %d)\n", label, got, expected)
			os.Exit(1)
		}
		lat, _ := cluster.Latency(t.ID)
		fmt.Printf("  %-12s %s  committed in %6.1f ms (simulated)\n", label, t.ID[:12]+"...", float64(lat)/float64(time.Millisecond))
	}

	// The buyer publishes a request for quotes.
	requester := keys.MustGenerate()
	rfq := txn.NewRequest(requester.PublicBase58(),
		map[string]any{"capabilities": []any{"3d-printing", "cnc-milling"}, "item": "bracket", "quantity": 500}, nil)
	must(txn.Sign(rfq, requester))
	fmt.Println("Phase 1 — REQUEST and bidder assets:")
	committed := 1
	submit("REQUEST", rfq, committed)

	// Providers mint their capability assets.
	type bidderState struct {
		kp    *keys.KeyPair
		asset *txn.Transaction
		bid   *txn.Transaction
	}
	states := make([]*bidderState, *bidders)
	for i := range states {
		kp := keys.MustGenerate()
		asset := txn.NewCreate(kp.PublicBase58(),
			map[string]any{"capabilities": []any{"3d-printing", "cnc-milling", "anodizing"}, "plant": i}, 1, nil)
		must(txn.Sign(asset, kp))
		states[i] = &bidderState{kp: kp, asset: asset}
		committed++
		submit("CREATE", asset, committed)
	}

	fmt.Println("\nPhase 2 — sealed bids (assets move into escrow):")
	for _, st := range states {
		bid := txn.NewBid(st.kp.PublicBase58(), st.asset.ID,
			txn.Spend{Ref: txn.OutputRef{TxID: st.asset.ID, Index: 0}, Owners: []string{st.kp.PublicBase58()}},
			1, escrow.PublicBase58(), rfq.ID, map[string]any{"price": 1000})
		must(txn.Sign(bid, st.kp))
		st.bid = bid
		committed++
		submit("BID", bid, committed)
	}

	fmt.Println("\nPhase 3 — nested ACCEPT_BID (non-locking commit + child pipeline):")
	win := states[0].bid
	losing := make([]*txn.Transaction, 0, len(states)-1)
	for _, st := range states[1:] {
		losing = append(losing, st.bid)
	}
	accept, err := txn.NewAcceptBid(requester.PublicBase58(), escrow.PublicBase58(), rfq.ID, win, losing, nil)
	must(err)
	must(txn.Sign(accept, escrow, requester))
	committed++
	submit("ACCEPT_BID", accept, committed)
	// The children (1 TRANSFER + n-1 RETURNs) commit asynchronously.
	committed += len(states)
	cluster.RunUntilCommitted(committed, cluster.Sched().Now()+time.Hour)
	cluster.RunUntil(cluster.Sched().Now() + time.Second)

	parent, err := cluster.ServerNode(0).State().GetTx(accept.ID)
	must(err)
	fmt.Printf("  children:    %d committed (1 TRANSFER to requester, %d RETURNs)\n",
		len(parent.Children), len(states)-1)

	fmt.Println("\nFinal state (validator 0):")
	st := cluster.ServerNode(0).State()
	fmt.Printf("  requester owns winning asset: %v\n",
		st.Balance(requester.PublicBase58(), states[0].asset.ID) == 1)
	for i, s := range states[1:] {
		fmt.Printf("  losing bidder %d refunded:     %v\n", i+1,
			st.Balance(s.kp.PublicBase58(), s.asset.ID) == 1)
	}
	rec, err := st.RecoveryFor(accept.ID)
	must(err)
	fmt.Printf("  recovery log status:          %s\n", rec.Status)

	q := query.New(st)
	fmt.Printf("  open requests remaining:      %d\n", len(q.OpenRequests()))
	for _, childID := range parent.Children {
		child, ok := st.Tx(childID)
		if !ok {
			must(&txn.InputDoesNotExistError{TxID: childID})
		}
		op, err := child.Operation()
		must(err)
		if op == txn.OpTransfer {
			ops, _, err := workflow.Trace(st, childID)
			must(err)
			must(workflow.ReverseAuction().ValidSequence(ops))
			fmt.Printf("  winning asset workflow:       %v\n", ops)
			break
		}
	}
	sum := cluster.Summarize()
	fmt.Printf("\n%d transactions committed, mean latency %.1f ms, %.1f tps (simulated)\n",
		sum.Committed, float64(sum.MeanLatency)/float64(time.Millisecond), sum.Throughput)

	if *shards > 1 {
		shardDir := ""
		if *datadir != "" {
			shardDir = filepath.Join(*datadir, "shards")
		}
		shardDemo(*shards, shardDir, shardRegs)
	}
}

// shardDemo runs the horizontal-sharding walkthrough: an asset is
// created on shard 0 through the zero-coordination local path, then a
// hinted transfer migrates it to shard 1 through the cross-shard
// two-phase commit. With a data directory every shard keeps its own
// WAL under it and a second run recovers what the first committed.
// Each shard's registry (when -opsaddr is live) records its side under
// its own label.
func shardDemo(shards int, dataDir string, regs []*obs.Registry) {
	storage := "ledger and mempool (in memory; -datadir gives each a WAL)"
	if dataDir != "" {
		storage = "ledger, mempool, and WAL under " + dataDir
	}
	fmt.Printf("\nSharded cluster: %d footprint-routed shards, each with its own %s\n", shards, storage)
	sc, err := shard.Open(shard.Config{Shards: shards, DataDir: dataDir, ObsFor: func(i int) *obs.Registry {
		if i < len(regs) {
			return regs[i]
		}
		return nil
	}})
	must(err)
	defer sc.Close()
	if dataDir != "" {
		for i := 0; i < sc.Shards(); i++ {
			fmt.Printf("  shard %d recovered at height %d\n", i, sc.Shard(i).Node.State().Height())
		}
	}

	owner := keys.MustGenerate()
	asset := txn.NewCreate(owner.PublicBase58(),
		map[string]any{"capabilities": []any{"3d-printing"}, "item": "migrating-asset"}, 1,
		map[string]any{shard.MetaShardHint: float64(0)})
	must(txn.Sign(asset, owner))
	must(sc.Submit(asset))
	sc.DrainLocal(8)
	fmt.Printf("  CREATE   %s  committed on shard 0 (local block, zero coordination)\n", asset.ID[:12]+"...")

	buyer := keys.MustGenerate()
	cross := txn.NewTransfer(asset.ID,
		[]txn.Spend{{Ref: txn.OutputRef{TxID: asset.ID, Index: 0}, Owners: []string{owner.PublicBase58()}}},
		[]*txn.Output{{PublicKeys: []string{buyer.PublicBase58()}, Amount: 1}},
		map[string]any{shard.MetaShardHint: float64(1)})
	must(txn.Sign(cross, owner))
	must(sc.Submit(cross))
	home, _ := sc.Directory().Lookup(cross.ID)
	fmt.Printf("  TRANSFER %s  migrated to shard %d (cross-shard 2PC: hold, stage, prepare, decide, apply)\n",
		cross.ID[:12]+"...", home)
	for i := 0; i < sc.Shards(); i++ {
		fmt.Printf("  shard %d height: %d\n", i, sc.Shard(i).Node.State().Height())
	}
}

func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "smartchaindb:", err)
		os.Exit(1)
	}
}
