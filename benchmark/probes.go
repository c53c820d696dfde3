package main

import (
	"fmt"
	"strings"
	"time"

	"smartchaindb/internal/docstore"
	"smartchaindb/internal/keys"
	"smartchaindb/internal/ledger"
	"smartchaindb/internal/mempool"
	"smartchaindb/internal/parallel"
	"smartchaindb/internal/schema"
	"smartchaindb/internal/server"
	"smartchaindb/internal/storage"
	"smartchaindb/internal/txn"
)

// runProbes replays the workload's first inputs through one layer's
// public function at a time, on one goroutine, each against the least
// state that makes the call succeed. A probe times a layer alone: no
// waiting, no contention, warm instruction caches. Its number says what
// the layer costs per call, not what it contributes to the window.
func runProbes(preload, inputs [][]byte, blockTxs int, m metrics) error {
	if len(inputs) == 0 {
		return fmt.Errorf("no inputs to probe")
	}
	n := float64(len(inputs))
	perTx := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / n }
	// fresh decodes the inputs again: every probe starts from objects
	// with no memoised encoding or verdict.
	fresh := func() ([]*txn.Transaction, error) { return decodeAll(inputs) }
	blocks := func(txs []*txn.Transaction) [][]*txn.Transaction {
		var out [][]*txn.Transaction
		for lo := 0; lo < len(txs); lo += blockTxs {
			out = append(out, txs[lo:min(lo+blockTxs, len(txs))])
		}
		return out
	}

	// txn: decode, cold canonical encoding.
	t0 := time.Now()
	txs, err := fresh()
	if err != nil {
		return err
	}
	m["txn.decode_us_per_tx"] = perTx(time.Since(t0))
	size := 0
	for _, raw := range inputs {
		size += len(raw)
	}
	m["txn.input_bytes_per_tx"] = float64(size) / n
	t0 = time.Now()
	for _, t := range txs {
		t.MarshalCanonical()
	}
	m["txn.canonical_us_per_tx"] = perTx(time.Since(t0))

	// keys: one ed25519 verification, then whole blocks through the
	// batch verifier on two workers.
	singles := 0
	payloads := make([][]byte, len(txs))
	for i, t := range txs {
		payloads[i] = t.SigningPayload()
	}
	t0 = time.Now()
	for i, t := range txs {
		in := t.Inputs[0]
		if strings.HasPrefix(in.Fulfillment, "ms:") {
			continue
		}
		if !keys.Verify(in.Fulfillment, in.OwnersBefore[0], payloads[i]) {
			return fmt.Errorf("keys probe: signature of %s does not verify", t.ID[:8])
		}
		singles++
	}
	m["keys.verify_us"] = ratio(float64(time.Since(t0).Nanoseconds())/1e3, float64(singles))
	if txs, err = fresh(); err != nil {
		return err
	}
	var tasks, dedup int
	scope := txn.NewCacheScope(true)
	t0 = time.Now()
	for _, blk := range blocks(txs) {
		errs, stats := scope.VerifyFulfillmentsBatch(blk, workers)
		if len(errs) != 0 {
			return fmt.Errorf("keys probe: batch verifier refused %d transactions", len(errs))
		}
		tasks += stats.Sig.Tasks
		dedup += stats.Sig.DedupHits
	}
	m["keys.verify_batch_us_per_tx"] = perTx(time.Since(t0))
	m["keys.sig_dedup_ratio"] = ratio(float64(dedup), float64(tasks))

	// schema.
	if txs, err = fresh(); err != nil {
		return err
	}
	schemas := schema.MustNewRegistry()
	t0 = time.Now()
	for _, t := range txs {
		if err := schemas.ValidateTx(t); err != nil {
			return fmt.Errorf("schema probe: %w", err)
		}
	}
	m["schema.validate_us_per_tx"] = perTx(time.Since(t0))

	// parallel: conflict planning per block.
	var groups, largest, nBlocks float64
	t0 = time.Now()
	for _, blk := range blocks(txs) {
		plan := parallel.BuildPlan(blk)
		groups += float64(len(plan.Groups))
		largest = max(largest, float64(plan.Largest()))
		nBlocks++
	}
	m["parallel.plan_us_per_tx"] = perTx(time.Since(t0))
	m["parallel.groups_per_block"] = groups / nBlocks
	m["parallel.largest_group"] = largest

	// server: the receiver-node validation of one transaction — schema
	// plus the operation's condition set — against the backing state.
	backing, err := decodeAll(preload)
	if err != nil {
		return err
	}
	node := server.NewNode(server.Config{ReservedSeed: reservedSeed})
	if err := commitAll(node.State(), backing); err != nil {
		return fmt.Errorf("server probe: %w", err)
	}
	if txs, err = fresh(); err != nil {
		return err
	}
	t0 = time.Now()
	for _, t := range txs {
		if err := node.ValidateTx(t); err != nil {
			return fmt.Errorf("server probe: ValidateTx: %w", err)
		}
	}
	m["server.validate_tx_us"] = perTx(time.Since(t0))

	// mempool: admission screen, packing and the committed sweep on a
	// bare pool (no semantic check behind it).
	pool := mempool.New(mempool.Config{BatchSize: blockTxs, Policy: mempool.PackMakespan, PackWorkers: workers})
	var admitD, packD, sweepD time.Duration
	for _, blk := range blocks(txs) {
		batch := make([]mempool.Tx, len(blk))
		for i, t := range blk {
			batch[i] = t
		}
		t0 = time.Now()
		res := pool.AdmitBatch(batch)
		admitD += time.Since(t0)
		if len(res.Admitted) != len(blk) {
			return fmt.Errorf("mempool probe: admitted %d of %d", len(res.Admitted), len(blk))
		}
		t0 = time.Now()
		packed := pool.Pack(blockTxs, workers)
		packD += time.Since(t0)
		t0 = time.Now()
		pool.RemoveCommitted(packed)
		sweepD += time.Since(t0)
	}
	m["mempool.admit_us_per_tx"] = perTx(admitD)
	m["mempool.pack_us_per_block"] = float64(packD.Nanoseconds()) / 1e3 / nBlocks
	m["mempool.sweep_us_per_block"] = float64(sweepD.Nanoseconds()) / 1e3 / nBlocks

	// ledger: the workload's blocks through BeginBlockCommit → Stage →
	// Seal on a bare memory state.
	st := ledger.NewStateWith(storage.NewMemory())
	st.SetCommitWorkers(workers)
	if backing, err = decodeAll(preload); err != nil {
		return err
	}
	if err := commitAll(st, backing); err != nil {
		return fmt.Errorf("ledger probe: %w", err)
	}
	var stageD, sealD time.Duration
	for _, blk := range blocks(txs) {
		p := st.BeginBlockCommit(st.Height() + 1)
		t0 = time.Now()
		p.Stage(blk)
		stageD += time.Since(t0)
		t0 = time.Now()
		committed, _, err := p.Seal()
		sealD += time.Since(t0)
		if err != nil || len(committed) != len(blk) {
			return fmt.Errorf("ledger probe: sealed %d of %d (%v)", len(committed), len(blk), err)
		}
	}
	m["ledger.stage_us_per_tx"] = perTx(stageD)
	m["ledger.seal_us_per_tx"] = perTx(sealD)

	// docstore: a collection loaded from the workload's transaction
	// documents, a hash index and an ordered index on it.
	col := docstore.NewStore().Collection("probe")
	col.CreateIndex("id")
	col.CreateOrderedIndex("seq")
	docs := make([]map[string]any, len(txs))
	for i, t := range txs {
		docs[i] = t.ToDoc()
		docs[i]["seq"] = float64(i)
	}
	t0 = time.Now()
	for i, t := range txs {
		if err := col.Insert(t.ID, docs[i]); err != nil {
			return fmt.Errorf("docstore probe: %w", err)
		}
	}
	m["docstore.put_us"] = perTx(time.Since(t0))
	t0 = time.Now()
	for _, t := range txs {
		if _, err := col.Get(t.ID); err != nil {
			return fmt.Errorf("docstore probe: %w", err)
		}
	}
	m["docstore.get_us"] = perTx(time.Since(t0))
	t0 = time.Now()
	for _, t := range txs {
		if len(col.Find(docstore.Eq("id", t.ID))) != 1 {
			return fmt.Errorf("docstore probe: point find missed %s", t.ID[:8])
		}
	}
	m["docstore.find_point_us"] = perTx(time.Since(t0))
	const span = 8
	t0 = time.Now()
	for i := range txs {
		lo := min(i, len(txs)-span)
		if lo < 0 {
			lo = 0
		}
		want := min(span, len(txs))
		if got := len(col.Find(docstore.And(docstore.Gte("seq", lo), docstore.Lt("seq", lo+span)))); got != want {
			return fmt.Errorf("docstore probe: range find returned %d of %d", got, want)
		}
	}
	m["docstore.find_range_us"] = perTx(time.Since(t0))
	return nil
}

// commitAll commits txs to st in blocks of 1024 through the public
// block commit.
func commitAll(st *ledger.State, txs []*txn.Transaction) error {
	for lo := 0; lo < len(txs); lo += 1024 {
		hi := min(lo+1024, len(txs))
		if committed, skipped := st.CommitBlock(txs[lo:hi]); len(committed) != hi-lo {
			return fmt.Errorf("backing block at %d: committed %d of %d (%d skipped)", lo, len(committed), hi-lo, len(skipped))
		}
	}
	return nil
}
