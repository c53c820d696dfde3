package query

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strings"
	"testing"

	"smartchaindb/internal/docstore"
	"smartchaindb/internal/keys"
	"smartchaindb/internal/ledger"
	"smartchaindb/internal/obs"
	"smartchaindb/internal/txn"
	"smartchaindb/internal/workload"
)

// reader is one read of the chain state, run on its own.
type reader struct {
	name string
	run  func(e *Engine, v *ledger.StateView)
}

// notReads are the methods of Engine and StateView that read nothing:
// they hand out a raw collection handle.
var notReads = []string{"StateView.Collection"}

// marketReaders are every other method of Engine and StateView, over
// the marketplace's settled auction.
func marketReaders(m *marketplace) []reader {
	rfq, bid := m.settled.Request.ID, m.settled.Bids[0]
	pub, asset := m.settled.Bidders[0].PublicBase58(), bid.AssetID()
	ref := txn.OutputRef{TxID: bid.ID}
	return []reader{
		{"Engine.OpenRequests", func(e *Engine, _ *ledger.StateView) { e.OpenRequests() }},
		{"Engine.OpenRequestsWithCapability", func(e *Engine, _ *ledger.StateView) { e.OpenRequestsWithCapability("3d-printing") }},
		{"Engine.RecentOpenRequests", func(e *Engine, _ *ledger.StateView) { e.RecentOpenRequests(2) }},
		{"Engine.BidsForRequest", func(e *Engine, _ *ledger.StateView) { e.BidsForRequest(rfq) }},
		{"Engine.BidsByAccount", func(e *Engine, _ *ledger.StateView) { e.BidsByAccount(pub) }},
		{"Engine.BidsInPriceBand", func(e *Engine, _ *ledger.StateView) { e.BidsInPriceBand(1, 2) }},
		{"Engine.AuctionOutcome", func(e *Engine, _ *ledger.StateView) { e.AuctionOutcome(rfq) }},
		{"Engine.AssetProvenance", func(e *Engine, _ *ledger.StateView) { e.AssetProvenance(asset) }},
		{"Engine.HolderOf", func(e *Engine, _ *ledger.StateView) { e.HolderOf(asset) }},
		{"Engine.HoldingsInBand", func(e *Engine, _ *ledger.StateView) { e.HoldingsInBand(1, 5) }},
		{"Engine.AssetsWithCapability", func(e *Engine, _ *ledger.StateView) { e.AssetsWithCapability("3d-printing") }},
		{"Engine.OperationCounts", func(e *Engine, _ *ledger.StateView) { e.OperationCounts() }},
		{"StateView.Tx", func(_ *Engine, v *ledger.StateView) { v.Tx(bid.ID) }},
		{"StateView.GetTx", func(_ *Engine, v *ledger.StateView) { v.GetTx(bid.ID) }},
		{"StateView.IsCommitted", func(_ *Engine, v *ledger.StateView) { v.IsCommitted(bid.ID) }},
		{"StateView.TxCount", func(_ *Engine, v *ledger.StateView) { v.TxCount() }},
		{"StateView.Output", func(_ *Engine, v *ledger.StateView) { v.Output(ref) }},
		{"StateView.OutputKeyed", func(_ *Engine, v *ledger.StateView) { v.OutputKeyed(ref, ref.String()) }},
		{"StateView.Balance", func(_ *Engine, v *ledger.StateView) { v.Balance(pub, asset) }},
		{"StateView.LockedBidsForRFQ", func(_ *Engine, v *ledger.StateView) { v.LockedBidsForRFQ(m.open.Request.ID) }},
		{"StateView.Accepted", func(_ *Engine, v *ledger.StateView) { v.Accepted(rfq) }},
		{"StateView.AcceptForRFQ", func(_ *Engine, v *ledger.StateView) { v.AcceptForRFQ(rfq) }},
		{"StateView.RecoveryFor", func(_ *Engine, v *ledger.StateView) { v.RecoveryFor(m.settled.Accept.ID) }},
	}
}

var (
	unspent  = docstore.Where{Path: "spent", Value: false}
	isReq    = docstore.Where{Path: "operation", Value: txn.OpRequest}
	isBid    = docstore.Where{Path: "operation", Value: txn.OpBid}
	isCreate = docstore.Where{Path: "operation", Value: txn.OpCreate}
)

// indexReaders is one index as its readers see it: what it holds, and
// exactly the readers whose plans drive on it.
type indexReaders struct {
	index   string // collection.path
	where   docstore.Where
	readers []string
}

// registry is ledger.ChainIndexes as its readers see it.
var registry = []indexReaders{
	{"transactions.operation", docstore.Where{}, []string{
		"Engine.OpenRequests", "Engine.OpenRequestsWithCapability", "Engine.OperationCounts", "Engine.RecentOpenRequests"}},
	{"transactions.refs", docstore.Where{}, []string{
		"Engine.AuctionOutcome", "Engine.BidsForRequest", "StateView.AcceptForRFQ", "StateView.Accepted", "StateView.LockedBidsForRFQ"}},
	{"transactions.asset.data.capabilities", isReq, []string{"Engine.OpenRequestsWithCapability"}},
	{"transactions.metadata.timestamp", isReq, []string{"Engine.RecentOpenRequests"}},
	{"transactions.outputs.amount", isBid, []string{"Engine.BidsInPriceBand"}},
	{"transactions.inputs.owners_before", isBid, []string{"Engine.BidsByAccount"}},
	{"utxos.owner", unspent, []string{"StateView.Balance"}},
	{"utxos.asset_id", unspent, []string{"Engine.HolderOf"}},
	{"utxos.amount", unspent, []string{"Engine.HoldingsInBand"}},
	{"assets.data.capabilities", isCreate, []string{"Engine.AssetsWithCapability"}},
}

// orderedWalks counts the FindOrdered walks each reader makes, which
// use an index without compiling a plan.
var orderedWalks = map[string]uint64{"Engine.RecentOpenRequests": 1}

// TestEveryIndexHasAReader runs every read of Engine and StateView on
// its own over a marketplace and reads off which indexes its plans
// drove on (docstore.index_uses.*). No read may full-scan — one whose
// filter lacked a partial index's predicate would — every planned read
// drives on one index, and the indexes each reader drives on must be
// exactly the registry's: every index names its readers and what it
// holds, and an index no reader drives on, or one holding more than its
// readers ask for, fails here.
func TestEveryIndexHasAReader(t *testing.T) {
	m := newMarketplace(t)
	state := m.node.State()
	e := New(state)
	readers := marketReaders(m)

	covered := slices.Clone(notReads)
	for _, r := range readers {
		covered = append(covered, r.name)
	}
	for _, typ := range []reflect.Type{reflect.TypeOf(e), reflect.TypeOf(state.View())} {
		for i := 0; i < typ.NumMethod(); i++ {
			name := typ.Elem().Name() + "." + typ.Method(i).Name
			if !slices.Contains(covered, name) {
				t.Errorf("%s is not among the readers this test runs", name)
			}
		}
	}

	used := map[string][]string{} // index -> readers
	for _, r := range readers {
		reg := obs.New()
		state.Store().SetObs(reg)
		r.run(e, state.View())
		snap := reg.Snapshot()
		if n := snap.Counters["docstore.full_scans"]; n != 0 {
			t.Errorf("%s full-scanned %d times", r.name, n)
		}
		var uses uint64
		for name, n := range snap.Counters {
			if index, ok := strings.CutPrefix(name, "docstore.index_uses."); ok && n > 0 {
				used[index] = append(used[index], r.name)
				uses += n
			}
		}
		if plans := snap.Counters["docstore.plan_cache.misses"]; uses != plans+orderedWalks[r.name] {
			t.Errorf("%s compiled %d plans and walked %d ordered indexes, but used indexes %d times", r.name, plans, orderedWalks[r.name], uses)
		}
	}
	state.Store().SetObs(nil)

	var declared []string
	for _, ix := range registry {
		declared = append(declared, ix.index)
		slices.Sort(used[ix.index])
		if !slices.Equal(used[ix.index], ix.readers) {
			t.Errorf("%s is used by %v, the registry names %v", ix.index, used[ix.index], ix.readers)
		}
	}
	for index, rs := range used {
		if !slices.Contains(declared, index) {
			t.Errorf("%s is used by %v but not in the registry", index, rs)
		}
	}
	var specs []string
	for _, spec := range ledger.ChainIndexes() {
		index := spec.Collection + "." + spec.Path
		specs = append(specs, index)
		i := slices.IndexFunc(registry, func(r indexReaders) bool { return r.index == index })
		switch {
		case i < 0:
			t.Errorf("ledger.ChainIndexes declares %s, which no reader uses", index)
		case spec.Where != registry[i].where:
			t.Errorf("ledger.ChainIndexes declares %s where %v, its readers ask only for %v", index, spec.Where, registry[i].where)
		}
	}
	for _, index := range declared {
		if !slices.Contains(specs, index) {
			t.Errorf("%s is in the registry but not in ledger.ChainIndexes", index)
		}
	}
}

// pinnedState is a chain state of n UTXOs of one owner and asset, all
// but the last 50 spent (the 50 hold 1..50 shares), beside n/4 TRANSFERs
// newer than every REQUEST, n/4 BIDs priced out of the band the test
// asks for, 24 open REQUESTs and four BIDs at price 1 — written
// straight into the collections, a block per phase, and sealed past the
// retention window so the sweep has run.
func pinnedState(t *testing.T, n int, requests, bids []*txn.Transaction) *ledger.State {
	t.Helper()
	state := ledger.NewState()
	t.Cleanup(func() { state.Close() })
	store, bk := state.Store(), state.Store().Backend()
	utxos, txs := store.Collection(ledger.ColUTXOs), store.Collection(ledger.ColTransactions)
	h := bk.Visible()
	block := func(fn func()) {
		h++
		bk.BeginBlock(h)
		fn()
		bk.SealBlock(h)
		store.SweepIndexes()
	}
	insert := func(c *docstore.Collection, key string, doc map[string]any) {
		if err := c.Insert(key, doc); err != nil {
			t.Fatal(err)
		}
	}
	block(func() {
		for i := 0; i < n; i++ {
			id := fmt.Sprintf("tx%06d", i)
			insert(utxos, id+":0", map[string]any{
				"transaction_id": id, "output_index": 0.0, "owner": []any{"whale"},
				"amount": float64(1 + i%50), "asset_id": "gold", "spent": false, "spent_by": "",
			})
		}
		for _, tx := range append(slices.Clone(requests), bids...) {
			insert(txs, tx.ID, tx.ToDoc())
		}
		for i := 0; i < n/4; i++ {
			insert(txs, fmt.Sprintf("transfer%06d", i), map[string]any{"operation": txn.OpTransfer,
				"metadata": map[string]any{"timestamp": float64(1_000_000 + i)}, "outputs": []any{map[string]any{"amount": 1.0}}})
			insert(txs, fmt.Sprintf("bid%06d", i), map[string]any{"operation": txn.OpBid,
				"metadata": map[string]any{"timestamp": float64(1_000_000 + i)}, "outputs": []any{map[string]any{"amount": float64(100 + i%7)}}})
		}
	})
	block(func() {
		for i := 0; i < n-50; i++ {
			key := fmt.Sprintf("tx%06d:0", i)
			old, _ := utxos.Borrow(key)
			spent := maps.Clone(old)
			spent["spent"], spent["spent_by"] = true, "spender"
			if err := utxos.Upsert(key, spent); err != nil {
				t.Fatal(err)
			}
		}
	})
	for i := int64(0); i < 8; i++ {
		block(func() {})
	}
	return state
}

// TestReadersCostTheResultNotTheState pins the set-valued reads at two
// state sizes, 1 k and 64 k mostly spent outputs: the index keys a
// read's plans materialise (docstore.candidates) and the probes they
// make (docstore.index_probes) are the same at both sizes and at most
// twice the documents the read returns or sums. Spent outputs, other
// operations' documents and out-of-band values are not in the
// indexes the reads use, and a band is one bounded range.
func TestReadersCostTheResultNotTheState(t *testing.T) {
	gen := workload.NewGenerator(7, keys.DeterministicKeyPair(700))
	var requests, bids []*txn.Transaction
	for i := 0; i < 24; i++ {
		requests = append(requests, gen.Request(gen.Account(i), []string{"cnc"}, 0))
	}
	for i := 0; i < 4; i++ {
		bidder := gen.Account(100 + i)
		bids = append(bids, gen.Bid(bidder, gen.Create(bidder, []string{"cnc"}, 0), requests[i], 0))
	}
	reads := []struct {
		name string
		run  func(e *Engine, v *ledger.StateView) int // documents returned or summed
		want int
	}{
		{"HolderOf", func(e *Engine, _ *ledger.StateView) int { return int(e.HolderOf("gold")["whale"]) }, 50 * 51 / 2},
		{"HoldingsInBand", func(e *Engine, _ *ledger.StateView) int { return len(e.HoldingsInBand(10, 19)) }, 10},
		{"BidsInPriceBand", func(e *Engine, _ *ledger.StateView) int { return len(e.BidsInPriceBand(1, 1)) }, 4},
		{"RecentOpenRequests(20)", func(e *Engine, _ *ledger.StateView) int { return len(e.RecentOpenRequests(20)) }, 20},
	}
	// HolderOf sums shares; the documents behind the sum are the 50
	// unspent outputs.
	docs := map[string]int{"HolderOf": 50}

	work := map[int]map[string][2]uint64{}
	for _, n := range []int{1 << 10, 64 << 10} {
		state := pinnedState(t, n, requests, bids)
		e := New(state)
		work[n] = map[string][2]uint64{}
		for _, r := range reads {
			reg := obs.New()
			state.Store().SetObs(reg)
			if got := r.run(e, state.View()); got != r.want {
				t.Fatalf("%d outputs: %s = %d, want %d", n, r.name, got, r.want)
			}
			snap := reg.Snapshot().Counters
			if snap["docstore.full_scans"] != 0 {
				t.Errorf("%d outputs: %s full-scanned", n, r.name)
			}
			cand, probes := snap["docstore.candidates"], snap["docstore.index_probes"]
			result := r.want
			if d, ok := docs[r.name]; ok {
				result = d
			}
			if cand+probes > uint64(2*result) {
				t.Errorf("%d outputs: %s materialised %d candidates and made %d probes for %d documents", n, r.name, cand, probes, result)
			}
			work[n][r.name] = [2]uint64{cand, probes}
		}
	}
	if small, large := work[1<<10], work[64<<10]; !maps.Equal(small, large) {
		t.Errorf("(candidates, probes) per read differ with state size:\n  1 k: %v\n 64 k: %v", small, large)
	}
}
