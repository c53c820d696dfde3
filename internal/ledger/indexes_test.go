package ledger

import (
	"reflect"
	"testing"

	"smartchaindb/internal/docstore"
	"smartchaindb/internal/keys"
	"smartchaindb/internal/obs"
	"smartchaindb/internal/storage"
	"smartchaindb/internal/txn"
	"smartchaindb/internal/workload"
)

// hotPathFilters are the validator and marketplace query shapes the
// registry exists for, written as their readers write them, each with
// the index it must drive on, on a fresh state and on a reopened one.
// (internal/query's TestEveryIndexHasAReader holds the readers
// themselves to the registry.)
func hotPathFilters(rfqID, owner string) map[string]struct {
	col, drive string
	filter     docstore.Filter
} {
	return map[string]struct {
		col, drive string
		filter     docstore.Filter
	}{
		"accept-for-rfq": {ColTransactions, "refs", docstore.And(
			docstore.Contains("refs", rfqID),
			docstore.Eq("operation", txn.OpAcceptBid))},
		"bids-for-rfq": {ColTransactions, "refs", docstore.And(
			docstore.Contains("refs", rfqID),
			docstore.Eq("operation", txn.OpBid))},
		"recent": {ColTransactions, "metadata.timestamp", docstore.And(
			docstore.Gte("metadata.timestamp", 0),
			docstore.Eq("operation", txn.OpRequest))},
		"price-band": {ColTransactions, "outputs.amount", docstore.And(
			docstore.Gte("outputs.amount", 1),
			docstore.Lte("outputs.amount", 2),
			docstore.Eq("operation", txn.OpBid))},
		"bids-by-account": {ColTransactions, "inputs.owners_before", docstore.And(
			docstore.Eq("inputs.owners_before", owner),
			docstore.Eq("operation", txn.OpBid))},
		"unspent-by-owner": {ColUTXOs, "owner", docstore.And(
			docstore.Eq("owner", owner),
			docstore.Eq("spent", false))},
		"amount-band": {ColUTXOs, "amount", docstore.And(
			docstore.Gte("amount", 1),
			docstore.Eq("spent", false))},
	}
}

// TestChainIndexRegistryPlansHotPaths: every registry-covered query
// shape must drive on its index on a fresh state.
func TestChainIndexRegistryPlansHotPaths(t *testing.T) {
	state := NewState()
	defer state.Close()
	for name, probe := range hotPathFilters("rfq", "owner") {
		if plan := state.Store().Collection(probe.col).Plan(probe.filter); plan.FullScan() || plan.Path != probe.drive {
			t.Errorf("%s plans %s, want it to drive on %s", name, plan, probe.drive)
		}
	}
}

// TestLockedBidReadDrivesOnRefs: the validator's locked-bid read over
// one REQUEST drives on the REQUEST's references, so once many
// auctions' BIDs have committed it still materialises only that
// REQUEST's BIDs, never every BID the chain holds.
func TestLockedBidReadDrivesOnRefs(t *testing.T) {
	state := NewState()
	defer state.Close()
	gen := workload.NewGenerator(5, keys.DeterministicKeyPair(505))
	const auctions, bidders = 16, 8
	var rfqs []string
	for i := 0; i < auctions; i++ {
		g := gen.NewAuctionGroup(i*(bidders+1), workload.AuctionGroupSpec{BiddersPerAuction: bidders})
		for _, b := range [][]*txn.Transaction{append([]*txn.Transaction{g.Request}, g.Creates...), g.Bids} {
			if _, skipped, err := commitAt(state, state.Height()+1, b); err != nil || len(skipped) != 0 {
				t.Fatalf("commit: err=%v skipped=%v", err, skipped)
			}
		}
		rfqs = append(rfqs, g.Request.ID)
	}

	reg := obs.New()
	state.Store().SetObs(reg)
	candidates := reg.Counter("docstore.candidates")
	for _, rfq := range rfqs {
		v := state.View()
		if _, ok := v.AcceptForRFQ(rfq); ok {
			t.Fatal("an ACCEPT_BID was found where none committed")
		}
		before := candidates.Value()
		if got := len(v.LockedBidsForRFQ(rfq)); got != bidders {
			t.Fatalf("locked bids = %d, want %d", got, bidders)
		}
		if n := candidates.Value() - before; n > bidders {
			t.Errorf("the locked-bid read of a REQUEST with %d BIDs materialised %d candidates (the chain holds %d BIDs)", bidders, n, auctions*bidders)
		}
	}
}

// TestChainIndexesRebuiltOnReopen commits a marketplace workload on
// the disk engine, reopens it, and checks the registry rebuilt every
// index over the WAL-recovered documents: identical planned results
// and plans, and an intact ordered recency walk over the REQUESTs the
// timestamp index holds — walked off the index, not a scan. A recency
// walk over the BIDs, which that index does not hold, falls back to the
// scan and agrees across the reopen too.
func TestChainIndexesRebuiltOnReopen(t *testing.T) {
	dir := t.TempDir()
	open := func() *State {
		eng, err := storage.Open(dir, storage.Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		return NewStateWith(eng)
	}
	state := open()
	gen := workload.NewGenerator(11, keys.DeterministicKeyPair(404))
	g := gen.NewAuctionGroup(0, workload.AuctionGroupSpec{BiddersPerAuction: 3})
	blocks := [][]*txn.Transaction{
		append([]*txn.Transaction{g.Request}, g.Creates...),
		g.Bids,
		{g.Accept},
	}
	for i, b := range blocks {
		if _, skipped, err := commitAt(state, int64(i+1), b); err != nil || len(skipped) != 0 {
			t.Fatalf("commit %d: err=%v skipped=%v", i, err, skipped)
		}
	}
	owner := g.Bidders[0].PublicBase58()
	probes := hotPathFilters(g.Request.ID, owner)
	want := make(map[string][]map[string]any)
	plans := make(map[string]string)
	for name, probe := range probes {
		c := state.Store().Collection(probe.col)
		want[name] = c.Find(probe.filter)
		plans[name] = c.Explain(probe.filter)
		if plan := c.Plan(probe.filter); plan.FullScan() || plan.Path != probe.drive {
			t.Fatalf("%s plans %s before reopen, want it to drive on %s", name, plan, probe.drive)
		}
	}
	reg := obs.New()
	recent := func(s *State, op string) []map[string]any {
		t.Helper()
		s.Store().SetObs(reg)
		scans := reg.Counter("docstore.full_scans").Value()
		docs := s.Store().Collection(ColTransactions).SnapshotAt(s.Height()).BorrowFindOrdered(docstore.Eq("operation", op), "metadata.timestamp", true, 0)
		if scanned := reg.Counter("docstore.full_scans").Value() != scans; scanned != (op != txn.OpRequest) {
			t.Errorf("recency walk over %s scanned the collection: %v", op, scanned)
		}
		return docs
	}
	wantRecent, wantBids := recent(state, txn.OpRequest), recent(state, txn.OpBid)
	if len(wantRecent) != 1 || len(wantBids) != 3 {
		t.Fatalf("recency walks found %d requests and %d bids, want 1 and 3", len(wantRecent), len(wantBids))
	}
	wantHeight := state.Height()
	if err := state.Close(); err != nil {
		t.Fatal(err)
	}

	state2 := open()
	defer state2.Close()
	if got := state2.Height(); got != wantHeight {
		t.Fatalf("reopened height = %d, want %d", got, wantHeight)
	}
	for name, probe := range probes {
		c := state2.Store().Collection(probe.col)
		if got := c.Explain(probe.filter); got != plans[name] {
			t.Errorf("%s plan changed across reopen: %s -> %s", name, plans[name], got)
		}
		if got := c.Find(probe.filter); !reflect.DeepEqual(got, want[name]) {
			t.Errorf("%s results changed across reopen (%d vs %d docs)", name, len(got), len(want[name]))
		}
	}
	if got := recent(state2, txn.OpRequest); !reflect.DeepEqual(got, wantRecent) {
		t.Error("ordered recency walk changed across reopen")
	}
	if got := recent(state2, txn.OpBid); !reflect.DeepEqual(got, wantBids) {
		t.Error("recency walk over bids changed across reopen")
	}
	// And the rebuilt indexes keep following new commits.
	g2 := gen.NewAuctionGroup(50, workload.AuctionGroupSpec{BiddersPerAuction: 2})
	if _, skipped, err := commitAt(state2, wantHeight+1,
		append([]*txn.Transaction{g2.Request}, g2.Creates...)); err != nil || len(skipped) != 0 {
		t.Fatalf("post-reopen commit: err=%v skipped=%v", err, skipped)
	}
	reqs := recent(state2, txn.OpRequest)
	if len(reqs) != 2 || reqs[0]["id"] != g2.Request.ID {
		t.Errorf("recency walk after post-reopen commit = %d requests, want 2, the new one first", len(reqs))
	}
}
