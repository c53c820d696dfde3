package ledger

import (
	"reflect"
	"strings"
	"testing"

	"smartchaindb/internal/docstore"
	"smartchaindb/internal/keys"
	"smartchaindb/internal/obs"
	"smartchaindb/internal/storage"
	"smartchaindb/internal/txn"
	"smartchaindb/internal/workload"
)

// hotPathFilters are the validator and marketplace query shapes the
// registry exists for; each must compile to a planned access on a
// fresh state and on a reopened one. (internal/query's
// TestEveryIndexHasAReader holds the readers themselves to the
// registry.)
func hotPathFilters(rfqID, owner string) map[string]struct {
	col    string
	filter docstore.Filter
} {
	return map[string]struct {
		col    string
		filter docstore.Filter
	}{
		"accept-for-rfq": {ColTransactions, docstore.And(
			docstore.Eq("operation", txn.OpAcceptBid),
			docstore.Contains("refs", rfqID))},
		"bids-for-rfq": {ColTransactions, docstore.And(
			docstore.Eq("operation", txn.OpBid),
			docstore.Contains("refs", rfqID))},
		"recent": {ColTransactions, docstore.And(
			docstore.Eq("operation", txn.OpRequest),
			docstore.Gt("metadata.timestamp", 0))},
		"price-band": {ColTransactions, docstore.And(
			docstore.Eq("operation", txn.OpBid),
			docstore.Gte("outputs.amount", 1),
			docstore.Lte("outputs.amount", 2))},
		"bids-by-account": {ColTransactions, docstore.And(
			docstore.Eq("operation", txn.OpBid),
			docstore.Eq("inputs.owners_before", owner))},
		"unspent-by-owner": {ColUTXOs, docstore.And(
			docstore.Eq("owner", owner),
			docstore.Eq("spent", false))},
		"amount-band": {ColUTXOs, docstore.And(
			docstore.Eq("spent", false),
			docstore.Gte("amount", 1))},
	}
}

// TestChainIndexRegistryPlansHotPaths: every registry-covered query
// shape must plan without a full scan on a fresh state.
func TestChainIndexRegistryPlansHotPaths(t *testing.T) {
	state := NewState()
	defer state.Close()
	for name, probe := range hotPathFilters("rfq", "owner") {
		ex := state.Store().Collection(probe.col).Explain(probe.filter)
		if strings.Contains(ex, "full-scan") {
			t.Errorf("%s not planned: %s", name, ex)
		}
	}
}

// TestSameShapePlansUseTheirOwnEstimates: the validator's two reads
// over one REQUEST — its ACCEPT_BID, then its locked BIDs — each plan
// on the estimates its own arguments give now. The first auction's
// reads run while the chain holds one auction's BIDs, where the
// operation and refs probes estimate alike; once many auctions' BIDs
// have committed, a locked-bid read must still drive on the REQUEST's
// references, never on every BID the chain holds.
func TestSameShapePlansUseTheirOwnEstimates(t *testing.T) {
	state := NewState()
	defer state.Close()
	gen := workload.NewGenerator(5, keys.DeterministicKeyPair(505))
	const auctions, bidders = 16, 8
	var rfqs []string
	for i := 0; i < auctions; i++ {
		g := gen.NewAuctionGroup(i*(bidders+1), workload.AuctionGroupSpec{BiddersPerAuction: bidders})
		for _, b := range [][]*txn.Transaction{append([]*txn.Transaction{g.Request}, g.Creates...), g.Bids} {
			if _, skipped, err := state.CommitBlockAt(state.Height()+1, b); err != nil || len(skipped) != 0 {
				t.Fatalf("commit: err=%v skipped=%v", err, skipped)
			}
		}
		rfqs = append(rfqs, g.Request.ID)
		if i == 0 {
			v := state.View()
			v.AcceptForRFQ(g.Request.ID)
			v.LockedBidsForRFQ(g.Request.ID)
		}
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
		if _, skipped, err := state.CommitBlockAt(int64(i+1), b); err != nil || len(skipped) != 0 {
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
		if strings.Contains(plans[name], "full-scan") {
			t.Fatalf("%s not planned before reopen: %s", name, plans[name])
		}
	}
	reg := obs.New()
	recent := func(s *State, op string) []map[string]any {
		t.Helper()
		s.Store().SetObs(reg)
		scans := reg.Counter("docstore.full_scans").Value()
		docs := s.Store().Collection(ColTransactions).FindOrdered(docstore.Eq("operation", op), "metadata.timestamp", true, 0)
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
	if _, skipped, err := state2.CommitBlockAt(wantHeight+1,
		append([]*txn.Transaction{g2.Request}, g2.Creates...)); err != nil || len(skipped) != 0 {
		t.Fatalf("post-reopen commit: err=%v skipped=%v", err, skipped)
	}
	reqs := recent(state2, txn.OpRequest)
	if len(reqs) != 2 || reqs[0]["id"] != g2.Request.ID {
		t.Errorf("recency walk after post-reopen commit = %d requests, want 2, the new one first", len(reqs))
	}
}
