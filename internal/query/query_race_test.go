package query

import (
	"sync"
	"testing"

	"smartchaindb/internal/keys"
	"smartchaindb/internal/ledger"
	"smartchaindb/internal/txn"
	"smartchaindb/internal/workload"
)

// TestQueriesRaceBlockCommits drives the full planned query surface
// concurrently with block commits — the scenario the planner exists
// for: analytics readers must stay off the collection locks the commit
// writer holds. The backend follows SCDB_BACKEND, so the disk-race
// gate re-runs this over the WAL engine. The race detector is the
// primary assertion; semantically, results must describe committed
// transactions only.
func TestQueriesRaceBlockCommits(t *testing.T) {
	state := ledger.NewState()
	defer state.Close()
	e := New(state)
	gen := workload.NewGenerator(7, keys.DeterministicKeyPair(7001))

	// Seed one settled and one open auction so every query has matter.
	seed := gen.NewAuctionGroup(0, workload.AuctionGroupSpec{BiddersPerAuction: 3})
	open := gen.NewAuctionGroup(100, workload.AuctionGroupSpec{BiddersPerAuction: 2})
	// commitAt commits txs as the block at h, staging off the state
	// lock as a node's commit does.
	commitAt := func(h int64, txs []*txn.Transaction) (map[string]error, error) {
		p := state.BeginBlockCommit(h)
		p.Stage(txs)
		_, skipped, err := p.Seal()
		return skipped, err
	}
	height := int64(0)
	commit := func(txs ...*txn.Transaction) {
		height++
		if skipped, err := commitAt(height, txs); err != nil || len(skipped) != 0 {
			t.Fatalf("seed commit: err=%v skipped=%v", err, skipped)
		}
	}
	commit(append(append([]*txn.Transaction{seed.Request}, seed.Creates...), open.Request)...)
	commit(append(seed.Bids, open.Creates...)...)
	commit(open.Bids...)
	commit(seed.Accept)

	const groups = 6
	var wg sync.WaitGroup
	wg.Add(1 + 3)
	go func() {
		defer wg.Done()
		h := height
		for i := 0; i < groups; i++ {
			g := gen.NewAuctionGroup(1000+100*i, workload.AuctionGroupSpec{BiddersPerAuction: 2})
			blocks := [][]*txn.Transaction{
				append([]*txn.Transaction{g.Request}, g.Creates...),
				g.Bids,
				{g.Accept},
			}
			for _, b := range blocks {
				h++
				if skipped, err := commitAt(h, b); err != nil || len(skipped) != 0 {
					t.Errorf("commit h=%d: err=%v skipped=%v", h, err, skipped)
					return
				}
			}
		}
	}()
	for r := 0; r < 3; r++ {
		go func() {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				for _, rfq := range e.OpenRequests() {
					if rfq.Operation != txn.OpRequest {
						t.Errorf("open request with operation %s", rfq.Operation)
						return
					}
				}
				e.RecentOpenRequests(4)
				for _, b := range e.BidsForRequest(seed.Request.ID) {
					if !b.HasRef(seed.Request.ID) {
						t.Errorf("bid without the RFQ reference")
						return
					}
				}
				for _, b := range e.BidsInPriceBand(1, 1) {
					if b.Operation != txn.OpBid {
						t.Errorf("price band returned %s", b.Operation)
						return
					}
				}
				e.HolderOf(seed.Bids[0].AssetID())
				e.OperationCounts()
				if out, ok := e.AuctionOutcome(seed.Request.ID); !ok || out.WinningBid == "" {
					t.Error("settled outcome lost mid-commit")
					return
				}
			}
		}()
	}
	wg.Wait()

	// Quiesced: the accepted auctions are closed, the rest stay open.
	openReqs := e.OpenRequests()
	if len(openReqs) != 1 || openReqs[0].ID != open.Request.ID {
		t.Errorf("open requests after churn = %d", len(openReqs))
	}
	if counts := e.OperationCounts(); counts[txn.OpAcceptBid] != 1+groups {
		t.Errorf("accepts = %d, want %d", counts[txn.OpAcceptBid], 1+groups)
	}
}
