package shard

import (
	"fmt"
	"os"
	"reflect"
	"testing"

	"smartchaindb/internal/keys"
	"smartchaindb/internal/ledger"
	"smartchaindb/internal/txn"
	"smartchaindb/internal/validate"
	"smartchaindb/internal/workload"
)

// auctionOn builds a three-bidder auction whose transactions all land
// on shard home: the input-less REQUEST and CREATEs carry its shard
// hint, and the BIDs, the ACCEPT_BID and its children follow their
// inputs.
func auctionOn(t *testing.T, c *Cluster, home int) *workload.AuctionGroup {
	t.Helper()
	return auctionAcross(t, c, home, func(int) int { return home })
}

// auctionAcross is auctionOn with the REQUEST hinted to shard home and
// bidder i's CREATE (i from 1) to shard assetHome(i).
func auctionAcross(t *testing.T, c *Cluster, home int, assetHome func(i int) int) *workload.AuctionGroup {
	t.Helper()
	gen := workload.NewGenerator(41, c.Shard(0).Node.Escrow())
	data := func() map[string]any { return map[string]any{"capabilities": []any{"3d-printing", "cnc-milling"}} }
	hint := func(s int) map[string]any { return map[string]any{MetaShardHint: float64(s)} }
	sign := func(tx *txn.Transaction, by *keys.KeyPair) *txn.Transaction {
		if err := txn.Sign(tx, by); err != nil {
			t.Fatal(err)
		}
		return tx
	}
	grp := &workload.AuctionGroup{Requester: gen.Account(0)}
	grp.Request = sign(txn.NewRequest(grp.Requester.PublicBase58(), data(), hint(home)), grp.Requester)
	for i := 1; i <= 3; i++ {
		bidder := gen.Account(i)
		asset := sign(txn.NewCreate(bidder.PublicBase58(), data(), 1, hint(assetHome(i))), bidder)
		grp.Bidders = append(grp.Bidders, bidder)
		grp.Creates = append(grp.Creates, asset)
		grp.Bids = append(grp.Bids, gen.Bid(bidder, asset, grp.Request, 0))
	}
	grp.Accept = gen.Accept(grp.Requester, grp.Request, grp.Bids[0], grp.Bids[1:])
	return grp
}

// requireSettled fails unless the ACCEPT_BID committed on shard home
// and every child it owes committed there too: the escrow holds none of
// its outputs, its recovery record is done, and the directory homes
// each child on the parent's shard.
func requireSettled(t *testing.T, c *Cluster, grp *workload.AuctionGroup, home int) {
	t.Helper()
	st := c.Shard(home).Node.State()
	accept := grp.Accept
	if !st.IsCommitted(accept.ID) {
		t.Fatalf("ACCEPT_BID %.8s is not committed on shard %d", accept.ID, home)
	}
	held := 0
	for i := range accept.Outputs {
		if unspent(st, txn.OutputRef{TxID: accept.ID, Index: i}) {
			held++
		}
	}
	if held != 0 {
		t.Fatalf("escrow holds %d of %d of the ACCEPT_BID's outputs", held, len(accept.Outputs))
	}
	rec, err := st.RecoveryFor(accept.ID)
	if err != nil || rec.Status != ledger.RecoveryComplete || len(rec.Done) != len(grp.Bids) {
		t.Fatalf("recovery record: %+v, %v", rec, err)
	}
	for _, id := range append([]string{accept.ID}, rec.Done...) {
		if s, ok := c.Directory().Lookup(id); !ok || s != home {
			t.Fatalf("directory homes %.8s on %d (%v), want shard %d", id, s, ok, home)
		}
		if !st.IsCommitted(id) {
			t.Fatalf("%.8s is not committed on shard %d", id, home)
		}
	}
}

// An auction settles on a shard: the join of the shard's local block
// hands the ACCEPT_BID's children to the shard's own pool, and they
// commit in its next local blocks.
func TestAuctionSettlesOnShard(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			c := newTestCluster(t, Config{Shards: shards})
			grp := auctionOn(t, c, shards-1)
			ref := newRouteRef()
			ref.submitDrain(t, c, append([]*txn.Transaction{grp.Request}, grp.Creates...)...)
			ref.submitDrain(t, c, grp.Bids...)
			ref.submitDrain(t, c, grp.Accept)
			requireSettled(t, c, grp, shards-1)
			ref.check(t, c)
			ref.checkReopened(t, c)
		})
	}
}

// TestAuctionChildrenReplayAfterCrash cuts the home shard's WAL right
// after the ACCEPT_BID's block (and the recovery record its commit
// wrote), so none of the children survive; the reopened cluster replays
// the recovery log into the shard's pool and the next local blocks
// settle the auction.
func TestAuctionChildrenReplayAfterCrash(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Shards: 2, DataDir: dir}
	cfg.Node.NoSync = true
	c, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	grp := auctionOn(t, c, 1)
	submitDrain(t, c, append([]*txn.Transaction{grp.Request}, grp.Creates...)...)
	submitDrain(t, c, grp.Bids...)
	if errs := c.SubmitBatch([]*txn.Transaction{grp.Accept}); len(errs) != 0 {
		t.Fatalf("submit ACCEPT_BID: %v", errs)
	}
	if got := c.CommitLocal(1, 64); len(got) != 1 || got[0].ID != grp.Accept.ID {
		t.Fatalf("the ACCEPT_BID's block committed %d transactions", len(got))
	}
	st, err := os.Stat(walPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	cut := st.Size()
	if n := c.DrainLocal(64); n != len(grp.Bids) {
		t.Fatalf("drained %d children, want %d", n, len(grp.Bids))
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walPath(dir, 1), cut); err != nil {
		t.Fatal(err)
	}

	c, err = Open(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer c.Close()
	for i := range grp.Accept.Outputs {
		if !unspent(c.Shard(1).Node.State(), txn.OutputRef{TxID: grp.Accept.ID, Index: i}) {
			t.Fatalf("output %d of the ACCEPT_BID is spent after the cut: the WAL kept a child", i)
		}
	}
	if c.Recovered != 0 {
		t.Fatalf("Recovered = %d: the nested replay must not count as a 2PC resolution", c.Recovered)
	}
	if n := c.DrainLocal(64); n != len(grp.Bids) {
		t.Fatalf("drained %d replayed children, want %d", n, len(grp.Bids))
	}
	requireSettled(t, c, grp, 1)
}

// A BID or an ACCEPT_BID homed on another shard than its REQUEST is
// refused by the router, naming the shard the REQUEST lives on, where
// it was refused by BID.3 as a REQUEST that does not exist. Every
// other transaction routes as it did: as the same transaction with no
// references routes.
func TestRouteRefusesReferencesOffItsShard(t *testing.T) {
	c := newTestCluster(t, Config{Shards: 2})
	// Bidder 3's asset is homed on shard 1, the REQUEST on shard 0.
	grp := auctionAcross(t, c, 0, func(i int) int { return (i - 1) / 2 })
	escrow := c.Shard(0).Node.Escrow()
	routesAsBefore := func(tx *txn.Transaction) {
		t.Helper()
		got, err := c.RouteOf(tx)
		bare := tx.Clone()
		bare.Refs = nil
		want, _ := c.RouteOf(bare)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s %.8s routes %+v, %v; without its references %+v", tx.Operation, tx.ID, got, err, want)
		}
	}
	refused := func(tx *txn.Transaction, refShard, home int) {
		t.Helper()
		want := fmt.Sprintf("shard: %.8s references %.8s on shard %d but is homed on shard %d: a transaction and the transactions it references must be homed on one shard",
			tx.ID, grp.Request.ID, refShard, home)
		if _, err := c.RouteOf(tx); err == nil || err.Error() != want {
			t.Fatalf("%s %.8s: route error %v, want %q", tx.Operation, tx.ID, err, want)
		}
		if errs := c.SubmitBatch([]*txn.Transaction{tx}); errs[tx.ID] == nil || errs[tx.ID].Error() != want {
			t.Fatalf("submit %s: %v, want %q", tx.Operation, errs[tx.ID], want)
		}
	}

	setup := append([]*txn.Transaction{grp.Request}, grp.Creates...)
	for _, tx := range setup {
		routesAsBefore(tx)
	}
	submitDrain(t, c, setup...)
	refused(grp.Bids[2], 0, 1)
	for _, bid := range grp.Bids[:2] {
		routesAsBefore(bid)
	}
	submitDrain(t, c, grp.Bids[:2]...)

	gen := workload.NewGenerator(41, escrow)
	across, err := txn.NewAcceptBid(grp.Requester.PublicBase58(), escrow.PublicBase58(), grp.Request.ID, grp.Bids[0], grp.Bids[1:2], map[string]any{MetaShardHint: float64(1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Sign(across, escrow, grp.Requester); err != nil {
		t.Fatal(err)
	}
	refused(across, 0, 1)
	accept := gen.Accept(grp.Requester, grp.Request, grp.Bids[0], grp.Bids[1:2])
	routesAsBefore(accept)
	submitDrain(t, c, accept)
	st := c.Shard(0).Node.State()
	rec, err := st.RecoveryFor(accept.ID)
	if err != nil || rec.Status != ledger.RecoveryComplete {
		t.Fatalf("the ACCEPT_BID on one shard did not settle: %+v, %v", rec, err)
	}
	for _, id := range rec.Done { // its RETURN and TRANSFER children
		child, err := st.GetTx(id)
		if err != nil {
			t.Fatal(err)
		}
		routesAsBefore(child)
	}

	// A TRANSFER of the refused bidder's asset, and a WITHDRAW_BID of
	// a bid, route as before.
	asset := grp.Creates[2]
	move := txn.NewTransfer(asset.ID,
		[]txn.Spend{{Ref: txn.OutputRef{TxID: asset.ID, Index: 0}, Owners: []string{grp.Bidders[2].PublicBase58()}}},
		[]*txn.Output{{PublicKeys: []string{grp.Bidders[2].PublicBase58()}, Amount: 1}}, map[string]any{MetaShardHint: float64(0)})
	if err := txn.Sign(move, grp.Bidders[2]); err != nil {
		t.Fatal(err)
	}
	routesAsBefore(move)
	bid := grp.Bids[1]
	withdraw := &txn.Transaction{
		Operation: validate.OpWithdrawBid,
		Asset:     &txn.Asset{ID: bid.AssetID()},
		Inputs:    []*txn.Input{{Fulfills: &txn.OutputRef{TxID: bid.ID, Index: 0}, OwnersBefore: []string{escrow.PublicBase58(), grp.Bidders[1].PublicBase58()}}},
		Outputs:   []*txn.Output{{PublicKeys: []string{grp.Bidders[1].PublicBase58()}, Amount: 1, PrevOwners: []string{escrow.PublicBase58()}}},
		Refs:      []string{bid.ID},
		Version:   txn.Version,
	}
	if err := txn.Sign(withdraw, escrow, grp.Bidders[1]); err != nil {
		t.Fatal(err)
	}
	routesAsBefore(withdraw)
}
