// Procurement: the paper's motivating scenario — a manufacturing
// reverse auction run entirely with native declarative transactions
// through the client driver, against a 4-validator cluster. A buyer
// requests 3-D printing capacity, three suppliers bid with their
// capability assets, the buyer accepts one bid, and the nested
// transaction machinery settles the escrow automatically.
//
//	go run ./examples/procurement
package main

import (
	"fmt"
	"log"
	"time"

	"smartchaindb/internal/consensus"
	"smartchaindb/internal/driver"
	"smartchaindb/internal/keys"
	"smartchaindb/internal/query"
	"smartchaindb/internal/server"
	"smartchaindb/internal/simclock"
	"smartchaindb/internal/txn"
)

// simClock adapts the cluster's virtual clock to the driver.
type simClock struct{ s *simclock.Scheduler }

func (c simClock) After(d time.Duration, fn func()) { c.s.After(d, fn) }

func main() {
	cluster := server.NewCluster(server.ClusterConfig{
		Nodes: 4, Seed: 11, BlockInterval: 70 * time.Millisecond, MaxBlockTxs: 8, Pipelined: true,
	})
	escrow := cluster.ServerNode(0).Escrow()

	// Drivers submit into the cluster and hear about commits through
	// the cluster's commit hook.
	var drivers []*driver.Driver
	transport := driver.TransportFunc(func(t *txn.Transaction) error {
		cluster.Submit(t)
		return nil
	})
	newDriver := func(kp *keys.KeyPair) *driver.Driver {
		d, err := driver.New(driver.Config{
			Keypair:      kp,
			EscrowPub:    escrow.PublicBase58(),
			EscrowSigner: escrow,
			Transport:    transport,
			Clock:        simClock{cluster.Sched()},
			Timeout:      2 * time.Second,
		})
		if err != nil {
			log.Fatal(err)
		}
		drivers = append(drivers, d)
		return d
	}
	cluster.OnCommit(func(tx consensus.Tx, _ time.Duration) {
		for _, d := range drivers {
			d.NotifyCommitted(tx.Hash())
		}
	})

	buyer := newDriver(keys.MustGenerate())
	suppliers := []*driver.Driver{
		newDriver(keys.MustGenerate()),
		newDriver(keys.MustGenerate()),
		newDriver(keys.MustGenerate()),
	}

	// Submit and wait by running the simulation until the callback.
	waitCommit := func(label string, d *driver.Driver, t *txn.Transaction) {
		done := false
		if err := d.Submit(t, driver.Sync, func(r driver.Result) {
			if r.Status != driver.StatusCommitted {
				log.Fatalf("%s: %v (%v)", label, r.Status, r.Err)
			}
			done = true
		}); err != nil {
			log.Fatal(err)
		}
		for !done {
			if !cluster.Sched().Step() {
				log.Fatalf("%s: simulation drained before commit", label)
			}
		}
		fmt.Printf("  %-10s %s committed\n", label, t.ID[:12]+"...")
	}

	fmt.Println("Buyer publishes a request for 500 brackets (3-D printing + anodizing):")
	rfq, err := buyer.PrepareRequest(map[string]any{
		"capabilities": []any{"3d-printing", "anodizing"},
		"item":         "bracket-B7",
		"quantity":     500,
		"deadline":     "2026-08-01",
	}, nil)
	if err != nil {
		log.Fatal(err)
	}
	waitCommit("REQUEST", buyer, rfq)

	fmt.Println("\nSuppliers register capability assets and bid:")
	bids := make([]*txn.Transaction, 0, len(suppliers))
	for i, sup := range suppliers {
		asset, err := sup.PrepareCreate(map[string]any{
			"capabilities": []any{"3d-printing", "anodizing", "cnc-milling"},
			"plant":        fmt.Sprintf("plant-%d", i+1),
			"certified":    true,
		}, 1, nil)
		if err != nil {
			log.Fatal(err)
		}
		waitCommit("CREATE", sup, asset)
		bid, err := sup.PrepareBid(asset.ID,
			txn.Spend{Ref: txn.OutputRef{TxID: asset.ID, Index: 0}, Owners: []string{sup.Address()}},
			1, rfq.ID, map[string]any{"price": 900 + 50*i, "lead_days": 10 + i})
		if err != nil {
			log.Fatal(err)
		}
		waitCommit("BID", sup, bid)
		bids = append(bids, bid)
	}

	fmt.Println("\nBuyer accepts the cheapest bid; escrow settles automatically:")
	accept, err := buyer.PrepareAcceptBid(rfq.ID, bids[0], bids[1:], nil)
	if err != nil {
		log.Fatal(err)
	}
	waitCommit("ACCEPT_BID", buyer, accept)
	// Let the child TRANSFER/RETURNs commit. RunUntil returns with every
	// block the validators applied sealed, so the reads below see them.
	cluster.RunUntil(cluster.Sched().Now() + 10*time.Second)

	st := cluster.ServerNode(0).State()
	q := query.New(st)
	outcome, ok := q.AuctionOutcome(rfq.ID)
	if !ok {
		log.Fatal("no auction outcome")
	}
	fmt.Printf("\nOutcome: winner %s..., %d losing bids returned, settled=%v\n",
		outcome.Winner[:12], len(outcome.Losers), outcome.Settled)
	fmt.Printf("Buyer now holds the winning capability asset: %v\n",
		st.Balance(buyer.Address(), mustBidAsset(st, bids[0])) == 1)
}

func mustBidAsset(st interface {
	Tx(string) (txn.Stored, bool)
}, bid *txn.Transaction) string {
	t, ok := st.Tx(bid.ID)
	if !ok {
		log.Fatalf("bid %s is not committed", bid.ID)
	}
	asset, err := t.AssetID()
	if err != nil {
		log.Fatal(err)
	}
	return asset
}
