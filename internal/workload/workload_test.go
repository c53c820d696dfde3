package workload

import (
	"testing"

	"smartchaindb/internal/keys"
	"smartchaindb/internal/server"
	"smartchaindb/internal/txn"
)

func TestDeterministicAccounts(t *testing.T) {
	esc := keys.DeterministicKeyPair(1)
	a := NewGenerator(5, esc)
	b := NewGenerator(5, esc)
	if a.Account(3).PublicBase58() != b.Account(3).PublicBase58() {
		t.Error("same seed should give same accounts")
	}
	if a.Account(3).PublicBase58() == a.Account(4).PublicBase58() {
		t.Error("different indices should differ")
	}
	if a.escrow.PublicBase58() != esc.PublicBase58() {
		t.Error("escrow mismatch")
	}
}

func TestCapabilityStringsSize(t *testing.T) {
	g := NewGenerator(7, keys.DeterministicKeyPair(1))
	for _, total := range []int{100, 1090, 1740} {
		caps := g.CapabilityStrings(4, total)
		if len(caps) != 4 {
			t.Fatalf("len = %d", len(caps))
		}
		sum := 0
		for _, c := range caps {
			sum += len(c)
		}
		if sum < total*8/10 || sum > total*12/10 {
			t.Errorf("total %d: rendered %d bytes, want within 20%%", total, sum)
		}
	}
	// Degenerate inputs do not panic.
	if got := g.CapabilityStrings(0, 10); len(got) != 1 {
		t.Errorf("n=0 -> %d strings", len(got))
	}
}

func TestPayloadSizeGrowsWireSize(t *testing.T) {
	g := NewGenerator(7, keys.DeterministicKeyPair(1))
	owner := g.Account(0)
	small := g.Create(owner, []string{"cnc"}, 100)
	large := g.Create(owner, []string{"cnc"}, 1740)
	smallLen := len(small.MarshalCanonical())
	largeLen := len(large.MarshalCanonical())
	if largeLen <= smallLen+1000 {
		t.Errorf("payload padding ineffective: %d vs %d bytes", smallLen, largeLen)
	}
}

func TestAuctionGroupAppliesCleanly(t *testing.T) {
	node := server.NewNode(server.Config{ReservedSeed: 31})
	g := NewGenerator(11, node.Escrow())
	grp := g.NewAuctionGroup(0, AuctionGroupSpec{BiddersPerAuction: 4, PayloadBytes: 256})

	if len(grp.Creates) != 4 || len(grp.Bids) != 4 {
		t.Fatalf("group shape: %d creates, %d bids", len(grp.Creates), len(grp.Bids))
	}
	apply := func(txs ...*txn.Transaction) {
		t.Helper()
		for _, tx := range txs {
			if err := node.Apply(tx); err != nil {
				t.Fatalf("apply %s: %v", tx.Operation, err)
			}
		}
	}
	apply(grp.Request)
	apply(grp.Creates...)
	apply(grp.Bids...)
	apply(grp.Accept)
	// Auction settled: 1 request + 4 creates + 4 bids + 1 accept +
	// 4 children (1 transfer + 3 returns) = 14 transactions.
	if got := node.State().TxCount(); got != 14 {
		t.Errorf("tx count = %d, want 14", got)
	}
}

func TestGroupsRespectMixRatios(t *testing.T) {
	g := NewGenerator(13, keys.DeterministicKeyPair(2))
	mix := Mix{Creates: 40, Bids: 40, Requests: 4, Accepts: 4}
	groups := g.Groups(mix, 128)
	if len(groups) != 4 {
		t.Fatalf("groups = %d", len(groups))
	}
	for _, grp := range groups {
		if len(grp.Bids) != 10 {
			t.Errorf("bids per group = %d, want 10", len(grp.Bids))
		}
		if grp.Accept == nil {
			t.Error("group missing accept")
		}
	}
	// Distinct groups use distinct accounts.
	if groups[0].Requester.PublicBase58() == groups[1].Requester.PublicBase58() {
		t.Error("groups share requester accounts")
	}
}

func TestPaperMixAndScale(t *testing.T) {
	m := PaperMix()
	if total := m.Creates + m.Bids + m.Requests + m.Accepts; total != 110000 {
		t.Errorf("paper mix total = %d", total)
	}
	s := m.Scale(1000)
	if s.Creates != 50 || s.Bids != 50 || s.Requests != 5 || s.Accepts != 5 {
		t.Errorf("scaled = %+v", s)
	}
	if got := m.Scale(1); got != m {
		t.Error("scale 1 should be identity")
	}
	tiny := Mix{Creates: 1, Bids: 1, Requests: 1, Accepts: 1}.Scale(10)
	if tiny.Creates != 1 {
		t.Error("scale floors at 1")
	}
}

func TestGroupsEmptyMix(t *testing.T) {
	g := NewGenerator(13, keys.DeterministicKeyPair(2))
	if got := g.Groups(Mix{}, 0); got != nil {
		t.Errorf("empty mix should give no groups: %v", got)
	}
}
