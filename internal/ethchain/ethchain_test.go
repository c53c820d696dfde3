package ethchain

import (
	"testing"
	"time"

	"smartchaindb/internal/minisol"
)

func deployMarketplace(t *testing.T, c *Chain) string {
	t.Helper()
	src, err := ContractSource("marketplace")
	if err != nil {
		t.Fatal(err)
	}
	tx := &Tx{Kind: KindDeploy, From: "deployer", Source: src, Contract: "Marketplace", Nonce: 1}
	r := c.Execute(tx)
	if r.Failed() {
		t.Fatalf("deploy: %v", r.Err)
	}
	return r.ContractAddr
}

func caps(ss ...string) *minisol.Array {
	arr := &minisol.Array{}
	for _, s := range ss {
		arr.Elems = append(arr.Elems, minisol.Str(s))
	}
	return arr
}

func call(t *testing.T, c *Chain, addr, from, fn string, args ...minisol.Value) *Receipt {
	t.Helper()
	tx := &Tx{Kind: KindCall, From: from, To: addr, Fn: fn, Args: args, GasLimit: 500_000_000, Nonce: uint64(len(c.receipts) + 1)}
	return c.Execute(tx)
}

func TestNativeTransfer(t *testing.T) {
	c := NewChain()
	c.Fund("alice", 100)
	tx := &Tx{Kind: KindNativeTransfer, From: "alice", To: "bob", Amount: 40, Nonce: 1}
	r := c.Execute(tx)
	if r.Failed() || r.GasUsed != NativeTransferGas {
		t.Fatalf("receipt = %+v", r)
	}
	if c.Balance("alice") != 60 || c.Balance("bob") != 40 {
		t.Errorf("balances = %d / %d", c.Balance("alice"), c.Balance("bob"))
	}
	// Insufficient balance fails but is still included.
	overdraft := &Tx{Kind: KindNativeTransfer, From: "alice", To: "bob", Amount: 1000, Nonce: 2}
	r = c.Execute(overdraft)
	if !r.Failed() {
		t.Error("overdraft should fail")
	}
	if _, ok := c.Receipt(overdraft.Hash()); !ok {
		t.Error("failed tx should still have a receipt")
	}
}

func TestFig2TokenTransferVsNative(t *testing.T) {
	c := NewChain()
	src, err := ContractSource("token")
	if err != nil {
		t.Fatal(err)
	}
	deploy := &Tx{Kind: KindDeploy, From: "minter", Source: src, Contract: "Token", Nonce: 1}
	dr := c.Execute(deploy)
	if dr.Failed() {
		t.Fatal(dr.Err)
	}
	addr := dr.ContractAddr
	if r := call(t, c, addr, "minter", "mint", minisol.Addr("alice"), minisol.Int(100)); r.Failed() {
		t.Fatal(r.Err)
	}
	r := call(t, c, addr, "alice", "transfer", minisol.Addr("bob"), minisol.Int(10))
	if r.Failed() {
		t.Fatal(r.Err)
	}
	// Figure 2: the contract path costs meaningfully more gas than the
	// native primitive (the paper measures ~40% more on Ethereum).
	if r.GasUsed <= NativeTransferGas {
		t.Errorf("contract transfer gas %d should exceed native %d", r.GasUsed, NativeTransferGas)
	}
	overhead := float64(r.GasUsed)/float64(NativeTransferGas) - 1
	if overhead < 0.2 || overhead > 2.0 {
		t.Errorf("contract transfer overhead = %.0f%%, want roughly the paper's +40%%", overhead*100)
	}
	bal := call(t, c, addr, "x", "balanceOf", minisol.Addr("bob"))
	if bal.Ret != minisol.Int(10) {
		t.Errorf("balanceOf(bob) = %v", bal.Ret)
	}
}

func TestMarketplaceFullAuction(t *testing.T) {
	c := NewChain()
	addr := deployMarketplace(t, c)

	// Providers register assets.
	a1 := call(t, c, addr, "sup1", "createAsset", caps("cnc", "3d-printing"))
	a2 := call(t, c, addr, "sup2", "createAsset", caps("cnc", "3d-printing"))
	a3 := call(t, c, addr, "sup3", "createAsset", caps("cnc"))
	if a1.Failed() || a2.Failed() || a3.Failed() {
		t.Fatalf("createAsset: %v %v %v", a1.Err, a2.Err, a3.Err)
	}
	// Buyer posts an RFQ.
	rfq := call(t, c, addr, "buyer", "createRfq", caps("cnc", "3d-printing"))
	if rfq.Failed() || rfq.Ret != minisol.Int(1) {
		t.Fatalf("createRfq: %v %v", rfq.Ret, rfq.Err)
	}
	// Capable suppliers bid; the incapable one is rejected.
	b1 := call(t, c, addr, "sup1", "createBid", minisol.Int(1), minisol.Int(1))
	b2 := call(t, c, addr, "sup2", "createBid", minisol.Int(1), minisol.Int(2))
	if b1.Failed() || b2.Failed() {
		t.Fatalf("createBid: %v %v", b1.Err, b2.Err)
	}
	weak := call(t, c, addr, "sup3", "createBid", minisol.Int(1), minisol.Int(3))
	if !weak.Failed() {
		t.Fatal("bid lacking capability should revert")
	}
	// Bidding with someone else's asset is rejected.
	theft := call(t, c, addr, "sup3", "createBid", minisol.Int(1), minisol.Int(1))
	if !theft.Failed() {
		t.Fatal("bid with foreign asset should revert")
	}
	// Escrow: a bid asset is locked and cannot back a second bid.
	double := call(t, c, addr, "sup1", "createBid", minisol.Int(1), minisol.Int(1))
	if !double.Failed() {
		t.Fatal("double-bidding a locked asset should revert")
	}
	// Only the buyer can accept.
	imposter := call(t, c, addr, "sup1", "acceptBid", minisol.Int(1), minisol.Int(1))
	if !imposter.Failed() {
		t.Fatal("non-buyer accept should revert")
	}
	// Accept bid 1: asset 1 goes to the buyer, bid 2's asset unlocks.
	acc := call(t, c, addr, "buyer", "acceptBid", minisol.Int(1), minisol.Int(1))
	if acc.Failed() {
		t.Fatal(acc.Err)
	}
	owner := call(t, c, addr, "x", "assetOwner", minisol.Int(1))
	if owner.Ret != minisol.Addr("buyer") {
		t.Errorf("winning asset owner = %v", owner.Ret)
	}
	unlocked := call(t, c, addr, "x", "assetLocked", minisol.Int(2))
	if unlocked.Ret != minisol.Bool(false) {
		t.Error("losing asset should be unlocked (refunded)")
	}
	won := call(t, c, addr, "x", "bidWon", minisol.Int(1))
	if won.Ret != minisol.Bool(true) {
		t.Error("bid 1 should be marked won")
	}
	// Double accept is rejected.
	again := call(t, c, addr, "buyer", "acceptBid", minisol.Int(1), minisol.Int(2))
	if !again.Failed() {
		t.Fatal("second accept should revert")
	}
	// The closed RFQ takes no more bids.
	late := call(t, c, addr, "sup2", "createBid", minisol.Int(1), minisol.Int(2))
	if !late.Failed() {
		t.Fatal("bid on closed RFQ should revert")
	}
}

func TestMarketplaceWithdrawBid(t *testing.T) {
	c := NewChain()
	addr := deployMarketplace(t, c)
	call(t, c, addr, "sup1", "createAsset", caps("cnc"))
	call(t, c, addr, "buyer", "createRfq", caps("cnc"))
	bid := call(t, c, addr, "sup1", "createBid", minisol.Int(1), minisol.Int(1))
	if bid.Failed() {
		t.Fatal(bid.Err)
	}
	// Only the bidder may withdraw.
	if r := call(t, c, addr, "sup2", "withdrawBid", minisol.Int(1)); !r.Failed() {
		t.Fatal("foreign withdraw should revert")
	}
	if r := call(t, c, addr, "sup1", "withdrawBid", minisol.Int(1)); r.Failed() {
		t.Fatal(r.Err)
	}
	locked := call(t, c, addr, "x", "assetLocked", minisol.Int(1))
	if locked.Ret != minisol.Bool(false) {
		t.Error("withdrawn bid should unlock the asset")
	}
}

func TestGasGrowsWithPayloadAndBidIsQuadratic(t *testing.T) {
	c := NewChain()
	addr := deployMarketplace(t, c)

	long := func(n int, size int) *minisol.Array {
		arr := &minisol.Array{}
		for i := 0; i < n; i++ {
			s := make([]byte, size)
			for j := range s {
				s[j] = byte('a' + (i+j)%26)
			}
			arr.Elems = append(arr.Elems, minisol.Str(string(s)))
		}
		return arr
	}
	smallAsset := call(t, c, addr, "s1", "createAsset", long(8, 16))
	bigAsset := call(t, c, addr, "s2", "createAsset", long(8, 218))
	if smallAsset.Failed() || bigAsset.Failed() {
		t.Fatal(smallAsset.Err, bigAsset.Err)
	}
	// CREATE gas grows with payload: every 32-byte word is an SSTORE.
	if bigAsset.GasUsed < smallAsset.GasUsed*3 {
		t.Errorf("big createAsset gas %d should dwarf small %d", bigAsset.GasUsed, smallAsset.GasUsed)
	}
	smallRfq := call(t, c, addr, "b1", "createRfq", long(8, 16))
	bigRfq := call(t, c, addr, "b2", "createRfq", long(8, 218))
	if smallRfq.Failed() || bigRfq.Failed() {
		t.Fatal(smallRfq.Err, bigRfq.Err)
	}
	// BID validation compares capabilities pairwise: gas grows
	// superlinearly with capability size.
	smallBid := call(t, c, addr, "s1", "createBid", minisol.Int(1), minisol.Int(1))
	bigBid := call(t, c, addr, "s2", "createBid", minisol.Int(2), minisol.Int(2))
	if smallBid.Failed() || bigBid.Failed() {
		t.Fatal(smallBid.Err, bigBid.Err)
	}
	if bigBid.GasUsed < smallBid.GasUsed*2 {
		t.Errorf("big createBid gas %d vs small %d: want superlinear growth", bigBid.GasUsed, smallBid.GasUsed)
	}
}

func TestUsabilityLineCount(t *testing.T) {
	src, err := ContractSource("marketplace")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := minisol.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	lines := prog.File.Contracts[0].SourceLines
	// §5.2.2: "the equivalent smart contract required 175 lines of code".
	if lines < 150 || lines > 200 {
		t.Errorf("marketplace contract is %d meaningful lines, want ~175", lines)
	}
	t.Logf("marketplace contract: %d meaningful lines", lines)
}

func TestChainCloneIsolation(t *testing.T) {
	c := NewChain()
	addr := deployMarketplace(t, c)
	call(t, c, addr, "s1", "createAsset", caps("cnc"))
	cp := c.Clone()
	call(t, cp, addr, "s2", "createAsset", caps("cnc"))
	// The clone advanced; the original did not.
	orig := call(t, c, addr, "x", "assetOwner", minisol.Int(2))
	if orig.Ret != minisol.Addr("") {
		t.Errorf("original chain saw clone's asset: %v", orig.Ret)
	}
	cloned := call(t, cp, addr, "x", "assetOwner", minisol.Int(2))
	if cloned.Ret != minisol.Addr("s2") {
		t.Errorf("clone lost its own write: %v", cloned.Ret)
	}
}

func TestClusterConvergesAndQueuesOnGasLimit(t *testing.T) {
	src, err := ContractSource("marketplace")
	if err != nil {
		t.Fatal(err)
	}
	deployTx := &Tx{Kind: KindDeploy, From: "genesis", Source: src, Contract: "Marketplace", Nonce: 1}
	addr := ContractAddr(deployTx)
	cluster := NewCluster(ClusterConfig{
		Nodes:         4,
		BlockPeriod:   500 * time.Millisecond,
		BlockGasLimit: 3_000_000,
		GasPerSecond:  15_000_000,
		Seed:          3,
	}, func(c *Chain) {
		c.Execute(deployTx)
	})

	mk := func(from, fn string, nonce uint64, args ...minisol.Value) *Tx {
		return &Tx{Kind: KindCall, From: from, To: addr, Fn: fn, Args: args, GasLimit: 2_500_000, Nonce: nonce}
	}
	// Asset/rfq/bid ids are assigned in commit order, so each phase is
	// committed before the next depends on its ids.
	committed := 0
	step := func(tx *Tx) {
		t.Helper()
		cluster.Submit(tx)
		committed++
		if got := cluster.RunUntilCommitted(committed, cluster.Sched().Now()+5*time.Minute); got != committed {
			t.Fatalf("committed %d, want %d (tx %s)", got, committed, tx.Fn)
		}
	}
	first := mk("sup1", "createAsset", 1, caps("cnc"))
	step(first)
	step(mk("sup2", "createAsset", 2, caps("cnc")))
	third := mk("buyer", "createRfq", 3, caps("cnc"))
	step(third)
	step(mk("sup1", "createBid", 4, minisol.Int(1), minisol.Int(1)))
	step(mk("sup2", "createBid", 5, minisol.Int(1), minisol.Int(2)))
	accept := mk("buyer", "acceptBid", 6, minisol.Int(1), minisol.Int(1))
	step(accept)
	cluster.RunUntil(cluster.Sched().Now() + 2*time.Second)

	// All replicas agree on the outcome.
	for i := 0; i < 4; i++ {
		chain := cluster.Chain(i)
		r := chain.Execute(&Tx{Kind: KindCall, From: "x", To: addr, Fn: "assetOwner",
			Args: []minisol.Value{minisol.Int(1)}, GasLimit: 1_000_000, Nonce: 100 + uint64(i)})
		if r.Ret != minisol.Addr("buyer") {
			t.Errorf("node %d: asset owner = %v", i, r.Ret)
		}
	}
	// Receipts are queryable.
	if r, ok := cluster.Receipt(accept.Hash()); !ok || r.Failed() {
		t.Errorf("accept receipt = %+v, %v", r, ok)
	}
	// With a 3M block gas limit and 2.5M-limit calls, blocks carry one
	// call each: consecutive commits must be at least a block period
	// apart (queueing behind the block gas limit).
	t1, _ := cluster.CommitTime(first.Hash())
	t3, _ := cluster.CommitTime(third.Hash())
	if t3-t1 < 2*cluster.cfg.BlockPeriod {
		t.Errorf("gas-limited queueing not observed: %v .. %v", t1, t3)
	}
}

func TestClusterRejectsOversizedTx(t *testing.T) {
	cluster := NewCluster(ClusterConfig{Nodes: 4, BlockGasLimit: 1_000_000, Seed: 5}, nil)
	tx := &Tx{Kind: KindCall, From: "a", To: "0xnone", Fn: "x", GasLimit: 2_000_000, Nonce: 1}
	cluster.Submit(tx)
	cluster.RunUntil(30 * time.Second)
	if _, ok := cluster.CommitTime(tx.Hash()); ok {
		t.Error("oversized tx should not commit")
	}
	if rejected := cluster.Summarize().Rejected; rejected != 1 {
		t.Error("oversized tx should be rejected at admission")
	}
}
