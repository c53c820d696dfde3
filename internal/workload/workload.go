// Package workload generates the synthetic transaction workloads of the
// paper's evaluation (§5.1.3): deterministic account populations,
// reverse-auction groups matching the published mix (50,000 CREATE,
// 50,000 BID, 5,000 REQUEST, 5,000 ACCEPT_BID), and payload-size sweeps
// that pad transaction metadata with manufacturing-capability strings
// of controlled size (0.10–1.74 KB in Figure 7).
package workload

import (
	"fmt"
	"math/rand"

	"smartchaindb/internal/keys"
	"smartchaindb/internal/txn"
)

// Generator produces deterministic signed transactions.
type Generator struct {
	rng      *rand.Rand
	escrow   *keys.KeyPair
	accounts map[int]*keys.KeyPair
	seedBase int64
	seq      int
}

// NewGenerator creates a generator. All output is a pure function of
// (seed, escrow key, call sequence).
func NewGenerator(seed int64, escrow *keys.KeyPair) *Generator {
	return &Generator{
		rng:      rand.New(rand.NewSource(seed)),
		escrow:   escrow,
		accounts: make(map[int]*keys.KeyPair),
		seedBase: seed * 1_000_003,
	}
}

// Account returns the i-th deterministic client account.
func (g *Generator) Account(i int) *keys.KeyPair {
	if kp, ok := g.accounts[i]; ok {
		return kp
	}
	kp := keys.DeterministicKeyPair(g.seedBase + int64(i))
	g.accounts[i] = kp
	return kp
}

// CapabilityStrings builds n capability labels whose total rendered
// size is close to totalBytes — the "list of strings of various sizes
// ... representing digital manufacturing capabilities" of Experiment 1.
func (g *Generator) CapabilityStrings(n, totalBytes int) []string {
	if n <= 0 {
		n = 1
	}
	per := totalBytes / n
	if per < 8 {
		per = 8
	}
	caps := make([]string, n)
	for i := range caps {
		label := fmt.Sprintf("capability-%02d-", i)
		pad := per - len(label)
		if pad < 0 {
			pad = 0
		}
		buf := make([]byte, pad)
		const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
		for j := range buf {
			buf[j] = alphabet[g.rng.Intn(len(alphabet))]
		}
		caps[i] = label + string(buf)
	}
	return caps
}

func anyStrings(ss []string) []any {
	out := make([]any, len(ss))
	for i, s := range ss {
		out[i] = s
	}
	return out
}

func (g *Generator) nextSeq() int {
	g.seq++
	return g.seq
}

// meta builds the standard transaction metadata: the size padding plus
// a monotone client timestamp. The timestamp is the generator's
// logical clock — deterministic per seed, so fingerprint differentials
// stay byte-identical — and feeds the ledger's ordered
// metadata.timestamp index (recency queries like "most recent open
// requests").
func (g *Generator) meta(payloadBytes int) map[string]any {
	return map[string]any{
		"pad":       anyStrings(g.CapabilityStrings(4, payloadBytes)),
		"timestamp": g.nextSeq(),
	}
}

func mustSign(t *txn.Transaction, signers ...*keys.KeyPair) *txn.Transaction {
	if err := txn.Sign(t, signers...); err != nil {
		// invariant: generator inputs are all locally produced; failure is a defect.
		panic(fmt.Sprintf("workload: sign: %v", err))
	}
	return t
}

// Create mints an asset for owner advertising caps, with payloadBytes
// of capability metadata.
func (g *Generator) Create(owner *keys.KeyPair, caps []string, payloadBytes int) *txn.Transaction {
	data := map[string]any{
		"capabilities": anyStrings(caps),
		"seq":          g.nextSeq(),
	}
	meta := g.meta(payloadBytes)
	return mustSign(txn.NewCreate(owner.PublicBase58(), data, 1, meta), owner)
}

// Request publishes an RFQ from requester demanding caps.
func (g *Generator) Request(requester *keys.KeyPair, caps []string, payloadBytes int) *txn.Transaction {
	data := map[string]any{
		"capabilities": anyStrings(caps),
		"seq":          g.nextSeq(),
	}
	meta := g.meta(payloadBytes)
	return mustSign(txn.NewRequest(requester.PublicBase58(), data, meta), requester)
}

// Bid answers rfq with bidder's asset, with payloadBytes of metadata.
func (g *Generator) Bid(bidder *keys.KeyPair, asset, rfq *txn.Transaction, payloadBytes int) *txn.Transaction {
	meta := g.meta(payloadBytes)
	return mustSign(txn.NewBid(bidder.PublicBase58(), asset.ID,
		txn.Spend{Ref: txn.OutputRef{TxID: asset.ID, Index: 0}, Owners: []string{bidder.PublicBase58()}},
		1, g.escrow.PublicBase58(), rfq.ID, meta), bidder)
}

// Accept closes an auction, winning bid first.
func (g *Generator) Accept(requester *keys.KeyPair, rfq, win *txn.Transaction, losing []*txn.Transaction) *txn.Transaction {
	t, err := txn.NewAcceptBid(requester.PublicBase58(), g.escrow.PublicBase58(), rfq.ID, win, losing, nil)
	if err != nil {
		// invariant: the generator built rfq, win and losing itself, so they form a well-shaped accept.
		panic(fmt.Sprintf("workload: accept: %v", err))
	}
	return mustSign(t, g.escrow, requester)
}

// FanIn builds a wallet-style pair: a CREATE minting one share into
// each of n outputs of owner's, and the TRANSFER that spends all n of
// them into one output of recipient's — the multi-input shape of the
// traffic experiment and of the repo benchmark's transfer_fanin
// stream. seq tells otherwise identical wallets apart. It keeps no
// generator state, so pairs may be built concurrently.
func FanIn(owner *keys.KeyPair, recipient string, seq, n int) (create, transfer *txn.Transaction) {
	pub := owner.PublicBase58()
	create = txn.NewCreate(pub, map[string]any{"kind": "wallet", "seq": seq}, uint64(n), nil)
	create.Outputs = make([]*txn.Output, n)
	for j := range create.Outputs {
		create.Outputs[j] = &txn.Output{PublicKeys: []string{pub}, Amount: 1}
	}
	mustSign(create, owner)
	spends := make([]txn.Spend, n)
	for j := range spends {
		spends[j] = txn.Spend{Ref: txn.OutputRef{TxID: create.ID, Index: j}, Owners: []string{pub}}
	}
	transfer = txn.NewTransfer(create.ID, spends,
		[]*txn.Output{{PublicKeys: []string{recipient}, Amount: uint64(n)}}, nil)
	return create, mustSign(transfer, owner)
}

// BenchmarkShapes returns the two transactions the repo benchmark
// (benchmark/) streams, for the per-call allocation tests and
// micro-benchmarks (`make bench-alloc`) to measure the same thing it
// does: the CREATE funding and the 4-input TRANSFER of transfer_fanin,
// and a CREATE carrying 1 KiB of metadata, as create_durable's do.
func BenchmarkShapes() (funding, transfer4, create1k *txn.Transaction) {
	owner := keys.DeterministicKeyPair(41)
	funding, transfer4 = FanIn(owner, keys.DeterministicKeyPair(42).PublicBase58(), 1, 4)
	create1k = NewGenerator(1, keys.DeterministicKeyPair(43)).Create(owner, []string{"cnc", "3d-printing"}, 1024)
	return funding, transfer4, create1k
}

// AuctionGroup is one complete reverse auction: a REQUEST, the bidders'
// backing CREATEs, the BIDs, and the closing ACCEPT_BID. Submission
// must respect the phases: Creates+Request commit before Bids, Bids
// before Accept.
type AuctionGroup struct {
	Requester *keys.KeyPair
	Bidders   []*keys.KeyPair
	Request   *txn.Transaction
	Creates   []*txn.Transaction
	Bids      []*txn.Transaction
	Accept    *txn.Transaction
}

// AuctionGroupSpec parameterizes group generation.
type AuctionGroupSpec struct {
	BiddersPerAuction int
	// PayloadBytes pads each transaction's metadata (Experiment 1's
	// transaction-size axis).
	PayloadBytes int
	// Capabilities demanded by the REQUEST and advertised by assets.
	Capabilities []string
}

// NewAuctionGroup builds one coherent auction. accountBase offsets the
// deterministic accounts so groups do not share keys.
func (g *Generator) NewAuctionGroup(accountBase int, spec AuctionGroupSpec) *AuctionGroup {
	if spec.BiddersPerAuction <= 0 {
		spec.BiddersPerAuction = 10
	}
	if len(spec.Capabilities) == 0 {
		spec.Capabilities = []string{"3d-printing", "cnc-milling"}
	}
	grp := &AuctionGroup{Requester: g.Account(accountBase)}
	grp.Request = g.Request(grp.Requester, spec.Capabilities, spec.PayloadBytes)
	for i := 0; i < spec.BiddersPerAuction; i++ {
		bidder := g.Account(accountBase + 1 + i)
		grp.Bidders = append(grp.Bidders, bidder)
		asset := g.Create(bidder, spec.Capabilities, spec.PayloadBytes)
		grp.Creates = append(grp.Creates, asset)
		grp.Bids = append(grp.Bids, g.Bid(bidder, asset, grp.Request, spec.PayloadBytes))
	}
	win := g.rng.Intn(len(grp.Bids))
	losing := make([]*txn.Transaction, 0, len(grp.Bids)-1)
	for i, b := range grp.Bids {
		if i != win {
			losing = append(losing, b)
		}
	}
	grp.Accept = g.Accept(grp.Requester, grp.Request, grp.Bids[win], losing)
	return grp
}

// Mix is the paper's workload composition.
type Mix struct {
	Creates  int
	Bids     int
	Requests int
	Accepts  int
}

// PaperMix is the published 110,000-transaction composition.
func PaperMix() Mix { return Mix{Creates: 50000, Bids: 50000, Requests: 5000, Accepts: 5000} }

// Scale shrinks a mix by an integer factor, preserving the ratios, for
// laptop-scale runs.
func (m Mix) Scale(factor int) Mix {
	if factor <= 1 {
		return m
	}
	scale := func(v int) int {
		s := v / factor
		if s < 1 {
			s = 1
		}
		return s
	}
	return Mix{Creates: scale(m.Creates), Bids: scale(m.Bids), Requests: scale(m.Requests), Accepts: scale(m.Accepts)}
}

// Groups renders the mix as auction groups: one group per REQUEST with
// Bids/Requests bidders each. The group construction consumes the
// CREATE budget as bid-backing assets, matching the paper's 10:1
// bid-to-request ratio.
func (g *Generator) Groups(m Mix, payloadBytes int) []*AuctionGroup {
	if m.Requests <= 0 {
		return nil
	}
	bidders := m.Bids / m.Requests
	if bidders < 1 {
		bidders = 1
	}
	groups := make([]*AuctionGroup, 0, m.Requests)
	base := 0
	for i := 0; i < m.Requests; i++ {
		groups = append(groups, g.NewAuctionGroup(base, AuctionGroupSpec{
			BiddersPerAuction: bidders,
			PayloadBytes:      payloadBytes,
		}))
		base += bidders + 1
	}
	return groups
}
