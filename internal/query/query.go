// Package query is the marketplace analytics layer: the queries §2.1 of
// the paper argues smart contracts cannot answer because transactional
// state hides inside contract storage. Because SmartchainDB keeps
// transaction behaviour, asset metadata, and ownership in queryable
// collections, questions like "which open service requests ask for
// 3-D printing capability?" become index-backed document queries.
//
// Every Engine method resolves through the docstore query planner over
// the ledger's index registry (ledger.ChainIndexes): each read drives
// on one index point or ordered-index range scan — never a
// collection-lock full scan on the transactions, UTXO, or asset
// collections. The planner drives on the first conjunct an index can
// serve, so every filter here writes its driving conjunct first and
// leaves the rest to the residual check. Most of those indexes are
// partial: they hold only the REQUESTs, BIDs, CREATEd assets or unspent
// outputs their readers ask about, and each reader's filter names that
// predicate, which is what lets the planner use them. The open-requests anti-join
// is an indexed difference (all REQUESTs minus the RFQ ids the
// committed ACCEPT_BIDs reference) instead of a per-RFQ probe loop, and
// the recency/price-band queries stream off the ordered timestamp and
// amount indexes.
//
// A query that answers from a few fields of a transaction reads them
// in place (txn.Stored: AssetProvenance, AuctionOutcome) and decodes
// nothing; a query that hands transactions out decodes the ones it
// returns, and only those.
//
// Each call pins one MVCC snapshot of the last sealed block
// (ledger.StateView) and runs every read of the query against it:
// analytics take no commit fence and no collection lock, cannot block
// — or be blocked by — a concurrent block commit, and can never
// observe a half-applied block, even for multi-collection queries
// like the auction outcome.
package query

import (
	"sort"
	"time"

	"smartchaindb/internal/docstore"
	"smartchaindb/internal/ledger"
	"smartchaindb/internal/obs"
	"smartchaindb/internal/txn"
)

// Engine answers marketplace queries over one node's chain state.
type Engine struct {
	state *ledger.State
	// reg records per-method latency histograms (query.<method>_ns);
	// inherited from the state's attached registry, nil for the no-op
	// build.
	reg *obs.Registry
}

// New creates a query engine over a chain state. Every call answers as
// of the newest sealed block at the time of the call. When the state
// carries an observability registry (ledger.State.SetObs), every
// method records its latency there as query.<method>_ns.
func New(state *ledger.State) *Engine {
	return &Engine{state: state, reg: state.ObsRegistry()}
}

// noopTimer is the shared stop function handed out when no registry is
// attached, keeping the no-op path allocation-free.
var noopTimer = func() {}

// timed starts a latency measurement for one query method; the
// returned stop function records it into query.<method>_ns.
func (e *Engine) timed(method string) func() {
	if e.reg == nil {
		return noopTimer
	}
	h := e.reg.Histogram("query." + method + "_ns")
	t0 := time.Now()
	return func() { h.ObserveSince(t0) }
}

// view pins the chain snapshot one query call runs against.
func (e *Engine) view() *ledger.StateView { return e.state.View() }

func transactions(v *ledger.StateView) *docstore.Snapshot {
	return v.Collection(ledger.ColTransactions)
}

func utxos(v *ledger.StateView) *docstore.Snapshot {
	return v.Collection(ledger.ColUTXOs)
}

// txsFromDocs decodes stored documents, skipping any that fail to
// parse (foreign documents cannot round-trip the transaction shape).
// Every query borrows what it decodes or inspects (BorrowFind): the
// documents are the store's, read-only, and what a method returns is
// built from them, never them.
func txsFromDocs(docs []map[string]any) []*txn.Transaction {
	out := make([]*txn.Transaction, 0, len(docs))
	for _, d := range docs {
		if t, err := txn.FromDoc(d); err == nil {
			out = append(out, t)
		}
	}
	return out
}

// acceptedRFQs collects the RFQ ids every committed ACCEPT_BID
// references — one planned point query on the operation index, and the
// left side of the open-requests indexed difference.
func acceptedRFQs(v *ledger.StateView) []any {
	docs := transactions(v).BorrowFind(docstore.Eq("operation", txn.OpAcceptBid))
	var ids []any
	for _, d := range docs {
		refs, _ := d["refs"].([]any)
		ids = append(ids, refs...)
	}
	return ids
}

// openRequestsFilter is the anti-join as one declarative filter:
// committed REQUESTs whose id is not among the accepted RFQ ids. A
// caller's drive conjuncts go first, so their index drives; with none,
// the operation index does. The Not(In(...)) difference is a residual
// check on the candidates, never a scan. Both sides read the same snapshot,
// so an ACCEPT_BID sealing mid-query cannot yield a REQUEST that is
// simultaneously open and accepted.
func openRequestsFilter(v *ledger.StateView, drive ...docstore.Filter) docstore.Filter {
	return docstore.And(append(drive,
		docstore.Eq("operation", txn.OpRequest),
		docstore.Not(docstore.In("id", acceptedRFQs(v)...)),
	)...)
}

// OpenRequests lists committed REQUESTs with no ACCEPT_BID yet — the
// indexed difference between the REQUEST set and the accepted-RFQ set.
func (e *Engine) OpenRequests() []*txn.Transaction {
	defer e.timed("open_requests")()
	v := e.view()
	return txsFromDocs(transactions(v).BorrowFind(openRequestsFilter(v)))
}

// OpenRequestsWithCapability filters open requests by one required
// capability — the motivating query of the paper's introduction, posed
// by a manufacturing provider looking for work. The capability index
// holds REQUESTs only, so it drives alone.
func (e *Engine) OpenRequestsWithCapability(capability string) []*txn.Transaction {
	defer e.timed("open_requests_with_capability")()
	v := e.view()
	return txsFromDocs(transactions(v).BorrowFind(openRequestsFilter(v,
		docstore.Contains("asset.data.capabilities", capability),
	)))
}

// RecentOpenRequests lists up to limit open requests, most recently
// submitted first (by the client-stamped metadata.timestamp), streamed
// off the ordered timestamp index over REQUESTs — the "what just
// arrived?" feed a provider polls. Requests without a timestamp are not
// listed.
func (e *Engine) RecentOpenRequests(limit int) []*txn.Transaction {
	defer e.timed("recent_open_requests")()
	v := e.view()
	return txsFromDocs(transactions(v).BorrowFindOrdered(
		openRequestsFilter(v), "metadata.timestamp", true, limit,
	))
}

// BidsForRequest lists every BID ever placed for a REQUEST, locked or
// settled — one probe of the reference index, its operation checked on
// each candidate.
func (e *Engine) BidsForRequest(rfqID string) []*txn.Transaction {
	defer e.timed("bids_for_request")()
	return txsFromDocs(transactions(e.view()).BorrowFind(docstore.And(
		docstore.Contains("refs", rfqID),
		docstore.Eq("operation", txn.OpBid),
	)))
}

// BidsByAccount lists the BIDs a given account has placed (its inputs
// carry the account as owner-before) — one probe of the owners-before
// index over BIDs.
func (e *Engine) BidsByAccount(pub string) []*txn.Transaction {
	defer e.timed("bids_by_account")()
	return txsFromDocs(transactions(e.view()).BorrowFind(docstore.And(
		docstore.Eq("inputs.owners_before", pub),
		docstore.Eq("operation", txn.OpBid),
	)))
}

// BidsInPriceBand lists committed BIDs escrowing an amount within
// [lo, hi] — one bounded range scan of the ordered outputs.amount index
// over BIDs, the price-discovery query a requester runs before
// accepting.
func (e *Engine) BidsInPriceBand(lo, hi uint64) []*txn.Transaction {
	defer e.timed("bids_in_price_band")()
	return txsFromDocs(transactions(e.view()).BorrowFind(docstore.And(
		docstore.Gte("outputs.amount", lo),
		docstore.Lte("outputs.amount", hi),
		docstore.Eq("operation", txn.OpBid),
	)))
}

// Outcome describes a settled auction.
type Outcome struct {
	RFQID      string
	AcceptID   string
	WinningBid string
	Winner     string   // winning bidder's public key
	Losers     []string // losing bidders' public keys
	Settled    bool     // all children committed
}

// AuctionOutcome reconstructs who won a REQUEST and whether every
// escrow return has settled — the workflow-provenance query. The
// auction structure (accept, winning bid, losers) and the settlement
// status, the recovery record, read one snapshot; the ACCEPT_BID and
// the winning BID are read in place (txn.Stored), each for the fields
// the outcome names.
func (e *Engine) AuctionOutcome(rfqID string) (*Outcome, bool) {
	defer e.timed("auction_outcome")()
	v := e.view()
	accept, ok := v.Accepted(rfqID)
	if !ok {
		return nil, false
	}
	acceptID, err := accept.ID()
	if err != nil {
		return nil, false
	}
	winID, err := accept.AssetID()
	if err != nil {
		return nil, false
	}
	out := &Outcome{RFQID: rfqID, AcceptID: acceptID, WinningBid: winID}
	if win, ok := v.Tx(winID); ok {
		if o, err := win.Output(0); err == nil && len(o.PrevOwners) > 0 {
			out.Winner = o.PrevOwners.At(0)
		}
	}
	n, _ := accept.Outputs()
	for i := 1; i < n; i++ {
		if o, err := accept.Output(i); err == nil && len(o.PrevOwners) > 0 {
			out.Losers = append(out.Losers, o.PrevOwners.At(0))
		}
	}
	if rec, err := v.RecoveryFor(acceptID); err == nil {
		out.Settled = rec.Status == ledger.RecoveryComplete
	}
	return out, true
}

// ProvenanceStep is one hop in an asset's ownership history.
type ProvenanceStep struct {
	TxID      string
	Operation string
	Owners    []string
}

// AssetProvenance walks an asset's ownership chain from its CREATE to
// the current unspent holder — the audit/fraud-analysis query class.
// Every hop is a lock-free point read against the same snapshot, so
// the walk can never chase a spender edge into a block that sealed
// after the walk started. A hop reads the three fields its step names
// in place (txn.Stored) and decodes no transaction, so what it costs
// does not grow with the transaction or the chain.
func (e *Engine) AssetProvenance(assetID string) []ProvenanceStep {
	defer e.timed("asset_provenance")()
	v := e.view()
	var steps []ProvenanceStep
	cur := assetID
	seen := make(map[string]bool)
	for !seen[cur] {
		seen[cur] = true
		s, ok := v.Tx(cur)
		if !ok {
			break
		}
		step, err := provenanceStep(s)
		if err != nil {
			break
		}
		steps = append(steps, step)
		// Follow the spender of this transaction's first output.
		f, ok := v.Output(txn.OutputRef{TxID: step.TxID, Index: 0})
		if !ok || f.SpentBy == "" {
			break
		}
		cur = f.SpentBy
	}
	return steps
}

// provenanceStep reads one hop of AssetProvenance.
func provenanceStep(s txn.Stored) (step ProvenanceStep, err error) {
	if step.TxID, err = s.ID(); err != nil {
		return step, err
	}
	if step.Operation, err = s.Operation(); err != nil {
		return step, err
	}
	step.Owners, err = s.OwnerSet()
	return step, err
}

// HolderOf reports who currently holds unspent shares of an asset —
// one probe of the asset-id index over unspent outputs.
func (e *Engine) HolderOf(assetID string) map[string]uint64 {
	defer e.timed("holder_of")()
	docs := utxos(e.view()).BorrowFind(docstore.And(
		docstore.Eq("asset_id", assetID),
		docstore.Eq("spent", false),
	))
	holders := make(map[string]uint64)
	for _, d := range docs {
		owners, _ := d["owner"].([]any)
		amt, _ := d["amount"].(float64)
		for _, o := range owners {
			if pub, ok := o.(string); ok {
				holders[pub] += uint64(amt)
			}
		}
	}
	return holders
}

// HoldingsInBand lists the unspent outputs whose amount lies within
// [lo, hi] — one bounded range scan of the ordered amount index over
// unspent outputs.
func (e *Engine) HoldingsInBand(lo, hi uint64) []txn.OutputRef {
	defer e.timed("holdings_in_band")()
	docs := utxos(e.view()).BorrowFind(docstore.And(
		docstore.Gte("amount", lo),
		docstore.Lte("amount", hi),
		docstore.Eq("spent", false),
	))
	refs := make([]txn.OutputRef, 0, len(docs))
	for _, d := range docs {
		id, _ := d["transaction_id"].(string)
		idx, _ := d["output_index"].(float64)
		refs = append(refs, txn.OutputRef{TxID: id, Index: int(idx)})
	}
	return refs
}

// AssetsWithCapability finds registered assets advertising a
// capability — the provider-side discovery query, driven by the
// capability index over the CREATEd assets.
func (e *Engine) AssetsWithCapability(capability string) []string {
	defer e.timed("assets_with_capability")()
	docs := e.view().Collection(ledger.ColAssets).BorrowFind(docstore.And(
		docstore.Contains("data.capabilities", capability),
		docstore.Eq("operation", txn.OpCreate),
	))
	ids := make([]string, 0, len(docs))
	for _, d := range docs {
		if id, ok := d["id"].(string); ok {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// OperationCounts tallies committed transactions per operation — the
// basic business-intelligence rollup, one index point count each, all
// against one snapshot so the tallies sum to a real chain state.
func (e *Engine) OperationCounts() map[string]int {
	defer e.timed("operation_counts")()
	txs := transactions(e.view())
	counts := make(map[string]int)
	for _, op := range txn.Operations() {
		if n := txs.Count(docstore.Eq("operation", op)); n > 0 {
			counts[op] = n
		}
	}
	return counts
}
