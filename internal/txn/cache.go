// A signed transaction is a value. Its ID is the SHA3 of its signing
// payload, validators check it against named conditions and never
// change it, so everything derived from it — the signing payload, the
// canonical encoding, the document (SharedDoc), the footprint
// (Footprint: spend keys, writes and reads) and the signature verdict
// — is a fact about that one value. Each is computed on first ask and
// kept in the transaction's memo cell; every stage from admission to
// the log reads the one copy, and concurrent validators in one process
// share a transaction object without locks.
//
// Each derived value is published once, by a compare-and-swap from
// empty: racing builders compute equal values and the first to publish
// wins. Nothing replaces a published value. Sign and SetID, which run
// before the transaction is shared, are the only code that resets one
// (Sign all of them, SetID what covers the ID). Clone returns a cold,
// writable copy: to change a transaction, clone it, edit the clone and
// sign it again. A build with -tags tripwire checks the rule
// (tripwire_on.go): every memoized signing payload or canonical
// encoding it serves is encoded again and compared.
package txn

import (
	"runtime"
	"strconv"
	"sync/atomic"
)

// txMemo is a transaction's memo cell: its derived values, each empty
// until published.
type txMemo struct {
	// signing leaves the ID out; canonical, doc and the footprint
	// cover it.
	signing, canonical memoSlot[[]byte]
	doc                memoSlot[map[string]any] // SharedDoc
	footprint          memoSlot[Footprint]
	// verified is a successful VerifyFulfillments, or a batch's that
	// counted it (VerifyFulfillmentsBatch).
	verified atomic.Bool
	// early is the accounting of a successful VerifyFulfillmentsEarly
	// that no batch has counted yet: the first batch to meet the
	// transaction counts it and sets verified.
	early atomic.Pointer[SigStats]
}

// memoSlot is one derived value: empty until published, then fixed.
type memoSlot[T any] struct {
	state atomic.Uint32 // slotEmpty → slotWriting → slotSet
	v     T
}

const (
	slotEmpty uint32 = iota
	slotWriting
	slotSet
)

func (s *memoSlot[T]) load() (v T, ok bool) {
	if s.state.Load() == slotSet {
		return s.v, true
	}
	return v, false
}

// publish offers v and returns the slot's value: v if this offer was
// the first, the first offer's value otherwise.
func (s *memoSlot[T]) publish(v T) T {
	if s.state.CompareAndSwap(slotEmpty, slotWriting) {
		s.v = v
		s.state.Store(slotSet)
		return v
	}
	for s.state.Load() != slotSet {
		runtime.Gosched() // the first offer is between its two stores
	}
	return s.v
}

// reset empties the slot. Only Sign and SetID call it, before the
// transaction is shared.
func (s *memoSlot[T]) reset() {
	var zero T
	s.v = zero
	s.state.Store(slotEmpty)
}

// cell returns the transaction's memo cell, publishing an empty one on
// first use.
func (t *Transaction) cell() *txMemo {
	if m := t.memo.Load(); m != nil {
		return m
	}
	t.memo.CompareAndSwap(nil, new(txMemo))
	return t.memo.Load()
}

// CacheScope is a stateless stand-in with no mode and no tallies: a
// transaction's derived values are kept unconditionally.
//
// Deprecated: it remains only because benchmark/probes.go calls
// NewCacheScope(true).VerifyFulfillmentsBatch; it goes with the
// benchmark change of ROADMAP item 1(c). Call VerifyFulfillmentsBatch.
type CacheScope struct{}

// Deprecated: see CacheScope.
func NewCacheScope(bool) *CacheScope { return &CacheScope{} }

// Deprecated: see CacheScope.
func (*CacheScope) VerifyFulfillmentsBatch(ts []*Transaction, workers int) (map[string]error, BatchVerifyStats) {
	return VerifyFulfillmentsBatch(ts, workers)
}

// SharedDoc returns the transaction's document — what ToDoc builds —
// built once and kept beside the canonical bytes, so the schema check
// and the ledger read one document and the store that commits the
// transaction holds that same one. It is read-only and immutable:
// nobody writes to it or to anything it holds, Sign and SetID drop it
// and never edit it, and Clone starts without it. ToDoc is for callers
// that want a document of their own.
func (t *Transaction) SharedDoc() map[string]any {
	m := t.cell()
	if doc, ok := m.doc.load(); ok {
		return doc
	}
	return m.doc.publish(t.ToDoc())
}

// SpendKeyPrefix starts the state key of a spent output in a
// footprint; the rest is the output's UTXO key, OutputRef.String.
const SpendKeyPrefix = "utxo:"

// RefKeyPrefix starts the auction-state key of a referenced
// transaction in a footprint: RefKeyPrefix + the referenced ID.
const RefKeyPrefix = "ref:"

// Footprint is a transaction's declarative read/write set over chain
// state, derived from its document alone. Conflict planning (package
// parallel), the mempool's spend claims, staleness sweep and packer,
// and the commit fence all read this one value. Three key namespaces
// share one space and cannot collide: a transaction is its bare ID (64
// hex digits, no ':'), a spent output is SpendKeyPrefix + its UTXO key
// ("utxo:<txid>:<index>"), the auction state of a referenced
// transaction is RefKeyPrefix + its ID. Two footprints conflict when
// one's Writes intersect the other's Writes or Reads.
type Footprint struct {
	// Spends are the spend keys of the outputs the transaction spends,
	// in SpentRefs order: the exclusive claims. No two pending
	// transactions may hold the same spend key — exactly one of them
	// can ever commit — and the UTXO key is its suffix. Spends is the
	// slice of Writes right after the ID, not a copy; nil when the
	// transaction spends nothing.
	Spends []string
	// Writes are the state keys the transaction mutates at commit: its
	// own ID, its spend keys, and the auction-state key of every entry
	// of Refs.
	Writes []string
	// Reads are the state keys its condition set consults without
	// mutating: the producer of every spent output, every referenced
	// transaction, and the linked asset's creator; nil when there are
	// none.
	Reads []string
}

// Footprint returns the transaction's footprint, derived once per
// transaction; its slices are shared and read-only. A transaction key
// is the ID string the transaction already holds, so the footprint
// costs two slices, one string per spent output and one per reference.
func (t *Transaction) Footprint() Footprint {
	m := t.cell()
	if fp, ok := m.footprint.load(); ok {
		return fp
	}
	spends := 0
	for _, in := range t.Inputs {
		if in.Fulfills != nil {
			spends++
		}
	}
	n := spends + len(t.Refs)
	if t.Asset != nil && t.Asset.ID != "" {
		n++
	}
	var fp Footprint
	fp.Writes = make([]string, 0, 1+spends+len(t.Refs))
	fp.Writes = append(fp.Writes, t.ID)
	if n > 0 {
		fp.Reads = make([]string, 0, n)
	}
	for _, in := range t.Inputs {
		if ref := in.Fulfills; ref != nil {
			fp.Writes = append(fp.Writes, SpendKeyPrefix+ref.TxID+":"+strconv.Itoa(ref.Index))
			fp.Reads = append(fp.Reads, ref.TxID)
		}
	}
	if spends > 0 {
		fp.Spends = fp.Writes[1 : 1+spends : 1+spends]
	}
	for _, id := range t.Refs {
		fp.Writes = append(fp.Writes, RefKeyPrefix+id)
		fp.Reads = append(fp.Reads, id)
	}
	if t.Asset != nil && t.Asset.ID != "" {
		fp.Reads = append(fp.Reads, t.Asset.ID)
	}
	return m.footprint.publish(fp)
}

// SpentKey returns the UTXO key (OutputRef.String) of the output input
// i spends, as the suffix of its spend key (Footprint.Spends): it
// builds no string once the footprint is. It is "" when input i spends
// nothing.
func (t *Transaction) SpentKey(i int) string {
	if t.Inputs[i].Fulfills == nil {
		return ""
	}
	j := 0
	for _, in := range t.Inputs[:i] {
		if in.Fulfills != nil {
			j++
		}
	}
	return t.Footprint().Spends[j][len(SpendKeyPrefix):]
}

// sigVerified reports a memoized successful VerifyFulfillments.
func (t *Transaction) sigVerified() bool {
	m := t.memo.Load()
	return m != nil && m.verified.Load()
}

// sigEarly returns the accounting of a successful early verification
// no batch has counted yet, or nil.
func (t *Transaction) sigEarly() *SigStats {
	if m := t.memo.Load(); m != nil {
		return m.early.Load()
	}
	return nil
}
