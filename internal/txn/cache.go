// Canonical-bytes caching. Canonicalizing a transaction is the second
// largest admission cost after ed25519 verification: every ID check,
// signature verification, and fingerprint re-marshals the same bytes.
// Each Transaction therefore memoizes its signing payload and
// canonical encoding (plus the signature verdict derived from them) in
// an immutable, atomically swapped cell, so concurrent validators on
// different nodes of an in-process cluster can share one transaction
// object without locks or races.
//
// Whether a code path consults and populates the memo is decided per
// CacheScope, not process-wide: each validator node owns a scope, so
// one process can host cached and uncached validators side by side
// (the benchmarks' caches-on-vs-off legs run as two node configs, not
// a global flip). Unscoped entry points use the package default scope,
// which is always enabled.
//
// The cell also carries the transaction's document (SharedDoc), its
// spend keys (SpendKeys) and its footprint (FootprintKeys), each built
// once and read by every stage from admission to the log. They follow
// the same invalidation contract but no scope: they are
// representations of the transaction, not a policy, and move no
// hit/miss tally.
//
// Invalidation contract: the blessed mutation points inside this
// package (Sign re-canonicalizes from scratch; SetID drops what covers
// the ID — the canonical encoding, the document and the footprint)
// maintain the cache themselves. Code that mutates a Transaction's exported fields in
// place after signing must call Invalidate — otherwise verification
// answers for the bytes the transaction had when the cache was
// populated, and the log stores the document it had. Clone never copies the
// cache: a clone starts cold, so the tamper-detection tests' pattern
// (clone, mutate, verify) keeps failing closed.
package txn

import (
	"strconv"
	"sync/atomic"
)

// memoFields are the derived representations a cache generation
// holds; nil means not computed yet. signing and spends leave the ID
// out, canonical, doc and the footprint cover it.
type memoFields struct {
	signing   []byte
	canonical []byte
	doc       map[string]any // SharedDoc
	spends    []string       // SpendKeys
	// writes and reads are FootprintKeys; writes is never empty once
	// derived (it holds the ID), so writes != nil says both are.
	writes, reads []string
}

// txMemo is one immutable cache generation. The fields are written
// once before the memo is published and never mutated after; only the
// verified flag flips in place (false → true is the sole transition,
// and a lost flip merely costs one re-verification).
type txMemo struct {
	memoFields
	verified atomic.Bool
}

// CacheScope is one validator's policy handle for the canonical-bytes
// cache: whether memoized encodings and signature verdicts are
// consulted and recorded, and whose hit/miss tallies move. The memo
// cells themselves live on the Transaction and are shared across every
// scope that has caching on — a disabled scope simply never reads or
// writes them. A nil *CacheScope means the package default scope
// (caching on), so zero-configured callers keep the fast behavior.
type CacheScope struct {
	disabled bool
	hits     atomic.Uint64
	misses   atomic.Uint64
}

// NewCacheScope returns a scope with caching on or off. The off scope
// is what an uncached validator threads through its validation paths;
// it never consults the memo, so its measurements are honest re-work.
func NewCacheScope(enabled bool) *CacheScope {
	return &CacheScope{disabled: !enabled}
}

// defaultCacheScope backs every unscoped entry point in this package.
var defaultCacheScope = &CacheScope{}

// DefaultCacheScope returns the always-enabled scope unscoped calls
// use — the process-wide hit/miss tallies live here.
func DefaultCacheScope() *CacheScope { return defaultCacheScope }

func (s *CacheScope) orDefault() *CacheScope {
	if s == nil {
		return defaultCacheScope
	}
	return s
}

// Enabled reports whether this scope consults the cache (nil-safe).
func (s *CacheScope) Enabled() bool { return !s.orDefault().disabled }

// Stats reports this scope's canonical-bytes cache hits and misses
// (SigningPayload + MarshalCanonical lookups; nil-safe).
func (s *CacheScope) Stats() (hits, misses uint64) {
	s = s.orDefault()
	return s.hits.Load(), s.misses.Load()
}

// CacheStats reports the default scope's canonical-bytes cache hits
// and misses — the tallies of every unscoped lookup in the process.
func CacheStats() (hits, misses uint64) { return defaultCacheScope.Stats() }

// Invalidate drops every memoized encoding and the signature verdict.
// Call it after mutating a transaction's fields in place; Sign calls
// it implicitly.
func (t *Transaction) Invalidate() { t.memo.Store(nil) }

// dropDerivedMemo keeps the signing payload and the spend keys but
// discards the canonical encoding, the document, the footprint and the
// signature verdict — what SetID needs: the new ID is covered by those
// and excluded from the payload.
func (t *Transaction) dropDerivedMemo() {
	for {
		old := t.memo.Load()
		if old == nil {
			return
		}
		if old.canonical == nil && old.doc == nil && old.writes == nil && !old.verified.Load() {
			return
		}
		next := &txMemo{memoFields: memoFields{signing: old.signing, spends: old.spends}}
		if t.memo.CompareAndSwap(old, next) {
			return
		}
	}
}

func (t *Transaction) cachedSigning(sc *CacheScope) []byte {
	sc = sc.orDefault()
	if sc.disabled {
		return nil
	}
	if m := t.memo.Load(); m != nil && m.signing != nil {
		sc.hits.Add(1)
		return m.signing
	}
	sc.misses.Add(1)
	return nil
}

func (t *Transaction) cachedCanonical(sc *CacheScope) []byte {
	sc = sc.orDefault()
	if sc.disabled {
		return nil
	}
	if m := t.memo.Load(); m != nil && m.canonical != nil {
		sc.hits.Add(1)
		return m.canonical
	}
	sc.misses.Add(1)
	return nil
}

// storeMemo publishes freshly computed fields in a new generation that
// carries forward whatever the current one holds, and returns what is
// then published. A field the current generation already has wins over
// the one offered: racing writers compute equal values, and keeping
// the first means every reader shares one.
func (t *Transaction) storeMemo(fresh memoFields) *memoFields {
	for {
		old := t.memo.Load()
		next := &txMemo{memoFields: fresh}
		if old != nil {
			if old.signing != nil {
				next.signing = old.signing
			}
			if old.canonical != nil {
				next.canonical = old.canonical
			}
			if old.doc != nil {
				next.doc = old.doc
			}
			if old.spends != nil {
				next.spends = old.spends
			}
			if old.writes != nil {
				next.writes, next.reads = old.writes, old.reads
			}
			next.verified.Store(old.verified.Load())
		}
		if t.memo.CompareAndSwap(old, next) {
			return &next.memoFields
		}
	}
}

func (t *Transaction) storeSigning(sc *CacheScope, b []byte) {
	if !sc.orDefault().disabled {
		t.storeMemo(memoFields{signing: b})
	}
}

func (t *Transaction) storeCanonical(sc *CacheScope, b []byte) {
	if !sc.orDefault().disabled {
		t.storeMemo(memoFields{canonical: b})
	}
}

// SharedDoc returns the transaction's document — what ToDoc builds —
// built once and kept beside the canonical bytes, so the schema check
// and the ledger read one document and the store that commits the
// transaction holds that same one. It is read-only and immutable:
// nobody writes to it or to anything it holds, a mutation of the
// transaction drops it (Sign, SetID, Invalidate) and never edits it,
// and Clone starts without it. ToDoc is for callers that want a
// document of their own.
func (t *Transaction) SharedDoc() map[string]any {
	if m := t.memo.Load(); m != nil && m.doc != nil {
		return m.doc
	}
	return t.storeMemo(memoFields{doc: t.ToDoc()}).doc
}

// SpendKeyPrefix starts the state key of a spent output in a
// footprint (package parallel); the rest is the output's UTXO key,
// OutputRef.String.
const SpendKeyPrefix = "utxo:"

// SpendKeys returns the state keys of the outputs the transaction
// spends — SpendKeyPrefix + ref.String() for each of SpentRefs, in
// that order — built once per transaction: conflict planning, the
// mempool's spend claims and the commit all name a spent output by
// this one string, and the UTXO key is its suffix. No two pending
// transactions may hold the same spend key: exactly one of them can
// ever commit. The slice is shared and read-only; nil when the
// transaction spends nothing.
func (t *Transaction) SpendKeys() []string {
	if m := t.memo.Load(); m != nil && m.spends != nil {
		return m.spends
	}
	n := 0
	for _, in := range t.Inputs {
		if in.Fulfills != nil {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	keys := make([]string, 0, n)
	for _, in := range t.Inputs {
		if ref := in.Fulfills; ref != nil {
			keys = append(keys, SpendKeyPrefix+ref.TxID+":"+strconv.Itoa(ref.Index))
		}
	}
	return t.storeMemo(memoFields{spends: keys}).spends
}

// RefKeyPrefix starts the auction-state key of a referenced
// transaction in a footprint: RefKeyPrefix + the referenced ID.
const RefKeyPrefix = "ref:"

// FootprintKeys returns the transaction's declarative read/write set
// over chain state, derived from the document alone (package parallel
// groups by it, the mempool packs by it). Three key namespaces share
// one space and cannot collide: a transaction is its bare ID (64 hex
// digits, no ':'), a spent output is its SpendKeys entry
// ("utxo:<txid>:<index>"), the auction state of a referenced
// transaction is RefKeyPrefix + its ID.
//
// writes: the transaction's own ID, its spend keys, and the
// auction-state key of every entry of Refs. reads: the producer of
// every spent output, every referenced transaction, and the linked
// asset's creator. Both are derived once per transaction, shared and
// read-only; reads is nil when there are none. A transaction key is
// the ID string the transaction already holds, so the footprint costs
// two slices and one string per reference.
func (t *Transaction) FootprintKeys() (writes, reads []string) {
	if m := t.memo.Load(); m != nil && m.writes != nil {
		return m.writes, m.reads
	}
	spends := t.SpendKeys()
	writes = make([]string, 0, 1+len(spends)+len(t.Refs))
	writes = append(writes, t.ID)
	writes = append(writes, spends...)
	n := len(spends) + len(t.Refs)
	if t.Asset != nil && t.Asset.ID != "" {
		n++
	}
	if n > 0 {
		reads = make([]string, 0, n)
	}
	for _, in := range t.Inputs {
		if ref := in.Fulfills; ref != nil {
			reads = append(reads, ref.TxID)
		}
	}
	for _, id := range t.Refs {
		writes = append(writes, RefKeyPrefix+id)
		reads = append(reads, id)
	}
	if t.Asset != nil && t.Asset.ID != "" {
		reads = append(reads, t.Asset.ID)
	}
	m := t.storeMemo(memoFields{writes: writes, reads: reads})
	return m.writes, m.reads
}

// sigVerified reports a memoized successful VerifyFulfillments for the
// current cache generation.
func (t *Transaction) sigVerified(sc *CacheScope) bool {
	if sc.orDefault().disabled {
		return false
	}
	m := t.memo.Load()
	return m != nil && m.verified.Load()
}

// markSigVerified memoizes a successful VerifyFulfillments so the
// per-type condition sets (which re-run it during block validation)
// pay O(1) for a transaction the admission batch already proved.
func (t *Transaction) markSigVerified(sc *CacheScope) {
	if sc.orDefault().disabled {
		return
	}
	if m := t.memo.Load(); m != nil {
		m.verified.Store(true)
		return
	}
	next := &txMemo{}
	next.verified.Store(true)
	t.memo.CompareAndSwap(nil, next)
}
