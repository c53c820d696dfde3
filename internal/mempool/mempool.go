package mempool

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"smartchaindb/internal/obs"
	"smartchaindb/internal/parallel"
	"smartchaindb/internal/txn"
)

// CheckFn validates an admission batch semantically and returns the
// per-transaction errors, keyed by transaction hash. Transactions
// absent from the result are admitted. It is the shape of
// consensus.App.CheckTxBatch, which the engine and the shards wire in
// as it is: the server's CheckTx-stage pipeline (schema validation
// plus the condition sets, dispatched over the dependency-aware
// parallel scheduler). A nil CheckFn admits every structurally sound
// transaction, which the synthetic engine tests and packing benchmarks
// use.
type CheckFn func(txs []Tx) map[string]error

// Policy selects how Pack composes blocks.
type Policy int

const (
	// PackFIFO packs in arrival order — the pre-mempool behaviour and
	// the baseline every makespan improvement is measured against.
	PackFIFO Policy = iota
	// PackMakespan balances conflict-group chains across the
	// validators' workers so the packed block's parallel-validation
	// makespan is minimized. With PackWorkers <= 1 there is nothing to
	// balance and it degenerates to FIFO.
	PackMakespan
)

// Config parameterizes a pool. The zero value is usable: FIFO packing,
// batches of the default size, no semantic check.
type Config struct {
	// BatchSize caps one admission batch (default 64). The consensus
	// receiver path accumulates arrivals up to this size while the
	// node's execution resource is busy with the previous batch.
	BatchSize int
	// Policy selects the packing policy.
	Policy Policy
	// PackWorkers is the validation worker count PackMakespan balances
	// for — the proposers' model of the validators' parallelism.
	PackWorkers int
	// Check is the semantic admission validator (may be nil; see CheckFn).
	Check CheckFn
	// Obs attaches an observability registry: admission counters and
	// phase histograms (mempool.*) plus the per-transaction stage
	// tracer. Nil keeps the no-op build.
	Obs *obs.Registry
}

func (c *Config) fill() {
	if c.BatchSize <= 0 {
		c.BatchSize = 64
	}
}

// ErrDuplicate rejects a transaction whose ID the pool already holds.
type ErrDuplicate struct{ TxHash string }

func (e *ErrDuplicate) Error() string {
	return fmt.Sprintf("mempool: transaction %.12s already pending", e.TxHash)
}

// ErrSpendClaimed rejects a transaction that spends an output another
// pending transaction already claims — at most one of the two can ever
// commit, and the pool keeps the first.
type ErrSpendClaimed struct {
	TxHash    string
	Key       string
	ClaimedBy string
}

func (e *ErrSpendClaimed) Error() string {
	return fmt.Sprintf("mempool: %s already claimed by pending transaction %.12s", e.Key, e.ClaimedBy)
}

// entry is one pooled transaction. Arrival order is the order slice's
// order; entries carry no sequence number of their own.
type entry struct {
	tx       Tx
	fp       txn.Footprint
	reserved bool
	gone     bool
	// stale is the verdict-reuse flag: false means the admission
	// verdict was computed against committed state alone and no block
	// committed since has written into this transaction's footprint —
	// so block validation may skip its semantic re-check. It starts
	// true for transactions whose admission batch contained a
	// footprint-conflicting member (their verdict may have leaned on
	// in-flight, not-yet-committed state) and flips true whenever the
	// commit sweep observes a conflicting write.
	stale bool
}

// Pool is the footprint-indexed mempool.
type Pool struct {
	cfg Config
	ob  poolObs

	mu     sync.RWMutex
	byHash map[string]*entry
	order  []*entry // arrival order, with tombstones compacted lazily
	live   int
	// claims is the spend index: spend key -> hash of the pending
	// transaction (or the Hold owner) claiming it.
	claims map[string]string
	// keyIndex maps every footprint key (reads and writes) of every
	// live entry to its holders — the staleness sweep: when a block
	// commits, each of its write keys marks the pending holders stale
	// in O(holders), independent of pool size. Almost every key has one
	// holder, so keyIndex holds a key's first holder in place and
	// keyMore the rest, only for a key with two or more: no key costs
	// a set of its own. An entry holds a key once however often its
	// footprint names it.
	keyIndex map[string]*entry
	keyMore  map[string][]*entry
	// sweepEpoch counts RemoveCommitted sweeps. An admission batch
	// records it before semantic validation; candidates inserted after
	// the epoch moved enter stale — their verdict raced a commit whose
	// write keys could not have marked them (they were not indexed
	// yet), so freshness must not be assumed.
	sweepEpoch uint64
}

// New builds an empty pool.
func New(cfg Config) *Pool {
	cfg.fill()
	return &Pool{
		cfg:      cfg,
		ob:       newPoolObs(cfg.Obs),
		byHash:   make(map[string]*entry),
		claims:   make(map[string]string),
		keyIndex: make(map[string]*entry),
		keyMore:  make(map[string][]*entry),
	}
}

// claimed returns the first of keys that an earlier member of the
// admission batch (batch) or the pool already claims, and its claimant.
func (p *Pool) claimed(keys []string, batch map[string]string) (key, owner string, ok bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	for _, key := range keys {
		if owner, ok := batch[key]; ok {
			return key, owner, true
		}
		if owner, ok := p.claims[key]; ok {
			return key, owner, true
		}
	}
	return "", "", false
}

// Contains reports whether the pool holds a transaction.
func (p *Pool) Contains(hash string) bool {
	p.mu.RLock()
	_, ok := p.byHash[hash]
	p.mu.RUnlock()
	return ok
}

// PendingCount returns the packable transaction count (unreserved).
func (p *Pool) PendingCount() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	n := 0
	for _, e := range p.order {
		if !e.gone && !e.reserved {
			n++
		}
	}
	return n
}

// Pending returns the packable transactions in arrival order.
func (p *Pool) Pending() []Tx {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]Tx, 0, p.live)
	for _, e := range p.order {
		if !e.gone && !e.reserved {
			out = append(out, e.tx)
		}
	}
	return out
}

// BatchSize exposes the configured admission batch cap.
func (p *Pool) BatchSize() int { return p.cfg.BatchSize }

// AdmitResult reports one admission batch's outcome.
type AdmitResult struct {
	// Admitted holds the transactions now in the pool, batch order.
	Admitted []Tx
	// Rejected holds semantic CheckFn failures — the rejections a
	// receiver reports back to the client as permanent.
	Rejected map[string]error
	// Skipped holds structural screen-outs: duplicate IDs and spend
	// claims already held by a pending rival. These are not permanent
	// verdicts (the rival may yet be evicted), so callers treat them
	// as "drop and let the client retry".
	Skipped map[string]error
}

// AdmitBatch pushes one batch through the admission pipeline:
//
//  1. Structural screen against the indexes — duplicate IDs (in the
//     pool or earlier in the batch) and already-claimed spend keys are
//     skipped in O(1) per key, before any semantic work.
//  2. Semantic validation of the survivors through CheckFn (the
//     expensive stage — signature checks and condition sets — which
//     the server runs concurrently over conflict groups).
//  3. Insertion under the pool lock, re-verifying the structural
//     claims that may have been lost to a concurrent batch.
func (p *Pool) AdmitBatch(txs []Tx) AdmitResult {
	res := AdmitResult{
		Rejected: make(map[string]error),
		Skipped:  make(map[string]error),
	}
	// Close the recv stage for every batch member: dwell is the time
	// since the receiver's Arrive (zero for transactions that entered
	// through a path with no arrival stamp).
	if p.ob.tracer != nil {
		p.ob.tracer.MarkReceived(p.ob.hashesOf(txs))
	}
	p.ob.batchSize.Observe(int64(len(txs)))
	screenT := time.Now()
	// The screen's survivors in batch order, with their footprints.
	cands := make([]Tx, 0, len(txs))
	fps := make([]txn.Footprint, 0, len(txs))
	p.mu.RLock()
	epoch := p.sweepEpoch
	p.mu.RUnlock()
	batchSeen := make(map[string]bool, len(txs))
	batchClaims := make(map[string]string)
	for _, tx := range txs {
		h := tx.Hash()
		if batchSeen[h] || p.Contains(h) {
			res.Skipped[h] = &ErrDuplicate{TxHash: h}
			p.ob.screenDup.Inc()
			continue
		}
		fp := ForTransaction(tx)
		if key, owner, ok := p.claimed(fp.Spends, batchClaims); ok {
			res.Skipped[h] = &ErrSpendClaimed{TxHash: h, Key: key, ClaimedBy: owner}
			p.ob.screenClaimed.Inc()
			continue
		}
		batchSeen[h] = true
		for _, key := range fp.Spends {
			batchClaims[key] = h
		}
		cands = append(cands, tx)
		fps = append(fps, fp)
	}
	screenD := time.Since(screenT)
	p.ob.screenNs.ObserveDuration(screenD)
	if p.ob.tracer != nil && len(cands) > 0 {
		p.ob.tracer.ObserveEach(p.ob.hashesOf(cands), obs.StageAdmitScreen, screenD)
	}

	// dep marks a candidate that footprint-conflicts with another
	// member of this batch: its semantic verdict may have consulted
	// in-flight batch state (Tx/Output hit the admission batch before
	// committed state), so it enters the pool stale — ineligible for
	// verdict reuse until block validation re-proves it.
	dep := make([]bool, len(cands))
	if len(cands) > 1 {
		for _, g := range parallel.GroupFootprints(fps) {
			if len(g) > 1 {
				for _, i := range g {
					dep[i] = true
				}
			}
		}
	}

	var verifyD time.Duration
	if p.cfg.Check != nil && len(cands) > 0 {
		verifyT := time.Now()
		errs := p.cfg.Check(cands)
		verifyD = time.Since(verifyT)
		p.ob.verifyNs.ObserveDuration(verifyD)
		kept := 0
		for i, tx := range cands {
			if err, bad := errs[tx.Hash()]; bad {
				res.Rejected[tx.Hash()] = err
				p.ob.rejected.Inc()
				continue
			}
			cands[kept], fps[kept], dep[kept] = tx, fps[i], dep[i]
			kept++
		}
		cands, fps, dep = cands[:kept], fps[:kept], dep[:kept]
	}
	// Surviving candidates carry the semantic phase's latency (zero
	// when admission runs without a CheckFn).
	if p.ob.tracer != nil && len(cands) > 0 {
		p.ob.tracer.ObserveEach(p.ob.hashesOf(cands), obs.StageAdmitVerify, verifyD)
	}

	// Rescue round: a transaction screened out because a same-batch
	// rival claimed its spend key is admittable after all if that
	// rival just failed semantic validation — re-admit it after the
	// survivors instead of making the client wait out a retry
	// round-trip. Recursion terminates: each round's input is strictly
	// smaller than the batch that produced it.
	var rescues []Tx
	for _, tx := range txs {
		h := tx.Hash()
		clash, ok := res.Skipped[h].(*ErrSpendClaimed)
		if !ok {
			continue
		}
		if _, rejected := res.Rejected[clash.ClaimedBy]; rejected {
			rescues = append(rescues, tx)
			delete(res.Skipped, h)
		}
	}

	if len(cands) > 0 {
		// The batch's entries share one allocation: they arrive
		// together and mostly leave together, when their block commits.
		slab := make([]entry, len(cands))
		p.mu.Lock()
		for i, tx := range cands {
			h, fp := tx.Hash(), fps[i]
			if _, dup := p.byHash[h]; dup {
				res.Skipped[h] = &ErrDuplicate{TxHash: h}
				p.ob.screenDup.Inc()
				continue
			}
			// Re-verify the claims under the pool lock: a concurrent
			// batch may have taken one between the screen and here.
			lost := false
			for _, key := range fp.Spends {
				if owner, ok := p.claims[key]; ok {
					res.Skipped[h] = &ErrSpendClaimed{TxHash: h, Key: key, ClaimedBy: owner}
					p.ob.screenClaimed.Inc()
					lost = true
					break
				}
			}
			if lost {
				continue
			}
			// A commit sweep that ran while this batch validated could
			// not see these entries in the key index; treat the whole
			// batch's verdicts as conservatively stale in that case.
			e := &slab[i]
			*e = entry{tx: tx, fp: fp, stale: dep[i] || p.sweepEpoch != epoch}
			p.byHash[h] = e
			p.order = append(p.order, e)
			p.live++
			p.indexKeysLocked(e)
			for _, key := range fp.Spends {
				p.claims[key] = h
			}
			res.Admitted = append(res.Admitted, tx)
			p.ob.admitted.Inc()
		}
		p.ob.live.Set(int64(p.live))
		p.mu.Unlock()
	}

	if len(rescues) > 0 {
		sub := p.AdmitBatch(rescues)
		res.Admitted = append(res.Admitted, sub.Admitted...)
		for h, err := range sub.Rejected {
			res.Rejected[h] = err
		}
		for h, err := range sub.Skipped {
			res.Skipped[h] = err
		}
	}
	if p.ob.tracer != nil && (len(res.Rejected) > 0 || len(res.Skipped) > 0) {
		drop := make([]string, 0, len(res.Rejected)+len(res.Skipped))
		for h := range res.Rejected {
			drop = append(drop, h)
		}
		for h, err := range res.Skipped {
			// A duplicate shares its hash with the pooled original, whose
			// live trace must survive the rejection of its copy.
			if _, dup := err.(*ErrDuplicate); !dup {
				drop = append(drop, h)
			}
		}
		p.ob.tracer.Drop(drop)
	}
	return res
}

// Hold claims spend keys on behalf of a cross-shard transaction that
// never enters this pool: while held, the admission screen rejects any
// pooled rival spending them, exactly as if a pending transaction held
// the claim. All-or-nothing — if any key is already claimed by a
// different owner, nothing is taken and the clash is returned (the
// coordinator's signal to abort). Holding a key the same owner already
// holds is a no-op, so retries are idempotent. Pair with Release; the
// commit sweep does not release foreign holds.
func (p *Pool) Hold(keys []string, owner string) error {
	// The pool lock excludes AdmitBatch's insert phase and rival Holds,
	// making check-then-claim atomic against both.
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, key := range keys {
		if cur, ok := p.claims[key]; ok && cur != owner {
			return &ErrSpendClaimed{TxHash: owner, Key: key, ClaimedBy: cur}
		}
	}
	for _, key := range keys {
		p.claims[key] = owner
	}
	return nil
}

// Release drops the owner's claim holds. Keys the owner does not hold
// (raced by an eviction, or never taken) are left untouched.
func (p *Pool) Release(keys []string, owner string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, key := range keys {
		if p.claims[key] == owner {
			delete(p.claims, key)
		}
	}
}

// Reserve marks transactions as belonging to a precommitted-but-not-
// finalized block (consensus pipelining); Pack and Pending skip them.
// Unknown hashes are ignored.
func (p *Pool) Reserve(txs []Tx) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, tx := range txs {
		if e, ok := p.byHash[tx.Hash()]; ok {
			e.reserved = true
		}
	}
}

// Remove evicts transactions (e.g. ones block validation rejected) and
// releases their spend claims. Unknown hashes are ignored.
func (p *Pool) Remove(txs []Tx) {
	p.mu.Lock()
	for _, tx := range txs {
		if e, ok := p.byHash[tx.Hash()]; ok {
			p.dropLocked(e)
		}
	}
	p.compactLocked()
	p.ob.live.Set(int64(p.live))
	p.mu.Unlock()
	// Evicted transactions leave the pipeline uncommitted.
	if p.ob.tracer != nil {
		p.ob.tracer.Drop(p.ob.hashesOf(txs))
	}
}

// RemoveCommitted is the block-commit compaction: an index sweep, not a
// rescan. Each committed transaction is dropped from the pool, each of
// its spend keys evicts the pending rival claiming it (that rival
// spends an output the chain just consumed, so it can never commit),
// and each of its write keys marks the pending transactions whose
// footprints it touches stale — their admission verdicts no longer
// describe committed state and block validation must re-prove them.
// Cost is linear in the block's footprint keys, independent of pool
// size.
func (p *Pool) RemoveCommitted(txs []Tx) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.sweepEpoch++
	for _, tx := range txs {
		h := tx.Hash()
		e, pooled := p.byHash[h]
		var writes []string
		if pooled {
			writes = e.fp.Writes
		} else {
			// Committed through catch-up without ever entering this
			// pool: derive the footprint to sweep by.
			fp := ForTransaction(tx)
			writes = fp.Writes
			for _, key := range fp.Spends {
				if owner, ok := p.claims[key]; ok && owner != h {
					if rival, live := p.byHash[owner]; live {
						p.dropLocked(rival)
					}
				}
			}
		}
		// Staleness sweep: every pending holder of a key this commit
		// wrote loses its cached verdict.
		for _, key := range writes {
			if holder, ok := p.keyIndex[key]; ok {
				holder.stale = true
				for _, holder := range p.keyMore[key] {
					holder.stale = true
				}
			}
		}
		if pooled {
			// Dropping the entry releases its cached claims, and no
			// rival can have held a spend key it held — no rival sweep
			// needed.
			p.dropLocked(e)
		}
	}
	p.compactLocked()
	p.ob.live.Set(int64(p.live))
}

// Fresh reports, per transaction, whether the pool holds it with a
// still-valid admission verdict: validated against committed state
// alone, with no conflicting write committed since. Block validation
// uses the flags to skip semantic re-checks for the fresh ones
// (structural intra-block checks always re-run). Unknown transactions
// report false.
func (p *Pool) Fresh(txs []Tx) []bool {
	out := make([]bool, len(txs))
	p.mu.RLock()
	defer p.mu.RUnlock()
	for i, tx := range txs {
		if e, ok := p.byHash[tx.Hash()]; ok {
			out[i] = !e.stale
		}
		if out[i] {
			p.ob.reuseHits.Inc()
		} else {
			p.ob.reuseMisses.Inc()
		}
	}
	return out
}

// Epoch returns the current commit-sweep epoch. Callers that intend to
// MarkValidated snapshot it before validation begins; a sweep in
// between moves the epoch and voids the marking.
func (p *Pool) Epoch() uint64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.sweepEpoch
}

// MarkValidated re-arms verdict reuse after a clean block validation:
// a ValidateBlock pass that rejected nothing re-proved every member
// against committed state, so pooled members whose conflict group
// *within the block* is a singleton get their stale flag cleared —
// their re-proven verdict depends on committed state alone. Members of
// multi-transaction groups stay stale: their clean verdict leaned on
// in-block prior state (an intra-block spend chain), which is not
// committed state until the block itself commits.
//
// epoch is the Epoch() snapshot taken before validation started. If a
// commit sweep ran since, the marking is dropped wholesale — the
// sweep's staling must not be overwritten by a verdict proven against
// pre-sweep state. This closes the PR 4 follow-up: without it, only
// admission granted freshness, so conflict-heavy pools re-validated
// every propose round even after a clean validation.
func (p *Pool) MarkValidated(txs []Tx, epoch uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.sweepEpoch != epoch {
		return
	}
	entries := make([]*entry, len(txs))
	fps := make([]txn.Footprint, len(txs))
	for i, tx := range txs {
		// Non-pooled members (e.g. from a foreign proposer) still
		// contribute their footprints: they decide whether a pooled
		// member's group is a singleton.
		if e, ok := p.byHash[tx.Hash()]; ok {
			entries[i], fps[i] = e, e.fp
		} else {
			fps[i] = ForTransaction(tx)
		}
	}
	for _, g := range parallel.GroupFootprints(fps) {
		if len(g) != 1 {
			continue
		}
		if e := entries[g[0]]; e != nil && !e.gone {
			e.stale = false
		}
	}
}

// indexKeysLocked registers an entry under every footprint key the
// staleness sweep may probe. Caller holds p.mu.
func (p *Pool) indexKeysLocked(e *entry) {
	for _, keys := range [][]string{e.fp.Writes, e.fp.Reads} {
		for _, key := range keys {
			first, ok := p.keyIndex[key]
			if !ok {
				p.keyIndex[key] = e
				continue
			}
			// The entry's keys go in one after another, so if it holds
			// this one already it is the one it put in last.
			more := p.keyMore[key]
			if first != e && (len(more) == 0 || more[len(more)-1] != e) {
				p.keyMore[key] = append(more, e)
			}
		}
	}
}

// unindexKeysLocked removes an entry from the key index. Caller holds
// p.mu.
func (p *Pool) unindexKeysLocked(e *entry) {
	for _, keys := range [][]string{e.fp.Writes, e.fp.Reads} {
		for _, key := range keys {
			more := p.keyMore[key]
			last := len(more) - 1
			i := last // the overflow slot that empties
			if p.keyIndex[key] == e {
				if last < 0 {
					delete(p.keyIndex, key)
					continue
				}
				p.keyIndex[key] = more[last]
			} else if i = slices.Index(more, e); i < 0 {
				continue // a repeat of a key already let go
			}
			more[i], more[last] = more[last], nil
			if last == 0 {
				delete(p.keyMore, key)
			} else {
				p.keyMore[key] = more[:last]
			}
		}
	}
}

// dropLocked removes one entry and releases its claims. Caller holds p.mu.
func (p *Pool) dropLocked(e *entry) {
	if e.gone {
		return
	}
	h := e.tx.Hash()
	e.gone = true
	p.live--
	delete(p.byHash, h)
	p.unindexKeysLocked(e)
	for _, key := range e.fp.Spends {
		if p.claims[key] == h {
			delete(p.claims, key)
		}
	}
}

// compactLocked rewrites the arrival list once tombstones dominate,
// keeping removal amortized O(1). Caller holds p.mu.
func (p *Pool) compactLocked() {
	if len(p.order) < 32 || len(p.order) < 2*p.live {
		return
	}
	kept := make([]*entry, 0, p.live)
	for _, e := range p.order {
		if !e.gone {
			kept = append(kept, e)
		}
	}
	p.order = kept
}
