package consensus

import (
	"crypto/sha3"
	"encoding/hex"
	"errors"
	"slices"
	"time"

	"smartchaindb/internal/mempool"
	"smartchaindb/internal/netsim"
	"smartchaindb/internal/obs"
	"smartchaindb/internal/simclock"
)

// Wire messages.

type msgTx struct{ Tx Tx }

type msgProposal struct {
	Height  int64
	Round   int
	BlockID string
	Txs     []Tx
}

type votePhase int

const (
	phasePrevote votePhase = iota
	phasePrecommit
)

type msgVote struct {
	Height  int64
	Round   int
	Phase   votePhase
	BlockID string
	Voter   netsim.NodeID
}

// Block sync (catch-up): a node that observes traffic for heights
// beyond its own fetches the missing committed blocks from the peer it
// heard from. Responses are trusted — the fault model is crash-only.
type msgBlockRequest struct {
	Height int64 // first height the requester is missing
}

type msgBlockResponse struct {
	Height       int64
	Txs          []Tx
	PeerApplied  int64 // responder's applied height, to keep pulling
	RequesterGap bool  // responder had nothing for the height
}

type hrKey struct {
	h int64
	r int
}

// admitItem is one transaction awaiting batched admission, tagged with
// its origin: client submissions are re-gossiped and get their
// rejections recorded; gossiped and injected copies are neither.
type admitItem struct {
	tx     Tx
	client bool
}

// injection is the transactions injected into one node for one instant:
// they enter its pool as one admission batch.
type injection struct {
	at  time.Duration
	txs []Tx
}

// node is one validator's consensus state machine.
type node struct {
	c   *Cluster
	id  netsim.NodeID
	app App
	// tracer is the app's stage tracer (nil without a registry): client
	// arrivals and injections are stamped here so the recv-stage dwell
	// spans arrival to admission pickup.
	tracer *obs.Tracer

	height int64 // height currently being decided

	// pool is the footprint-indexed mempool: pending transactions,
	// their spend claims, and the packing policy live here.
	pool *mempool.Pool
	// admitQueue buffers arrivals while an admission batch occupies
	// the node's execution resource; queued dedups it.
	admitQueue []admitItem
	queued     map[string]bool
	admitting  bool
	// injecting is the newest injection batch not yet admitted.
	injecting *injection

	committed map[string]bool // tx hashes applied locally
	reserved  map[string]bool // txs in a precommitted-but-unfinalized block (pipelining)

	proposals    map[hrKey]*msgProposal
	prevotes     map[hrKey]map[netsim.NodeID]string // voter -> blockID
	precommits   map[hrKey]map[netsim.NodeID]string
	sentPrevote  map[hrKey]bool
	sentPrecomit map[hrKey]bool
	// Tendermint locking rule: once this node precommits a block for a
	// height, it must not prevote any other block there, and when it
	// proposes in a later round it re-proposes the locked block. This
	// is what makes conflicting commits impossible across rounds.
	lockedID      map[int64]string
	lockedProp    map[int64]*msgProposal
	decided       map[int64][]Tx // heights decided but not yet applied in order
	applied       int64          // highest height applied locally
	appliedBlocks map[int64][]Tx // retained blocks served to lagging peers
	lastCatchUp   time.Duration  // rate limiter for block requests

	round         map[int64]int // current round per height
	roundTimer    simclock.EventID
	hasTimer      bool
	lastProposal  time.Duration // pacing for this node's proposer role
	lastBlockTime time.Duration // when the last block was applied locally
	busyUntil     time.Duration // the node's single execution resource
	// deferred is the join of an applied block that hands nothing on,
	// until it runs (runDeferred); the next block's CommitStart waits
	// for it, so there is at most one.
	deferred deferredJoin
	// prechecking waits for the early checks of the admission batch in
	// flight (App.PrecheckBatch); nil when none is.
	prechecking func()
	// commitFree is when the node's one commit slot next falls free:
	// at depth 2 a decided block occupies it instead of the execution
	// resource, which is what lets the next height's validation overlap
	// the in-flight apply. Unused at depth 1.
	commitFree time.Duration
}

// deferredJoin is the join of the block at height h, which hands
// nothing on.
type deferredJoin struct {
	h    int64
	join func()
}

func newNode(c *Cluster, id netsim.NodeID, app App) *node {
	n := &node{
		c:             c,
		id:            id,
		app:           app,
		height:        1,
		queued:        make(map[string]bool),
		committed:     make(map[string]bool),
		reserved:      make(map[string]bool),
		proposals:     make(map[hrKey]*msgProposal),
		prevotes:      make(map[hrKey]map[netsim.NodeID]string),
		precommits:    make(map[hrKey]map[netsim.NodeID]string),
		sentPrevote:   make(map[hrKey]bool),
		sentPrecomit:  make(map[hrKey]bool),
		lockedID:      make(map[int64]string),
		lockedProp:    make(map[int64]*msgProposal),
		decided:       make(map[int64][]Tx),
		appliedBlocks: make(map[int64][]Tx),
		round:         make(map[int64]int),
	}
	poolCfg := c.cfg.Mempool
	// The pool's semantic admission hook is the CheckTx-stage schema
	// and semantic validation (the first and second validations of
	// Fig. 4), batched through the app.
	poolCfg.Check = app.CheckTxBatch
	// Per-node registry: the node's mempool and the app's own layers
	// (ledger, storage, validation fence) record into the same one, so
	// a transaction's stage trace is complete on this node.
	poolCfg.Obs = app.Obs()
	n.tracer = poolCfg.Obs.Tracer()
	n.pool = mempool.New(poolCfg)
	return n
}

// Height returns the height the node is currently deciding.
func (n *node) Height() int64 { return n.height }

func (n *node) proposerFor(h int64, r int) netsim.NodeID {
	return netsim.NodeID((int(h) + r) % n.c.cfg.Nodes)
}

// charge serializes simulated work on the node's single execution
// resource and returns the completion time.
func (n *node) charge(d time.Duration) time.Duration {
	now := n.c.sched.Now()
	start := n.busyUntil
	if start < now {
		start = now
	}
	n.busyUntil = start + d
	return n.busyUntil
}

// receiveClientTx is the receiver-node path of Figure 4: semantic
// validation on one randomly selected node, then gossip. Arrivals are
// funneled through the batched admission pipeline.
func (n *node) receiveClientTx(tx Tx) {
	n.tracer.Arrive(tx.Hash())
	n.enqueueAdmission(tx, true)
}

// inject adds tx to the node's injection batch for instant at, opening
// a new batch if the newest one is for another instant.
func (n *node) inject(at time.Duration, tx Tx) {
	if b := n.injecting; b != nil && b.at == at {
		b.txs = append(b.txs, tx)
		return
	}
	b := &injection{at: at, txs: []Tx{tx}}
	n.injecting = b
	n.c.sched.At(at, func() {
		if n.injecting == b {
			n.injecting = nil
		}
		n.admitInjected(b.txs)
	})
}

// admitInjected admits one injection batch straight into the pool, the
// way a gossiped batch is admitted but off the admission queue and the
// execution resource: no receiver time, no gossip, no verdict recorded
// for a client. A transaction's first injection into a live validator
// is its submit time, and each validator's injection is its trace's
// arrival there.
func (n *node) admitInjected(txs []Tx) {
	if n.c.net.IsDown(n.id) {
		return
	}
	now := n.c.sched.Now()
	batch := make([]admitItem, 0, len(txs))
	for _, tx := range txs {
		h := tx.Hash()
		if n.committed[h] || n.pool.Contains(h) {
			continue
		}
		if _, ok := n.c.submitTimes[h]; !ok {
			n.c.submitTimes[h] = now
		}
		n.tracer.Arrive(h)
		batch = append(batch, admitItem{tx: tx})
	}
	if len(batch) > 0 {
		n.processAdmission(batch)
	}
}

// enqueueAdmission queues one transaction for the next admission batch.
func (n *node) enqueueAdmission(tx Tx, client bool) {
	h := tx.Hash()
	if n.queued[h] {
		// Already awaiting admission. A client copy arriving on top of
		// a queued gossip copy upgrades the item: the client is owed
		// the rejection verdict and the re-broadcast.
		if client {
			for i := range n.admitQueue {
				if n.admitQueue[i].tx.Hash() == h {
					n.admitQueue[i].client = true
					break
				}
			}
		}
		return
	}
	if n.committed[h] {
		return
	}
	if n.pool.Contains(h) {
		// Already pending: a resubmitted client copy is still gossiped
		// (the original receiver may have crashed before broadcasting)
		// and may still trigger a proposal; a gossiped duplicate is
		// dropped.
		if client {
			n.c.net.Broadcast(n.id, msgTx{Tx: tx})
			n.maybePropose()
		}
		return
	}
	n.queued[h] = true
	n.admitQueue = append(n.admitQueue, admitItem{tx: tx, client: client})
	n.maybeAdmit()
}

// maybeAdmit starts the next admission batch unless one is in flight.
// Client transactions occupy the node's execution resource for the
// batch's receiver-validation time ("Prepare and Sign" + semantic
// validation); gossiped copies ride along free, as in the
// one-at-a-time path, where only the receiver node pays validation
// time. Arrivals during the in-flight batch accumulate into the next
// one — batching by backpressure.
func (n *node) maybeAdmit() {
	if n.admitting || len(n.admitQueue) == 0 {
		return
	}
	size := n.pool.BatchSize()
	if size > len(n.admitQueue) {
		size = len(n.admitQueue)
	}
	batch := make([]admitItem, size)
	copy(batch, n.admitQueue[:size])
	n.admitQueue = n.admitQueue[size:]
	for _, it := range batch {
		delete(n.queued, it.tx.Hash())
	}
	n.admitting = true
	txs := make([]Tx, len(batch))
	var clientTxs []Tx
	for i, it := range batch {
		txs[i] = it.tx
		if it.client {
			clientTxs = append(clientTxs, it.tx)
		}
	}
	// The state-free checks run beside the simulation until the batch
	// completes; everything that reads state waits for that instant.
	wait := n.app.PrecheckBatch(txs)
	n.prechecking = wait
	done := n.c.sched.Now()
	if len(clientTxs) > 0 {
		done = n.charge(n.app.ReceiverBatchTime(clientTxs))
	}
	n.c.sched.At(done, func() {
		wait()
		n.prechecking = nil
		n.admitting = false
		if n.c.net.IsDown(n.id) {
			return // crashed while validating; the batch is lost and client drivers retry
		}
		n.processAdmission(batch)
		n.maybeAdmit()
	})
}

// processAdmission runs one batch through the pool and handles the
// per-transaction outcomes: admitted client transactions are gossiped,
// semantic rejections of client transactions are recorded as permanent
// (stopping the client's retry loop), and structural skips — duplicate
// IDs, spend keys claimed by a pending rival — are dropped without a
// verdict, since the rival may still be evicted and a retry succeed.
func (n *node) processAdmission(batch []admitItem) {
	txs := make([]Tx, 0, len(batch))
	clientOf := make(map[string]bool, len(batch))
	for _, it := range batch {
		h := it.tx.Hash()
		if n.committed[h] {
			continue // committed while queued (catch-up race)
		}
		txs = append(txs, it.tx)
		if it.client {
			clientOf[h] = true
		}
	}
	if len(txs) == 0 {
		return
	}
	res := n.pool.AdmitBatch(txs)
	var lateReserved []Tx
	for _, tx := range res.Admitted {
		if clientOf[tx.Hash()] {
			n.c.net.Broadcast(n.id, msgTx{Tx: tx})
		}
		// The transaction may already sit in a precommitted block whose
		// gossip beat it here (pipelining): keep it unpackable so the
		// next height cannot include it a second time.
		if n.reserved[tx.Hash()] {
			lateReserved = append(lateReserved, tx)
		}
	}
	if len(lateReserved) > 0 {
		n.pool.Reserve(lateReserved)
	}
	for h, err := range res.Rejected {
		if clientOf[h] {
			n.c.rejected[h] = err
		}
	}
	// A client copy racing an in-flight gossip copy of the same
	// transaction lands here as a duplicate skip: still gossip it, as
	// the one-at-a-time path did.
	for h, err := range res.Skipped {
		var dup *mempool.ErrDuplicate
		if clientOf[h] && errors.As(err, &dup) {
			for _, tx := range txs {
				if tx.Hash() == h {
					n.c.net.Broadcast(n.id, msgTx{Tx: tx})
					break
				}
			}
		}
	}
	if len(res.Admitted) > 0 {
		// Arm the liveness timer: if the proposer for this height is
		// down, the timeout moves every node to the next round and
		// proposer.
		if !n.hasTimer {
			n.armRoundTimer(n.height, n.round[n.height])
		}
		n.maybePropose()
	}
}

func (n *node) handle(msg netsim.Message) {
	switch m := msg.Payload.(type) {
	case msgTx:
		// CheckTx at the validator (the second validation of Fig. 4),
		// through the same batched admission pipeline.
		n.enqueueAdmission(m.Tx, false)
	case msgProposal:
		key := hrKey{m.Height, m.Round}
		if _, dup := n.proposals[key]; dup {
			return
		}
		cp := m
		n.proposals[key] = &cp
		n.maybeCatchUp(m.Height, msg.From)
		n.fastForwardRound(m.Height, m.Round)
		n.maybePrevote(m.Height, m.Round)
	case msgVote:
		n.maybeCatchUp(m.Height, msg.From)
		n.fastForwardRound(m.Height, m.Round)
		n.recordVote(m)
	case msgBlockRequest:
		if txs, ok := n.appliedBlocks[m.Height]; ok {
			n.c.net.Send(n.id, msg.From, msgBlockResponse{Height: m.Height, Txs: txs, PeerApplied: n.applied})
		} else {
			n.c.net.Send(n.id, msg.From, msgBlockResponse{Height: m.Height, PeerApplied: n.applied, RequesterGap: true})
		}
	case msgBlockResponse:
		if !m.RequesterGap && m.Height == n.applied+1 {
			n.applyBlock(m.Height, m.Txs)
			if n.height <= n.applied {
				n.advanceTo(n.applied + 1)
			}
			// Keep pulling until level with the responder.
			if n.applied < m.PeerApplied {
				n.c.net.Send(n.id, msg.From, msgBlockRequest{Height: n.applied + 1})
			}
		}
	}
}

// maybeCatchUp fires a block-sync request when traffic reveals the
// cluster is ahead of this node. Being exactly one height ahead is
// normal under pipelining, so the trigger is two or more.
func (n *node) maybeCatchUp(h int64, from netsim.NodeID) {
	if h <= n.height+1 {
		return
	}
	now := n.c.sched.Now()
	if n.lastCatchUp != 0 && now-n.lastCatchUp < n.c.cfg.BlockInterval {
		return
	}
	n.lastCatchUp = now
	n.c.net.Send(n.id, from, msgBlockRequest{Height: n.applied + 1})
}

// fastForwardRound adopts a higher round observed for the node's
// current height — how a node that fell behind (e.g. after a restart,
// or one whose timers drifted) re-synchronizes with the cluster.
func (n *node) fastForwardRound(h int64, r int) {
	if h != n.height || r <= n.round[h] {
		return
	}
	n.round[h] = r
	if n.hasTimer {
		n.c.sched.Cancel(n.roundTimer)
		n.hasTimer = false
	}
	n.armRoundTimer(h, r)
	n.maybePropose()
	n.maybePrevote(h, r)
}

// maybePropose cuts a block if this node is the proposer for its
// current height/round, the pacing interval elapsed, and there is work.
func (n *node) maybePropose() {
	h := n.height
	r := n.round[h]
	if n.proposerFor(h, r) != n.id {
		return
	}
	if _, already := n.proposals[hrKey{h, r}]; already {
		return
	}
	if n.pool.PendingCount() == 0 {
		return
	}
	// Block production is paced globally: the next block follows the
	// previous one (wherever it was proposed) by at least the
	// configured interval — the IBFT block period of the baseline and
	// BigchainDB's block cadence alike.
	earliest := n.lastProposal + n.c.cfg.BlockInterval
	if t := n.lastBlockTime + n.c.cfg.BlockInterval; t > earliest {
		earliest = t
	}
	now := n.c.sched.Now()
	if earliest < now {
		earliest = now
	}
	n.c.sched.At(earliest, func() { n.propose(h, r) })
}

func (n *node) propose(h int64, r int) {
	if n.c.net.IsDown(n.id) || n.height != h || n.round[h] != r {
		return
	}
	if _, already := n.proposals[hrKey{h, r}]; already {
		return
	}
	var block []Tx
	if locked := n.lockedProp[h]; locked != nil {
		// Locked: re-propose the locked block in this round.
		block = locked.Txs
	} else {
		// Pack first, validate only the packed block: propose-time
		// validation is O(block), never O(pending). Transactions the
		// block check rejects (stale inputs, intra-block conflicts)
		// are evicted and packing retries over the shrunken pool, so
		// repeated proposals converge exactly as the old full-pending
		// pre-filter did — without re-validating work that will not be
		// proposed this round.
		if n.c.cfg.Packer != nil {
			// Custom packers may hand back transactions the pool does
			// not hold, so eviction cannot guarantee a shrinking retry
			// set: validate once and propose the clean filtrate.
			packed := n.c.cfg.Packer(n.pool.Pending())
			if bad := n.blockInvalid(packed); len(bad) > 0 {
				n.pool.Remove(bad)
				drop := make(map[Tx]bool, len(bad))
				for _, tx := range bad {
					drop[tx] = true
				}
				packed = slices.DeleteFunc(packed, func(tx Tx) bool { return drop[tx] })
			}
			block = packed
		} else {
			for len(block) == 0 {
				// Conflict-aware (or FIFO, per the configured policy)
				// selection straight off the footprint index.
				packed := n.pool.Pack(n.c.cfg.MaxBlockTxs, n.c.cfg.Mempool.PackWorkers)
				if len(packed) == 0 {
					return
				}
				bad := n.blockInvalid(packed)
				if len(bad) == 0 {
					block = packed
					break
				}
				// Every rejected transaction came out of the pool, so
				// each retry evicts at least one and the loop
				// terminates with a clean block or an empty pool.
				n.pool.Remove(bad)
			}
		}
	}
	if len(block) == 0 {
		return
	}
	n.lastProposal = n.c.sched.Now()
	prop := msgProposal{Height: h, Round: r, BlockID: blockID(h, block), Txs: block}
	n.proposals[hrKey{h, r}] = &prop
	n.c.net.Broadcast(n.id, prop)
	n.maybePrevote(h, r)
}

// maybePrevote validates the proposal for (h, r) and votes once.
func (n *node) maybePrevote(h int64, r int) {
	if h != n.height || r != n.round[h] {
		return // buffered: revisited when the node reaches (h, r)
	}
	key := hrKey{h, r}
	prop, ok := n.proposals[key]
	if !ok || n.sentPrevote[key] {
		return
	}
	// Locking rule: never prevote a block other than the one this node
	// precommitted for this height.
	if locked, isLocked := n.lockedID[h]; isLocked && prop.BlockID != locked {
		return
	}
	n.sentPrevote[key] = true
	done := n.charge(n.blockValidationTime(prop.Txs))
	n.c.sched.At(done, func() {
		if n.c.net.IsDown(n.id) {
			return
		}
		if bad := n.blockInvalid(prop.Txs); len(bad) > 0 {
			// Withhold the vote and evict the offending transactions
			// locally so repeated rounds converge instead of
			// re-proposing the same invalid block forever; the pool
			// releases their spend claims for a later valid spender.
			n.pool.Remove(bad)
			return
		}
		vote := msgVote{Height: h, Round: r, Phase: phasePrevote, BlockID: prop.BlockID, Voter: n.id}
		n.recordVote(vote)
		n.c.net.Broadcast(n.id, vote)
	})
}

// blockInvalid re-validates a packed block, re-using still-fresh
// admission verdicts: the pool's freshness flags let the app skip
// semantic condition sets for transactions whose CheckTx verdict still
// describes committed state. Freshness is deliberately re-derived here
// rather than reused from the earlier blockValidationTime call: a
// block may commit between pricing the validation and running it, and
// skipping a semantic check on a since-staled verdict would be unsound
// — the cost model may undercharge, the verdicts may not.
//
// A clean validation flows back into the pool: it re-proved every
// member against committed state (pinned by the pre-validation epoch),
// so singleton-conflict-group members become fresh again and the next
// round — the proposer's own prevote, or a re-proposal after a round
// change — skips their semantic checks instead of re-validating the
// same verdicts every round.
func (n *node) blockInvalid(txs []Tx) []Tx {
	epoch := n.pool.Epoch()
	bad := n.app.ValidateBlockFresh(txs, n.pool.Fresh(txs))
	if len(bad) == 0 {
		n.pool.MarkValidated(txs, epoch)
	}
	return bad
}

// blockValidationTime is the simulated cost of blockInvalid.
func (n *node) blockValidationTime(txs []Tx) time.Duration {
	return n.app.ValidationTimeFresh(txs, n.pool.Fresh(txs))
}

func (n *node) recordVote(v msgVote) {
	key := hrKey{v.Height, v.Round}
	var set map[hrKey]map[netsim.NodeID]string
	if v.Phase == phasePrevote {
		set = n.prevotes
	} else {
		set = n.precommits
	}
	votes, ok := set[key]
	if !ok {
		votes = make(map[netsim.NodeID]string)
		set[key] = votes
	}
	if _, dup := votes[v.Voter]; dup {
		return
	}
	votes[v.Voter] = v.BlockID
	n.checkQuorum(v.Height, v.Round)
}

func (n *node) countFor(votes map[netsim.NodeID]string, blockID string) int {
	c := 0
	for _, bid := range votes {
		if bid == blockID {
			c++
		}
	}
	return c
}

func (n *node) checkQuorum(h int64, r int) {
	key := hrKey{h, r}
	prop, ok := n.proposals[key]
	if !ok {
		return
	}
	q := Quorum(n.c.cfg.Nodes)
	// Prevote quorum -> precommit (once) and lock on the block.
	if !n.sentPrecomit[key] && n.countFor(n.prevotes[key], prop.BlockID) >= q && n.sentPrevote[key] {
		n.sentPrecomit[key] = true
		n.lockedID[h] = prop.BlockID
		n.lockedProp[h] = prop
		vote := msgVote{Height: h, Round: r, Phase: phasePrecommit, BlockID: prop.BlockID, Voter: n.id}
		n.recordVote(vote)
		n.c.net.Broadcast(n.id, vote)
		if n.c.cfg.Pipelined {
			// Pipelining: reserve the block's transactions and let the
			// next height start before this one finalizes.
			for _, tx := range prop.Txs {
				n.reserved[tx.Hash()] = true
			}
			n.pool.Reserve(prop.Txs)
			if n.height == h {
				n.advanceTo(h + 1)
			}
		}
	}
	// Precommit quorum -> decide.
	if _, done := n.decided[h]; !done && !n.isApplied(h) && n.countFor(n.precommits[key], prop.BlockID) >= q {
		n.decide(h, prop.Txs)
	}
}

func (n *node) isApplied(h int64) bool { return h <= n.applied }

// decide finalizes height h and applies decided blocks in height order.
func (n *node) decide(h int64, txs []Tx) {
	n.decided[h] = txs
	for {
		next, ok := n.decided[n.applied+1]
		if !ok {
			break
		}
		n.applyBlock(n.applied+1, next)
	}
	if n.height <= n.applied {
		n.advanceTo(n.applied + 1)
	}
}

func (n *node) applyBlock(h int64, txs []Tx) {
	if h <= n.applied {
		return // already applied (catch-up race)
	}
	delete(n.decided, h)
	delete(n.lockedID, h)
	delete(n.lockedProp, h)
	n.applied = h
	n.appliedBlocks[h] = txs
	n.lastBlockTime = n.c.sched.Now()
	for _, tx := range txs {
		hash := tx.Hash()
		n.committed[hash] = true
		delete(n.reserved, hash)
	}
	// Mempool compaction is an index sweep: each committed transaction
	// leaves the pool, each spend key it consumed evicts the pending
	// rival claiming it, and each write key stales the conflicting
	// admission verdicts — no rescan of the pending set.
	n.pool.RemoveCommitted(txs)
	// The block starts applying immediately, once the join the node
	// put off has run; what differs by depth is the resource its
	// CommitTime occupies and when a join that hands something on — a
	// nested parent's children — runs. A join that hands nothing on
	// waits until the node needs it.
	n.runDeferred(h)
	join := n.app.CommitStart(h, txs)
	handsOn := n.app.HandsOn(txs)
	if !handsOn {
		n.deferred = deferredJoin{h: h, join: join}
	}
	if n.c.cfg.CommitDepth < 2 {
		// Depth 1, serialized commit: the block occupies the node's
		// single execution resource, delaying the next height's
		// validation and admission — the cost the overlapped pipeline
		// hides on its separate commit resource — and joins now.
		n.charge(n.app.CommitTime(txs))
		if handsOn {
			join()
		}
	} else {
		// Overlapped commit: the block occupies the node's commit slot
		// (not the execution resource validation charges), starting
		// once the previous block has left it, and joins when its
		// CommitTime has elapsed there. The next height's validation
		// proceeds meanwhile; reads into the unsealed write footprint
		// wait on the app's commit fence.
		start := n.commitFree
		if now := n.c.sched.Now(); start < now {
			start = now
		}
		n.commitFree = start + n.app.CommitTime(txs)
		if handsOn {
			n.c.sched.At(n.commitFree, func() {
				n.runDeferred(h)
				join()
			})
		}
	}
	n.c.recordCommit(txs)
}

// runDeferred runs the deferred join if its block is below height h.
func (n *node) runDeferred(h int64) {
	if d := n.deferred; d.join != nil && d.h < h {
		n.deferred = deferredJoin{}
		d.join()
	}
}

// advanceTo moves the node to deciding height h and re-arms the round
// timer.
func (n *node) advanceTo(h int64) {
	if h <= n.height && n.hasTimer {
		return
	}
	n.height = h
	n.enterHeight(h)
}

func (n *node) enterHeight(h int64) {
	if n.hasTimer {
		n.c.sched.Cancel(n.roundTimer)
		n.hasTimer = false
	}
	n.armRoundTimer(h, n.round[h])
	n.maybeAdmit() // drain arrivals buffered across a crash/restart
	n.maybePropose()
	// A proposal or votes for this height may already be buffered.
	n.maybePrevote(h, n.round[h])
	n.checkQuorum(h, n.round[h])
}

func (n *node) armRoundTimer(h int64, r int) {
	// Only keep the liveness timer while there is work outstanding;
	// otherwise the simulation would never quiesce.
	if n.pool.PendingCount() == 0 {
		return
	}
	n.hasTimer = true
	n.roundTimer = n.c.sched.After(n.c.cfg.ProposeTimeout, func() {
		n.hasTimer = false
		if n.c.net.IsDown(n.id) || n.height != h || n.isApplied(h) {
			return
		}
		if n.round[h] != r {
			return
		}
		n.round[h] = r + 1
		n.armRoundTimer(h, r+1)
		n.maybePropose()
		n.maybePrevote(h, r+1)
	})
}

// blockID identifies a block by height and content only — NOT by
// round, so a locked block re-proposed in a later round keeps its
// identity and locked validators recognize and re-prevote it.
func blockID(h int64, txs []Tx) string {
	hs := sha3.New256()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(h >> (8 * i))
	}
	hs.Write(buf[:])
	for _, tx := range txs {
		hs.Write([]byte(tx.Hash()))
	}
	return hex.EncodeToString(hs.Sum(nil))
}
