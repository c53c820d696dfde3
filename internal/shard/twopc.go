package shard

import (
	"fmt"
	"strconv"
	"time"

	"smartchaindb/internal/ledger"
	"smartchaindb/internal/mempool"
	"smartchaindb/internal/txn"
	"smartchaindb/internal/txtype"
)

// Cross-shard two-phase commit, coordinator side. The home shard
// coordinates; participants are exactly the shards the transaction's
// footprint touches. The protocol over each participant's ledger hooks
// (ledger/prepare.go):
//
//  1. hold    — claim the owned spend keys in every participant's
//               mempool (all-or-nothing per shard); rivals are now
//               rejected at admission, so no local block can consume
//               the inputs mid-protocol.
//  2. stage   — the coordinator runs TRANSFER's own condition set
//               over the participants' views (crossView), then each
//               participant checks and stages its owned share against
//               committed state. Nothing durable yet: any failure just
//               releases the holds.
//  3. prepare — each participant durably logs its staged share as a
//               PREPARE record: the vote. From here the transaction
//               is in doubt across a crash until a decision lands.
//  4. decide  — the home shard's apply is the commit point: one
//               atomic WAL group seals its effects, records the
//               commit decision, and clears its prepare record. The
//               decision exists ⟺ the home shard applied.
//  5. apply   — the remaining participants apply the same way, each
//               recording the decision locally.
//
// A crash between 3 and 5 leaves prepare records on the laggards;
// recovery (recovery.go) finds the home shard's decision and drives
// them to the same outcome, or presumes abort when no decision
// exists anywhere.

// decisionDoc renders the coordinator's decision record.
func decisionDoc(txID, outcome string, participants []int) map[string]any {
	parts := make([]any, len(participants))
	for i, p := range participants {
		parts[i] = float64(p)
	}
	return map[string]any{
		"kind":         "decision",
		"tx":           txID,
		"outcome":      outcome,
		"participants": parts,
	}
}

// event fires the configured 2PC event hook. A step one shard takes
// names it (shard >= 0: "prepare@1"); the name is built only when a
// hook listens.
func (c *Cluster) event(step string, shard int, txID string) {
	if c.cfg.EventHook == nil {
		return
	}
	if shard >= 0 {
		step += "@" + strconv.Itoa(shard)
	}
	c.cfg.EventHook(step + ":" + txID[:8])
}

// commitCross runs the two-phase commit for a routed cross-shard
// transaction and blocks until its global outcome. One coordinator
// round runs at a time (xmu); local commits on all shards proceed
// concurrently, fenced off the inputs by the mempool holds.
func (c *Cluster) commitCross(t *txn.Transaction, r Route) error {
	c.xmu.Lock()
	defer c.xmu.Unlock()

	home := c.shards[r.Home]
	// Only TRANSFER crosses shards: every other operation reads
	// referenced state (auction chains, escrow) the router keeps
	// co-located.
	if t.Operation != txn.OpTransfer {
		return fmt.Errorf("shard: cross-shard %s is not supported", t.Operation)
	}
	if err := home.Node.Schemas().ValidateTx(t); err != nil {
		return err
	}
	for _, id := range r.Participants {
		c.shards[id].ob.crossTxs.Inc()
	}

	// Phase 1: claim the inputs in every participant's admission
	// screen. All-or-nothing per shard; a clash anywhere aborts with
	// nothing durable taken.
	held := make(map[int][]string, len(r.Participants))
	release := func() {
		for id, keys := range held {
			c.shards[id].pool.Release(keys, t.ID)
		}
	}
	spends := t.Footprint().Spends
	for _, id := range r.Participants {
		var keys []string
		for i, s := range r.Inputs {
			if s == id {
				keys = append(keys, spends[i])
			}
		}
		if len(keys) == 0 {
			continue // the home shard may own no inputs (pure migration)
		}
		if err := c.shards[id].pool.Hold(keys, t.ID); err != nil {
			release()
			return err
		}
		held[id] = keys
	}
	c.event("hold", -1, t.ID)

	// Phase 2: the transfer's own condition set decides, as it would
	// on one node; then each participant stages its share.
	ctx := &txtype.Context{State: c.crossView(r.Home), Reserved: home.Node.Reserved()}
	if err := home.Node.Types().Validate(ctx, t); err != nil {
		release()
		return err
	}
	prepared := make(map[int]*ledger.Prepared, len(r.Participants))
	for _, id := range r.Participants {
		p, err := c.shards[id].Node.State().StageOwned(t, id == r.Home, func(i int) bool { return r.Inputs[i] == id })
		if err != nil {
			release()
			return err
		}
		prepared[id] = p
	}
	c.event("stage", -1, t.ID)

	// Phase 3: durable votes. A failed vote aborts the prepared
	// participants with a durable abort decision — their surviving
	// prepare records would otherwise stay in doubt forever.
	abort := func(upto int) {
		dec := decisionDoc(t.ID, "abort", r.Participants)
		for _, id := range r.Participants[:upto] {
			if c.shards[id].Node.State().AbortPrepared(t.ID, dec) == nil {
				c.shards[id].ob.aborted.Inc()
			}
		}
		release()
	}
	for i, id := range r.Participants {
		t0 := time.Now()
		if err := c.shards[id].Node.State().LogPrepare(prepared[id]); err != nil {
			abort(i)
			return fmt.Errorf("shard %d: prepare %s: %w", id, t.ID[:8], err)
		}
		c.shards[id].ob.prepared.Inc()
		c.shards[id].ob.prepareNs.ObserveSince(t0)
		c.event("prepare", id, t.ID)
	}

	// Phase 4: the commit point. The home shard's apply atomically
	// seals its effects and records the commit decision; failure here
	// (nothing was applied) aborts everyone.
	dec := decisionDoc(t.ID, "commit", r.Participants)
	t0 := time.Now()
	if err := home.applyPrepared(prepared[r.Home], dec); err != nil {
		abort(len(r.Participants))
		return fmt.Errorf("shard %d: decide %s: %w", r.Home, t.ID[:8], err)
	}
	home.ob.committed.Inc()
	home.ob.applyNs.ObserveSince(t0)
	c.event("decide", -1, t.ID)

	// Phase 5: the decision is durable — every remaining participant
	// must apply. An apply failure past the commit point cannot be
	// rolled back; surface it (recovery replays the survivor's
	// prepare record against the recorded decision on reopen).
	var applyErr error
	for _, id := range r.Participants {
		if id == r.Home {
			continue
		}
		t0 := time.Now()
		if err := c.shards[id].applyPrepared(prepared[id], dec); err != nil {
			if applyErr == nil {
				applyErr = fmt.Errorf("shard %d: apply decided %s: %w", id, t.ID[:8], err)
			}
			continue
		}
		c.shards[id].ob.committed.Inc()
		c.shards[id].ob.applyNs.ObserveSince(t0)
		c.event("apply", id, t.ID)
	}

	// Cleanup: sweep rival pool entries and release the holds. The
	// home shard's apply already routes the new outputs there.
	for _, id := range r.Participants {
		c.shards[id].pool.RemoveCommitted([]mempool.Tx{t})
		c.shards[id].ob.height.Set(c.shards[id].Node.State().Height())
	}
	release()
	c.event("release", -1, t.ID)
	return applyErr
}

// applyPrepared seals a decided share under the shard's lock.
func (sh *Shard) applyPrepared(p *ledger.Prepared, decision map[string]any) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, err := sh.Node.State().ApplyPrepared(p, decision)
	return err
}

// crossView is the chain state a cross-shard transfer's condition set
// reads: every lookup answers from the view of the shard whose log
// holds the looked-up transaction, each view taken once, after the
// holds. The embedded view is the home shard's: it answers for a
// transaction no view holds, and the auction queries, whose state the
// router keeps co-located.
type crossView struct {
	*ledger.StateView
	views []ledger.StateView
}

func (c *Cluster) crossView(home int) *crossView {
	v := &crossView{views: make([]ledger.StateView, len(c.shards))}
	for i, sh := range c.shards {
		v.views[i] = *sh.Node.State().View()
	}
	v.StateView = &v.views[home]
	return v
}

// of returns the view of the shard homing transaction id: the one
// whose pinned log holds it, as Directory.Lookup reads the newest.
func (v *crossView) of(id string) *ledger.StateView {
	for i := range v.views {
		if v.views[i].IsCommitted(id) {
			return &v.views[i]
		}
	}
	return v.StateView
}

func (v *crossView) Tx(id string) (txn.Stored, bool) { return v.of(id).Tx(id) }
func (v *crossView) IsCommitted(id string) bool      { return v.of(id).IsCommitted(id) }
func (v *crossView) Output(ref txn.OutputRef) (txn.OutputFact, bool) {
	return v.of(ref.TxID).Output(ref)
}
func (v *crossView) OutputKeyed(ref txn.OutputRef, key string) (txn.OutputFact, bool) {
	return v.of(ref.TxID).OutputKeyed(ref, key)
}
