package shard

import "fmt"

// Recovery of in-doubt cross-shard transactions at cluster open. Each
// shard's surviving PREPARE records are transactions whose apply never
// became durable locally. The global outcome is decided by the home
// shard's decision record — the commit point's atomic WAL group wrote
// it iff the home shard applied — so recovery searches every shard for
// a commit decision and replays the prepared share forward when one
// exists, or presumes abort when none does (no participant can have
// applied: applies only start after the decision is durable).
func (c *Cluster) recover() error {
	for _, sh := range c.shards {
		indoubt, err := sh.Node.State().InDoubt()
		if err != nil {
			return fmt.Errorf("shard %d: scan in-doubt: %w", sh.ID, err)
		}
		for txID, p := range indoubt {
			outcome := c.globalOutcome(txID)
			if outcome == "commit" {
				if sh.Node.State().Applied(p) {
					// Defensive: effects present with the prepare record
					// surviving should be impossible (one atomic group
					// clears it); just retire the record.
					if err := sh.Node.State().AbortPrepared(txID, decisionDoc(txID, "commit", nil)); err != nil {
						return fmt.Errorf("shard %d: retire %s: %w", sh.ID, txID[:8], err)
					}
				} else if err := sh.applyPrepared(p, decisionDoc(txID, "commit", nil)); err != nil {
					return fmt.Errorf("shard %d: replay committed %s: %w", sh.ID, txID[:8], err)
				}
				sh.ob.committed.Inc()
			} else {
				if err := sh.Node.State().AbortPrepared(txID, decisionDoc(txID, "abort", nil)); err != nil {
					return fmt.Errorf("shard %d: abort in-doubt %s: %w", sh.ID, txID[:8], err)
				}
				sh.ob.aborted.Inc()
			}
			sh.ob.recovered.Inc()
			c.Recovered++
		}
	}
	return nil
}

// globalOutcome searches every shard for a decision record. Any commit
// decision wins (only the commit point writes one); an abort record
// confirms abort; no record anywhere is presumed abort.
func (c *Cluster) globalOutcome(txID string) string {
	outcome := "abort"
	for _, sh := range c.shards {
		if o, ok := sh.Node.State().Decision(txID); ok && o == "commit" {
			return "commit"
		} else if ok {
			outcome = o
		}
	}
	return outcome
}
