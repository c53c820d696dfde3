package consensus

import (
	"testing"
	"time"

	"smartchaindb/internal/txn"
)

// fpTx is a testTx that declares its footprint, which the pool's
// footprint derivation (mempool.ForTransaction) reads.
type fpTx struct {
	testTx
	writes, reads []string
}

func (t *fpTx) Footprint() txn.Footprint { return txn.Footprint{Writes: t.writes, Reads: t.reads} }

// vrCountApp is a full App — the lifted testApp with its own
// fresh-aware validation — that counts, per transaction, how many
// times block validation had to run its semantic checks (i.e. saw the
// transaction without a fresh verdict).
type vrCountApp struct {
	*testApp
	App
	semantic map[string]int
}

func newVRCountApp(node int) *vrCountApp {
	ta := newTestApp(node)
	return &vrCountApp{testApp: ta, App: Lift(ta), semantic: make(map[string]int)}
}

func (a *vrCountApp) ValidateBlockFresh(txs []Tx, fresh []bool) []Tx {
	for i, tx := range txs {
		if i >= len(fresh) || !fresh[i] {
			a.semantic[tx.Hash()]++
		}
	}
	return a.testApp.ValidateBlock(txs)
}

func (a *vrCountApp) ValidationTimeFresh(txs []Tx, fresh []bool) time.Duration {
	return a.testApp.ValidationTime(txs)
}

// TestCleanValidationRefreshesVerdicts is the regression test for the
// PR 4 follow-up: a verdict re-proven by a clean ValidateBlock must be
// re-marked fresh (for singleton conflict groups), so later rounds
// stop re-running semantic checks.
//
// Scenario: W commits first and writes into pending P's read
// footprint, staling P's admission verdict on every node. When P's own
// block is cut, the proposer semantically re-validates P once while
// proposing — and, with the fix, the clean validation re-arms P's
// verdict, so the proposer's prevote validation of the same block
// skips it. Each non-proposer pays exactly one semantic validation at
// prevote. Total semantic validations of P across the cluster:
// exactly one per node. Without the re-marking the proposer pays
// twice (propose + prevote), and every additional round would pay
// again — the O(rounds) re-validation this closes.
func TestCleanValidationRefreshesVerdicts(t *testing.T) {
	const nodes = 4
	apps := make([]*vrCountApp, nodes)
	c := NewCluster(Config{
		Nodes:       nodes,
		Seed:        33,
		MaxBlockTxs: 1, // one block per transaction: W commits, then P
	}, func(i int) App {
		apps[i] = newVRCountApp(i)
		return apps[i]
	})
	c.SubmitAt(0, &fpTx{testTx: "W", writes: []string{"tx:W", "k:hot"}})
	// P arrives while W is pending and gossips cluster-wide well before
	// W's block applies, so W's commit sweep stales P everywhere.
	c.SubmitAt(40*time.Millisecond, &fpTx{testTx: "P", writes: []string{"tx:P"}, reads: []string{"k:hot"}})
	if got := c.RunUntilCommitted(2, time.Minute); got != 2 {
		t.Fatalf("committed %d, want 2", got)
	}
	c.RunUntil(c.Sched().Now() + time.Second) // let stragglers apply

	totalW, totalP := 0, 0
	for _, a := range apps {
		totalW += a.semantic["W"]
		totalP += a.semantic["P"]
	}
	// W was admitted alone against committed state and nothing wrote
	// into its footprint: every validation reused the admission verdict.
	if totalW != 0 {
		t.Errorf("W semantically re-validated %d times, want 0 (admission verdict reuse)", totalW)
	}
	// P: exactly one semantic validation per node. nodes+1 means the
	// clean-validation re-marking regressed (the proposer validated the
	// same block twice).
	if totalP != nodes {
		t.Errorf("P semantically validated %d times across %d nodes, want %d — "+
			"a clean ValidateBlock no longer re-arms singleton verdicts", totalP, nodes, nodes)
	}
}
