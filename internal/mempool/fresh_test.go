package mempool

import (
	"testing"

	"smartchaindb/internal/txn"
)

// reader builds a transaction that reads a key without writing it.
func reader(hash string, reads ...string) *fakeTx {
	return &fakeTx{hash: hash, fp: txn.Footprint{Writes: []string{"tx:" + hash}, Reads: reads}}
}

func freshOf(t *testing.T, p *Pool, txs ...Tx) []bool {
	t.Helper()
	return p.Fresh(txs)
}

// TestFreshLifecycle pins the verdict-reuse state machine: independent
// admissions start fresh, batch-conflicting admissions start stale,
// commits staling exactly the pending transactions whose footprints
// they write into, and unknown transactions never reporting fresh.
func TestFreshLifecycle(t *testing.T) {
	p := New(Config{})

	// a and b are independent: both admitted fresh.
	a, b := indep("a"), indep("b")
	admit(t, p, a, b)
	if got := freshOf(t, p, a, b); !got[0] || !got[1] {
		t.Fatalf("independent admissions not fresh: %v", got)
	}

	// c reads a key d writes in the same batch: both enter stale —
	// their verdicts may have consulted each other, not committed
	// state.
	c := reader("c", "k:shared")
	d := &fakeTx{hash: "d", fp: txn.Footprint{Writes: []string{"tx:d", "k:shared"}}}
	admit(t, p, c, d)
	if got := freshOf(t, p, c, d); got[0] || got[1] {
		t.Fatalf("batch-dependent admissions must start stale: %v", got)
	}

	// The same pair admitted in separate batches stays fresh... until a
	// commit writes into the shared key.
	p2 := New(Config{})
	admit(t, p2, c)
	admit(t, p2, indep("x"))
	if got := p2.Fresh([]Tx{c}); !got[0] {
		t.Fatal("solo admission must be fresh")
	}
	// A foreign commit (never pooled here) writing k:shared stales c.
	p2.RemoveCommitted([]Tx{d})
	if got := p2.Fresh([]Tx{c}); got[0] {
		t.Fatal("commit into read footprint must stale the reader")
	}
	// x is untouched by d's writes and stays fresh.
	if got := p2.Fresh([]Tx{indep("x")}); !got[0] {
		t.Fatal("disjoint pending transaction must stay fresh")
	}

	// Unknown transactions are never fresh.
	if got := p.Fresh([]Tx{indep("nope")}); got[0] {
		t.Fatal("unknown transaction reported fresh")
	}
}

// TestFreshCommitSweepScope checks the sweep uses write keys only:
// committing a pure reader of a key must not stale other readers
// (read/read is not a conflict), while committing a writer must.
func TestFreshCommitSweepScope(t *testing.T) {
	p := New(Config{})
	r1 := reader("r1", "k:a")
	admit(t, p, r1)
	admit(t, p, reader("r2", "k:a")) // separate batch: both fresh
	if got := p.Fresh([]Tx{r1}); !got[0] {
		t.Fatal("reader not fresh after solo admission")
	}
	// r2 commits (say, through another node's block): it only read
	// k:a, so r1's verdict still stands.
	p.RemoveCommitted([]Tx{reader("r2", "k:a")})
	if got := p.Fresh([]Tx{r1}); !got[0] {
		t.Fatal("committing a reader staled a co-reader")
	}
	// A writer of k:a commits: r1 goes stale.
	p.RemoveCommitted([]Tx{&fakeTx{hash: "w", fp: txn.Footprint{Writes: []string{"tx:w", "k:a"}}}})
	if got := p.Fresh([]Tx{r1}); got[0] {
		t.Fatal("committing a writer did not stale the reader")
	}
}

// TestMarkValidatedRefreshesSingletons pins the post-validation
// re-arming: a clean block validation makes singleton-conflict-group
// members fresh again, leaves multi-member groups stale, and is voided
// by an interleaved commit sweep.
func TestMarkValidatedRefreshesSingletons(t *testing.T) {
	p := New(Config{})
	// c reads what d writes: admitted in one batch, both start stale.
	c := reader("c", "k:shared")
	d := &fakeTx{hash: "d", fp: txn.Footprint{Writes: []string{"tx:d", "k:shared"}}}
	admit(t, p, c, d)
	if got := p.Fresh([]Tx{c, d}); got[0] || got[1] {
		t.Fatalf("batch-dependent admissions not stale: %v", got)
	}

	// A clean validation of a block holding both: they conflict within
	// the block too, so neither may become fresh.
	epoch := p.Epoch()
	p.MarkValidated([]Tx{c, d}, epoch)
	if got := p.Fresh([]Tx{c, d}); got[0] || got[1] {
		t.Fatalf("multi-member group re-marked fresh: %v", got)
	}

	// A clean validation of a block holding only c: singleton group,
	// verdict re-proven against committed state — fresh again.
	p.MarkValidated([]Tx{c}, p.Epoch())
	if got := p.Fresh([]Tx{c, d}); !got[0] || got[1] {
		t.Fatalf("singleton not refreshed (or rival leaked): %v", got)
	}

	// A foreign block member sharing a footprint key keeps the pooled
	// member's group multi-sized even though the foreigner is unknown.
	e := reader("e", "k:other")
	admit(t, p, e)
	p.RemoveCommitted([]Tx{&fakeTx{hash: "w", fp: txn.Footprint{Writes: []string{"tx:w", "k:other"}}}})
	if got := p.Fresh([]Tx{e}); got[0] {
		t.Fatal("commit sweep did not stale the reader")
	}
	foreign := &fakeTx{hash: "f", fp: txn.Footprint{Writes: []string{"tx:f", "k:other"}}}
	p.MarkValidated([]Tx{e, foreign}, p.Epoch())
	if got := p.Fresh([]Tx{e}); got[0] {
		t.Fatal("member of a group with a foreign writer re-marked fresh")
	}
	p.MarkValidated([]Tx{e}, p.Epoch())
	if got := p.Fresh([]Tx{e}); !got[0] {
		t.Fatal("singleton not refreshed after foreign-writer round")
	}
}

// TestMarkValidatedEpochGuard: a commit sweep between the epoch
// snapshot and the marking voids it — the sweep's staling wins.
func TestMarkValidatedEpochGuard(t *testing.T) {
	p := New(Config{})
	r := reader("r", "k:a")
	admit(t, p, r)
	epoch := p.Epoch() // validation starts here...
	// ...but a block writing k:a commits before the marking lands.
	p.RemoveCommitted([]Tx{&fakeTx{hash: "w", fp: txn.Footprint{Writes: []string{"tx:w", "k:a"}}}})
	p.MarkValidated([]Tx{r}, epoch)
	if got := p.Fresh([]Tx{r}); got[0] {
		t.Fatal("stale epoch marking overwrote the commit sweep")
	}
	// With a current epoch the same marking sticks.
	p.MarkValidated([]Tx{r}, p.Epoch())
	if got := p.Fresh([]Tx{r}); !got[0] {
		t.Fatal("current-epoch marking did not stick")
	}
}

// TestFreshEvictionReleasesIndex checks evicted entries leave the key
// index: a later commit sweeping their keys must not resurrect or
// touch them, and re-admission starts a clean verdict.
func TestFreshEvictionReleasesIndex(t *testing.T) {
	p := New(Config{})
	s := spender("s", "utxo:1")
	admit(t, p, s)
	p.Remove([]Tx{s})
	if p.Contains("s") {
		t.Fatal("evicted entry still pooled")
	}
	if len(p.keyIndex) != 0 {
		t.Fatalf("key index leaked %d keys after eviction", len(p.keyIndex))
	}
	admit(t, p, s)
	if got := p.Fresh([]Tx{s}); !got[0] {
		t.Fatal("re-admitted entry must start fresh")
	}
	p.RemoveCommitted([]Tx{s})
	if len(p.keyIndex) != 0 {
		t.Fatalf("key index leaked %d keys after commit", len(p.keyIndex))
	}
}
