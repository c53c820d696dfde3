package shard

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"smartchaindb/internal/txn"
)

// The 2PC crash property: kill every shard's WAL at a consistent cut
// taken anywhere in the protocol — before or after each prepare,
// before or after the decision, mid-record — and a reopened cluster
// drives both shards to the same outcome: the cross-shard transfer is
// either committed on all participants or on none, with no in-doubt
// records surviving recovery. Always on disk engines: the property is
// about WAL replay.
func TestCrossShardCrashConvergence(t *testing.T) {
	// One clean run to learn the event schedule (names only; sizes are
	// per-trial, but the sequence is deterministic).
	events := crashRun(t, t.TempDir())
	if len(events) < 5 {
		t.Fatalf("2PC fired only %d events: %v", len(events), events)
	}
	rng := rand.New(rand.NewSource(7))
	for cut := 0; cut <= len(events); cut++ {
		for trial := 0; trial < 3; trial++ {
			name := "pre-2pc"
			if cut > 0 {
				name = events[cut-1].name
			}
			t.Run(fmt.Sprintf("cut=%s/trial=%d", name, trial), func(t *testing.T) {
				crashAt(t, cut, rng.Int63())
			})
		}
	}
}

type twopcEvent struct {
	name string
	wal  []int64 // per-shard WAL size when the event fired
}

func walPath(dir string, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%02d", shard), "wal-000000.log")
}

// crashTransfer builds the deterministic scenario: an asset on shard 0
// migrating 10 shares to shard 1.
func crashTransfer(t *testing.T) (create, cross *txn.Transaction) {
	alice, bob := kp(1), kp(2)
	create = mkCreate(t, alice, 10, 0)
	cross = mkTransfer(t, create.ID, txn.OutputRef{TxID: create.ID, Index: 0}, alice,
		[]*txn.Output{out(bob, 10)}, 1)
	return create, cross
}

// crashRun executes the full protocol in dir, recording a WAL-size
// snapshot at every durable 2PC event.
func crashRun(t *testing.T, dir string) []twopcEvent {
	t.Helper()
	var events []twopcEvent
	cfg := Config{Shards: 2, DataDir: dir}
	cfg.Node.NoSync = true
	cfg.EventHook = func(ev string) {
		sizes := make([]int64, 2)
		for s := range sizes {
			if st, err := os.Stat(walPath(dir, s)); err == nil {
				sizes[s] = st.Size()
			}
		}
		events = append(events, twopcEvent{name: ev, wal: sizes})
	}
	c, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	create, cross := crashTransfer(t)
	ref := newRouteRef()
	ref.submitDrain(t, c, create)
	if err := ref.submitBatch(c, []*txn.Transaction{cross})[cross.ID]; err != nil {
		t.Fatalf("cross transfer: %v", err)
	}
	ref.check(t, c)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	return events
}

// crashAt reruns the protocol fresh, truncates every shard's WAL to
// its size at global event index cut (0 = before any 2PC event) plus
// a random torn tail bounded by the next event, reopens, and asserts
// both shards converged.
func crashAt(t *testing.T, cut int, seed int64) {
	dir := t.TempDir()
	events := crashRun(t, dir)
	rng := rand.New(rand.NewSource(seed))

	// The consistent cut: both WALs at their size when event `cut`
	// fired, plus torn bytes that never reach the next global event's
	// durable frontier for that shard.
	for s := 0; s < 2; s++ {
		var at int64
		if cut == 0 {
			at = preEventSize(events, s)
		} else {
			at = events[cut-1].wal[s]
			if cut < len(events) {
				// Torn tail: random extra bytes up to the next global
				// event's durable frontier for this shard — a write
				// the crash caught mid-flight.
				if room := events[cut].wal[s] - at; room > 0 {
					at += rng.Int63n(room + 1)
				}
			}
		}
		if err := os.Truncate(walPath(dir, s), at); err != nil {
			t.Fatal(err)
		}
	}

	cfg := Config{Shards: 2, DataDir: dir}
	cfg.Node.NoSync = true
	c, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer c.Close()
	// The reopened directory routes as the map rebuilt at open did.
	routes := openRouteRef(c)
	routes.check(t, c)
	create, cross := crashTransfer(t)
	ref := txn.OutputRef{TxID: create.ID, Index: 0}

	committed := c.Shard(1).Node.State().IsCommitted(cross.ID)
	f, _ := c.Shard(0).Node.State().Output(ref)
	spent := f.SpentBy != ""
	if committed != (f.SpentBy == cross.ID) {
		t.Fatalf("diverged: home committed=%v, input spent=%v by %q", committed, spent, f.SpentBy)
	}
	for s := 0; s < 2; s++ {
		indoubt, err := c.Shard(s).Node.State().InDoubt()
		if err != nil || len(indoubt) != 0 {
			t.Fatalf("shard %d still in doubt after recovery: %v %v", s, indoubt, err)
		}
	}
	if committed {
		if !unspent(c.Shard(1).Node.State(), txn.OutputRef{TxID: cross.ID, Index: 0}) {
			t.Fatal("committed transfer's output missing on home shard")
		}
		if c.Recovered == 0 && !spent {
			t.Fatal("inconsistent recovery accounting")
		}
	} else {
		// Aborted: the chain is live — the same transfer goes through.
		if err := routes.submitBatch(c, []*txn.Transaction{cross})[cross.ID]; err != nil {
			t.Fatalf("resubmit after presumed abort: %v", err)
		}
		if !c.Shard(1).Node.State().IsCommitted(cross.ID) {
			t.Fatal("resubmitted transfer did not commit")
		}
		routes.check(t, c)
	}
}

// preEventSize reports shard s's WAL size just before the first 2PC
// event — the first recorded snapshot is taken at the first event, so
// anything at or above it includes 2PC bytes; cutting at the first
// event's size is the closest consistent pre-2PC cut that still holds
// the setup blocks. The setup committed before any event fired, and
// the first events (hold/stage) write nothing durable, so this equals
// the post-setup size.
func preEventSize(events []twopcEvent, s int) int64 {
	if len(events) == 0 {
		return 0
	}
	return events[0].wal[s]
}
