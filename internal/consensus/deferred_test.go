package consensus

import (
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// refApp is an App as the engine drove it before joins that hand
// nothing on were put off and admission checks started early, kept as
// the reference both are pinned to: it says every block hands
// something on, so every join runs at its block's instant, and it
// starts no check before its batch completes.
type refApp struct{ App }

func (refApp) HandsOn([]Tx) bool { return true }

func (refApp) PrecheckBatch([]Tx) (wait func()) { return func() {} }

// parentApp is the engine's test app with a nested-style join: a block
// reaches the recorded state at CommitStart, and the join of a block
// holding a parent (a hash starting "p") injects the parent's child
// ("c" and the rest of the hash) into its own validator 5 ms later.
// Only such a block hands something on, and its join must run at the
// instant of its CommitStart: the commit is free in virtual time. Its
// early checks count the batches they were started for.
type parentApp struct {
	App
	t      *testing.T
	ta     *testApp
	c      *Cluster
	node   int
	joined []int64
	early  int
}

func newParentApp(t *testing.T, i int) *parentApp {
	ta := newTestApp(i)
	ta.reject["bad"] = true
	return &parentApp{App: Lift(ta), t: t, ta: ta, node: i}
}

func isParent(tx Tx) bool { return strings.HasPrefix(tx.Hash(), "p") }

func (a *parentApp) PrecheckBatch([]Tx) (wait func()) {
	a.early++
	return func() {}
}

func (a *parentApp) CommitStart(height int64, txs []Tx) (join func()) {
	a.ta.Commit(height, txs)
	at := a.c.Sched().Now()
	return func() {
		if now := a.c.Sched().Now(); a.HandsOn(txs) && now != at {
			a.t.Errorf("validator %d joined height %d, which hands a child on, at %v, not at its commit, %v", a.node, height, now, at)
		}
		a.joined = append(a.joined, height)
		for _, tx := range txs {
			if isParent(tx) {
				child := "c" + tx.Hash()[1:]
				a.c.InjectAt(a.c.Sched().Now()+5*time.Millisecond, a.node, claimOf(child), func() Tx { return &objTx{h: child} })
			}
		}
	}
}

func (a *parentApp) HandsOn(txs []Tx) bool {
	for _, tx := range txs {
		if isParent(tx) {
			return true
		}
	}
	return false
}

// parentRun is what one driven cluster of parentApps leaves behind.
type parentRun struct {
	commitTimes map[string]time.Duration
	rejected    map[string]string
	summary     Summary
	blocks      []map[int64][]string // per validator
	joined      [][]int64            // per validator
}

func runParents(t *testing.T, seed int64, depth int, ref bool) parentRun {
	t.Helper()
	apps := make([]*parentApp, 4)
	c := NewCluster(Config{Nodes: 4, Seed: seed, MaxBlockTxs: 6, CommitDepth: depth, Pipelined: true}, func(i int) App {
		apps[i] = newParentApp(t, i)
		if ref {
			return refApp{apps[i]}
		}
		return apps[i]
	})
	for _, a := range apps {
		a.c = c
	}
	want := 0
	for i := 0; i < 40; i++ {
		name := fmt.Sprintf("tx%03d", i)
		if i%7 == 3 {
			name = fmt.Sprintf("p%03d", i)
			want++ // its child
		}
		c.SubmitAt(time.Duration(i)*2*time.Millisecond, testTx(name))
		want++
	}
	c.SubmitAt(9*time.Millisecond, testTx("bad"))
	c.RunUntilCommitted(want, time.Minute)
	c.RunUntil(c.Sched().Now() + time.Second)
	if got := c.CommittedCount(); got != want {
		t.Fatalf("committed %d, want %d", got, want)
	}
	run := parentRun{commitTimes: c.commitTimes, rejected: make(map[string]string), summary: c.Summarize()}
	for h, err := range c.rejected {
		run.rejected[h] = err.Error()
	}
	for _, a := range apps {
		run.blocks = append(run.blocks, a.ta.perHeight)
		run.joined = append(run.joined, a.joined)
		if !ref && a.early == 0 {
			t.Errorf("validator %d started no early check", a.node)
		}
	}
	return run
}

// TestDeferredJoinsMatchReferenceOnTestApps drives the same traffic,
// parents whose joins hand children on among it, through clusters of
// parentApps with and without the reference adapter, at both depths on
// four seeds. Every transaction commits at the same instant, the same
// ones are refused with the same errors, the summaries agree, every
// validator holds the same blocks, and every join runs once, in height
// order, by the time RunUntil returns.
func TestDeferredJoinsMatchReferenceOnTestApps(t *testing.T) {
	for _, seed := range []int64{61, 62, 63, 64} {
		for _, depth := range []int{1, 2} {
			t.Run(fmt.Sprintf("seed=%d/depth=%d", seed, depth), func(t *testing.T) {
				got, want := runParents(t, seed, depth, false), runParents(t, seed, depth, true)
				if !reflect.DeepEqual(got.commitTimes, want.commitTimes) {
					t.Errorf("commit times differ from the reference:\n got=%v\nwant=%v", got.commitTimes, want.commitTimes)
				}
				if len(want.rejected) == 0 || !reflect.DeepEqual(got.rejected, want.rejected) {
					t.Errorf("rejected %v, the reference %v", got.rejected, want.rejected)
				}
				if got.summary != want.summary {
					t.Errorf("summary %+v, the reference %+v", got.summary, want.summary)
				}
				if !reflect.DeepEqual(got.blocks, want.blocks) {
					t.Errorf("blocks differ from the reference")
				}
				for i, joined := range got.joined {
					heights := make([]int64, len(got.blocks[i]))
					for h := range heights {
						heights[h] = int64(h + 1)
					}
					if !reflect.DeepEqual(joined, heights) {
						t.Errorf("validator %d joined %v, want each of %v once in order", i, joined, heights)
					}
				}
			})
		}
	}
}

// slowSealApp's seals finish only once a later event has run: the
// CommitStart of a block schedules, 1 ms on, the event that releases
// its seal, and its join waits for that release (failing the test
// after a second). No block hands anything on. It logs each
// CommitStart and each join, in order.
type slowSealApp struct {
	App
	t   *testing.T
	c   *Cluster
	log []string
}

func (a *slowSealApp) HandsOn([]Tx) bool { return false }

func (a *slowSealApp) CommitStart(height int64, txs []Tx) (join func()) {
	a.log = append(a.log, fmt.Sprintf("start %d", height))
	start := a.App.CommitStart(height, txs)
	released := make(chan struct{})
	a.c.Sched().After(time.Millisecond, func() { close(released) })
	return func() {
		select {
		case <-released:
		case <-time.After(time.Second):
			a.t.Errorf("the join of height %d ran before the event its seal waits for", height)
		}
		start()
		a.log = append(a.log, fmt.Sprintf("join %d", height))
	}
}

// TestJoinWaitsOutASealThatNeedsALaterEvent: a seal that can finish only
// after a later event has run does not stall the engine, which runs
// that event first. The join still runs before the validator's next
// CommitStart, and the last block's, with no CommitStart after it,
// before RunUntil returns.
func TestJoinWaitsOutASealThatNeedsALaterEvent(t *testing.T) {
	for _, depth := range []int{1, 2} {
		t.Run(fmt.Sprintf("depth=%d", depth), func(t *testing.T) {
			apps := make([]*slowSealApp, 4)
			c := NewCluster(Config{Nodes: 4, Seed: 71, MaxBlockTxs: 4, CommitDepth: depth}, func(i int) App {
				apps[i] = &slowSealApp{App: Lift(newTestApp(i)), t: t}
				return apps[i]
			})
			for _, a := range apps {
				a.c = c
			}
			for i := 0; i < 10; i++ {
				c.SubmitAt(time.Duration(i)*time.Millisecond, testTx(fmt.Sprintf("tx%02d", i)))
			}
			if got := c.RunUntilCommitted(10, time.Minute); got != 10 {
				t.Fatalf("committed %d, want 10", got)
			}
			c.RunUntil(c.Sched().Now() + time.Second)
			for i, a := range apps {
				var want []string
				for h := 1; h <= len(a.log)/2; h++ {
					want = append(want, fmt.Sprintf("start %d", h), fmt.Sprintf("join %d", h))
				}
				if len(want) < 4 || !reflect.DeepEqual(a.log, want) {
					t.Errorf("validator %d: %v, want each join before the next CommitStart and the last before RunUntil returned", i, a.log)
				}
			}
		})
	}
}

// sleepyCheckApp's early checks take 20 ms of wall time on their own
// goroutine; it counts the checks started and finished.
type sleepyCheckApp struct {
	App
	started, finished *atomic.Int64
	node              int
	checked           atomic.Bool // this validator has started one
}

func (a *sleepyCheckApp) PrecheckBatch([]Tx) (wait func()) {
	a.started.Add(1)
	a.checked.Store(true)
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(20 * time.Millisecond)
		a.finished.Add(1)
	}()
	return func() { <-done }
}

// TestNoEarlyCheckOutlivesRunUntil: RunUntil returns only once every
// early check the engine started has finished — one whose batch
// completes after the instant RunUntil stops at, and one whose receiver
// crashed while it ran.
func TestNoEarlyCheckOutlivesRunUntil(t *testing.T) {
	for _, crash := range []bool{false, true} {
		t.Run(fmt.Sprintf("crash=%v", crash), func(t *testing.T) {
			var started, finished atomic.Int64
			apps := make([]*sleepyCheckApp, 4)
			c := NewCluster(Config{Nodes: 4, Seed: 81}, func(i int) App {
				ta := newTestApp(i)
				ta.recvTime = 50 * time.Millisecond
				apps[i] = &sleepyCheckApp{App: Lift(ta), started: &started, finished: &finished, node: i}
				return apps[i]
			})
			c.SubmitAt(0, testTx("tx"))
			stop := time.Millisecond // the receiver's batch completes at 50 ms
			if crash {
				c.Sched().At(time.Millisecond, func() {
					for i, a := range apps {
						if a.checked.Load() {
							c.Crash(i)
						}
					}
				})
				stop = 100 * time.Millisecond // past the crashed batch's completion
			}
			c.RunUntil(stop)
			if s, f := started.Load(), finished.Load(); s == 0 || f != s {
				t.Fatalf("RunUntil returned with %d of %d early checks finished", f, s)
			}
		})
	}
}

// countingJoinApp hands nothing on and counts its CommitStarts and the
// joins run.
type countingJoinApp struct {
	App
	started, joined int
}

func (a *countingJoinApp) HandsOn([]Tx) bool { return false }

func (a *countingJoinApp) CommitStart(height int64, txs []Tx) (join func()) {
	a.started++
	start := a.App.CommitStart(height, txs)
	return func() {
		start()
		a.joined++
	}
}

// TestRestartRunsDeferredJoins: a validator that crashed with a join
// put off runs it inside Restart, before anything scheduled after the
// restart (a recovery) can read its state.
func TestRestartRunsDeferredJoins(t *testing.T) {
	apps := make([]*countingJoinApp, 4)
	c := NewCluster(Config{Nodes: 4, Seed: 91}, func(i int) App {
		apps[i] = &countingJoinApp{App: Lift(newTestApp(i))}
		return apps[i]
	})
	for i := 0; i < 5; i++ {
		c.SubmitAt(time.Duration(i)*time.Millisecond, testTx(fmt.Sprintf("tx%d", i)))
	}
	if got := c.RunUntilCommitted(5, time.Minute); got != 5 {
		t.Fatalf("committed %d, want 5", got)
	}
	a := apps[1]
	for a.started == 0 && c.sched.Step() {
	}
	if a.started == 0 || a.joined == a.started {
		t.Fatalf("validator 1 started %d blocks and joined %d: want a join put off", a.started, a.joined)
	}
	c.Crash(1)
	c.Restart(1)
	if a.joined != a.started {
		t.Fatalf("after Restart validator 1 joined %d of %d blocks", a.joined, a.started)
	}
}
