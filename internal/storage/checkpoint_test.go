package storage

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"smartchaindb/internal/obs"
)

// load drives an engine with a seeded history of every kind of write
// the ledger and the shards issue: block groups of puts, replaces,
// deletes and delete-then-reinserts across collections, 2PC records
// inside and outside groups, a collection dropped and re-created, and
// plain writes outside any group. Each step is one WAL frame.
type load struct {
	t    *testing.T
	e    *Engine
	rng  *rand.Rand
	h    int64
	next int
	live []string // keys live in "txs"
	dead []string // keys deleted from "txs", candidates for reinsert
}

func newLoad(t *testing.T, e *Engine, seed int64) *load {
	return &load{t: t, e: e, rng: rand.New(rand.NewSource(seed))}
}

func (l *load) newKey() string {
	// Descending keys: a segment's key order is the reverse of insertion
	// order, so a fold that forgot either would show.
	l.next++
	return fmt.Sprintf("k%05d", 99999-l.next)
}

func (l *load) body() map[string]any {
	return doc("n", float64(l.rng.Intn(1000)), "s", strings.Repeat("<pad&>", 1+l.rng.Intn(12)), "l", []any{true, nil, 1.5})
}

// ops issues n random mutations, each at most one WAL record.
func (l *load) ops(n int) error {
	txs, utxos, tmp := l.e.Collection("txs"), l.e.Collection("utxos"), l.e.Collection("scratch")
	twopc := l.e.Collection(TwoPCCollection)
	for i := 0; i < n; i++ {
		var err error
		switch r := l.rng.Intn(20); {
		case r < 5:
			k := l.newKey()
			l.live = append(l.live, k)
			err = txs.Put(k, l.body())
		case r < 8 && len(l.live) > 0:
			k := l.live[l.rng.Intn(len(l.live))]
			err = utxos.Put(k+":0", doc("spent", l.rng.Intn(2) == 0, "by", k))
		case r < 10 && len(l.live) > 0:
			err = txs.Put(l.live[l.rng.Intn(len(l.live))], l.body())
		case r < 13 && len(l.live) > 0:
			j := l.rng.Intn(len(l.live))
			k := l.live[j]
			l.live = append(l.live[:j], l.live[j+1:]...)
			l.dead = append(l.dead, k)
			err = txs.Delete(k)
		case r < 15 && len(l.dead) > 0:
			j := l.rng.Intn(len(l.dead))
			k := l.dead[j]
			l.dead = append(l.dead[:j], l.dead[j+1:]...)
			l.live = append(l.live, k)
			err = txs.Put(k, l.body())
		case r < 16:
			err = twopc.Put(fmt.Sprintf("p:%d", l.rng.Intn(8)), doc("kind", "prepare", "tx", l.newKey()))
		case r < 17:
			err = twopc.Put(fmt.Sprintf("d:%d", l.rng.Intn(8)), doc("kind", "decision", "outcome", "commit"))
		case r < 18:
			err = twopc.Delete(fmt.Sprintf("p:%d", l.rng.Intn(8)))
		case r < 19:
			err = tmp.Put(fmt.Sprintf("t%d", l.rng.Intn(16)), l.body())
		default:
			// Ten bytes of log, as the collection drop this op once was
			// logged: the crash matrix's cut points stay where they were.
			err = l.e.Collection("scr").Put("k", map[string]any{})
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// step writes one WAL frame: most often a block — a group of mutations
// under its own height — otherwise a single write outside any group.
func (l *load) step() {
	l.t.Helper()
	var err error
	if l.rng.Intn(5) == 0 {
		for before := l.e.stats().WALBytes; err == nil && l.e.stats().WALBytes == before; {
			err = l.ops(1) // a delete of a missing key logs nothing: go again
		}
	} else {
		l.h++
		l.e.BeginBlock(l.h)
		err = l.e.Group(func() error { return l.ops(1 + l.rng.Intn(8)) })
		l.e.SealBlock(l.h)
	}
	if err != nil {
		l.t.Fatal(err)
	}
}

// state is a backend's contents and iteration order.
type state struct {
	Docs map[string]map[string]map[string]any
	Keys map[string][]string
}

func stateOf(b Backend) state {
	s := state{Docs: dump(b), Keys: map[string][]string{}}
	for name := range s.Docs {
		s.Keys[name] = b.Collection(name).Keys()
	}
	return s
}

// copyDir copies a data directory's files the way a crash leaves them
// to the next process: bytes only, the directory lock not held.
func copyDir(t testing.TB, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if !ent.Type().IsRegular() {
			continue
		}
		in, err := os.Open(filepath.Join(src, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out, err := os.Create(filepath.Join(dst, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		_, err = io.Copy(out, in)
		in.Close()
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// liveWAL names the WAL the engine is appending to.
func liveWAL(e *Engine) string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.man.WAL
}

// strays lists the files in dir that its MANIFEST does not name.
func strays(t testing.TB, dir string) []string {
	t.Helper()
	man, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{manifestName: true, "LOCK": true}
	for _, name := range append(man.wals(), man.Segments...) {
		known[name] = true
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, ent := range entries {
		if !known[ent.Name()] {
			out = append(out, ent.Name())
		}
	}
	return out
}

// parker parks a checkpoint's fold at one hook point until released,
// and counts every point passed.
type parker struct {
	at      string
	parked  chan struct{} // receives once the fold is parked
	release chan struct{}
	mu      sync.Mutex
	seen    map[string]int
}

func newParker(at string) *parker {
	return &parker{at: at, parked: make(chan struct{}, 1), release: make(chan struct{}), seen: map[string]int{}}
}

func (p *parker) hook(point string) {
	p.mu.Lock()
	p.seen[point]++
	first := p.seen[point] == 1
	p.mu.Unlock()
	if point == p.at && first {
		p.parked <- struct{}{}
		<-p.release
	}
}

func (p *parker) count(point string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.seen[point]
}

// TestFoldMatchesSynchronousReference is the checkpoint's differential:
// over four generations of random history, at every cut the old
// synchronous Compact (reference_test.go) writes its segments from the
// memtable on the spot — under the cut's exclusive lock, where the old
// call sat — and the fold, parked while further blocks replace, delete
// and insert behind its back and then released, must produce the same
// files byte for byte. A crash-style copy of the directory then reopens
// to the live engine's state and iteration order.
func TestFoldMatchesSynchronousReference(t *testing.T) {
	dir, refDir := t.TempDir(), t.TempDir()
	e, err := Open(dir, Options{NoSync: true, CompactWALBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var cutGen uint64
	var parkedAt atomic.Int32 // 1 while the fold should park
	parked, release := make(chan struct{}), make(chan struct{})
	e.hook = func(point string) {
		switch point {
		case "cut-published":
			// On the committing goroutine with writers excluded: the
			// memtable is exactly what the closed WALs hold.
			cutGen = e.man.Gen + 1
			refCompact(t, refDir, e, cutGen)
			parkedAt.Store(1)
		case "fold-start":
			if parkedAt.CompareAndSwap(1, 0) {
				parked <- struct{}{}
				<-release
			}
		}
	}
	l := newLoad(t, e, 21)
	for gens := 0; gens < 4; {
		l.step()
		if cutGen == 0 {
			continue
		}
		<-parked
		for i := 0; i < 12; i++ {
			l.step()
		}
		release <- struct{}{}
		if err := e.joinFold(); err != nil {
			t.Fatal(err)
		}
		refs, err := filepath.Glob(filepath.Join(refDir, fmt.Sprintf("seg-%06d-*.seg", cutGen)))
		if err != nil || len(refs) == 0 {
			t.Fatalf("generation %d: reference wrote %d segments: %v", cutGen, len(refs), err)
		}
		if st := e.stats(); st.Gen != cutGen || st.Segments != len(refs) || st.WALs != 1 || st.Folding {
			t.Fatalf("generation %d installed as %+v, reference wrote %d segments", cutGen, st, len(refs))
		}
		for _, ref := range refs {
			want, _ := os.ReadFile(ref)
			got, err := os.ReadFile(filepath.Join(dir, filepath.Base(ref)))
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("generation %d: %s differs from the synchronous reference (%d vs %d bytes): %v", cutGen, filepath.Base(ref), len(got), len(want), err)
			}
		}
		crash, err := Open(copyDir(t, dir), Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := stateOf(crash), stateOf(e); !reflect.DeepEqual(got, want) {
			t.Fatalf("generation %d: reopened state differs from the live engine's", cutGen)
		}
		crash.Close()
		cutGen = 0
		gens++
	}
	if len(l.dead) == 0 || len(l.live) == 0 {
		t.Fatal("the history never deleted or never kept a key")
	}
}

// TestCheckpointCrashMatrix kills the engine — by copying its directory
// — at each point a checkpoint can be cut short, with the last WAL
// MANIFEST names intact and again truncated at random offsets. Open
// must recover exactly the last fully written frame, leave no file the
// new MANIFEST does not name, and do the same on a second Open. A WAL a
// cut closed is never torn: truncating it must fail the open with an
// error naming the file.
func TestCheckpointCrashMatrix(t *testing.T) {
	for i, point := range []string{"wal-created", "cut-published", "mid-segment", "segments-renamed", "installed"} {
		t.Run(point, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(40 + i)))
			dir := t.TempDir()
			e, err := Open(dir, Options{NoSync: true, CompactWALBytes: 4 << 10})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			park := newParker("fold-start")
			var crashDir string
			armed := false
			e.hook = func(p string) {
				park.hook(p)
				if p == point && armed && crashDir == "" {
					crashDir = copyDir(t, dir)
				}
			}
			// frames[i] is where step i's frame ends; states[i] the state
			// after it. Frames folded before the crash's checkpoint have
			// no WAL left to be torn from.
			type frame struct {
				wal string
				end int64
			}
			frames, states := []frame{{}}, []state{stateOf(e)}
			l := newLoad(t, e, int64(i))
			step := func() {
				before := liveWAL(e)
				l.step()
				f := frame{wal: before, end: e.stats().WALBytes}
				if liveWAL(e) != before { // this step's group cut: its frame closed the old WAL
					f.end = walSize(t, filepath.Join(dir, before))
				}
				frames, states = append(frames, f), append(states, stateOf(e))
			}
			// One whole checkpoint first, so the crashed one has an old
			// generation of segments to supersede.
			for park.count("cut-published") == 0 {
				step()
			}
			<-park.parked
			close(park.release)
			if err := e.joinFold(); err != nil {
				t.Fatal(err)
			}
			for i := range frames {
				frames[i].wal = ""
			}
			// The crashed checkpoint: steps up to its cut, more behind a
			// parked fold, then the fold runs through the crash point.
			armed = true
			park = newParker("fold-start")
			for park.count("cut-published") == 0 {
				step()
			}
			<-park.parked
			for i := 0; i < 6; i++ {
				step()
			}
			close(park.release)
			if err := e.joinFold(); err != nil {
				t.Fatal(err)
			}
			if crashDir == "" {
				t.Fatalf("the checkpoint never passed %q", point)
			}
			crashed := len(states) - 1
			if point == "wal-created" || point == "cut-published" {
				// The copy was taken inside the cutting group's call: the
				// steps behind the parked fold came after it.
				crashed -= 6
			}
			man, err := readManifest(crashDir)
			if err != nil {
				t.Fatal(err)
			}
			full := walSize(t, filepath.Join(crashDir, man.WAL))
			// Everywhere but right after the cut's MANIFEST the crash
			// strands something: the unpublished next WAL, a partial
			// segment, finished segments never installed, the old
			// generation.
			if s := strays(t, crashDir); (len(s) == 0) != (point == "cut-published") {
				t.Fatalf("crash at %q strands %v", point, s)
			}

			recover := func(t *testing.T, dir string, want int) {
				t.Helper()
				for open := 1; open <= 2; open++ {
					e2, err := Open(dir, Options{NoSync: true})
					if err != nil {
						t.Fatalf("open %d: %v", open, err)
					}
					got := stateOf(e2)
					if err := e2.Close(); err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, states[want]) {
						t.Fatalf("open %d recovered something other than the state after frame %d of %d", open, want, crashed)
					}
					if s := strays(t, dir); len(s) != 0 {
						t.Fatalf("open %d left files MANIFEST does not name: %v", open, s)
					}
				}
			}
			t.Run("intact", func(t *testing.T) { recover(t, copyDir(t, crashDir), crashed) })
			for _, cut := range []int64{0, walHeaderLen, full - 1, rng.Int63n(full + 1), rng.Int63n(full + 1), rng.Int63n(full + 1)} {
				t.Run(fmt.Sprintf("torn-at-%d-of-%d", cut, full), func(t *testing.T) {
					torn := copyDir(t, crashDir)
					if err := os.Truncate(filepath.Join(torn, man.WAL), cut); err != nil {
						t.Fatal(err)
					}
					want := 0
					for i, f := range frames[:crashed+1] {
						if f.wal != man.WAL || f.end <= cut {
							want = i
						}
					}
					recover(t, torn, want)
				})
			}
			if wals := man.wals(); len(wals) > 1 {
				t.Run("closed-wal-torn", func(t *testing.T) {
					torn := copyDir(t, crashDir)
					closed := filepath.Join(torn, wals[0])
					if err := os.Truncate(closed, walSize(t, closed)-3); err != nil {
						t.Fatal(err)
					}
					if _, err := Open(torn, Options{NoSync: true}); err == nil || !strings.Contains(err.Error(), wals[0]) {
						t.Fatalf("open over a truncated closed wal: %v, want an error naming %s", err, wals[0])
					}
				})
			} else if point != "wal-created" && point != "installed" {
				t.Fatalf("MANIFEST at %q names %d wal", point, len(wals))
			}
		})
	}
}

// TestCommitsDoNotWaitForTheFold: with the fold parked mid-segment, a
// hundred further blocks commit — each one past the trigger again —
// while snapshot readers run, and no second checkpoint is cut. Close
// and Compact then find the fold in flight, wait for it (the "join"
// point releases it: had they not waited it would still be parked), and
// leave the directory checkpointed.
func TestCommitsDoNotWaitForTheFold(t *testing.T) {
	for _, joiner := range []string{"close", "compact"} {
		t.Run(joiner, func(t *testing.T) {
			dir := t.TempDir()
			e, err := Open(dir, Options{NoSync: true, CompactWALBytes: 1 << 10})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			park := newParker("mid-segment")
			joins := 0
			e.hook = func(p string) {
				if p == "join" {
					if joins++; joins == 1 {
						close(park.release)
					}
					return
				}
				park.hook(p)
			}
			c := e.Collection("txs")
			block := func(h int64) {
				e.BeginBlock(h)
				if err := e.Group(func() error {
					for j := 0; j < 4; j++ {
						if err := c.Put(fmt.Sprintf("k%04d-%d", h, j), doc("h", float64(h), "pad", strings.Repeat("x", 300))); err != nil {
							return err
						}
					}
					return nil
				}); err != nil {
					t.Error(err)
				}
				e.SealBlock(h)
			}
			h := int64(0)
			for park.count("cut-published") == 0 {
				h++
				block(h)
			}
			<-park.parked
			gen := e.stats().Gen

			stop := make(chan struct{})
			var readers sync.WaitGroup
			for r := 0; r < 2; r++ {
				readers.Add(1)
				go func() {
					defer readers.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						at := e.Visible()
						n := 0
						c.ScanAt(at, func(_ string, d map[string]any) bool {
							if d["h"].(float64) > float64(at) {
								t.Errorf("snapshot at %d sees a document of block %v", at, d["h"])
							}
							n++
							return true
						})
						if n != int(at)*4 {
							t.Errorf("snapshot at %d holds %d documents", at, n)
						}
					}
				}()
			}
			for i := 0; i < 100; i++ {
				h++
				block(h)
			}
			close(stop)
			readers.Wait()
			if st := e.stats(); !st.Folding || st.WALs != 2 || st.Gen != gen || st.WALBytes < 100<<10 {
				t.Fatalf("after 100 blocks behind a parked fold: %+v, want generation %d still folding over 2 wals", st, gen)
			}
			if n := park.count("cut-published"); n != 1 {
				t.Fatalf("%d checkpoints cut while one was folding", n)
			}

			want := stateOf(e)
			wantGen := gen
			if joiner == "close" {
				err = e.Close()
			} else {
				// Compact joins the fold in flight, then checkpoints what
				// the hundred blocks wrote since its cut.
				err = e.Compact()
				wantGen++
			}
			if err != nil || joins == 0 {
				t.Fatalf("%s with a fold in flight: %v after %d joins", joiner, err, joins)
			}
			if st := e.stats(); st.Folding || st.WALs != 1 || st.Gen != wantGen {
				t.Fatalf("%s left %+v, want generation %d installed", joiner, st, wantGen)
			}
			e.Close()
			if s := strays(t, dir); len(s) != 0 {
				t.Fatalf("%s left files MANIFEST does not name: %v", joiner, s)
			}
			e2, err := Open(dir, Options{NoSync: true, CompactWALBytes: 1 << 30})
			if err != nil {
				t.Fatal(err)
			}
			defer e2.Close()
			if st := e2.stats(); st.Gen != wantGen || !reflect.DeepEqual(stateOf(e2), want) {
				t.Fatalf("reopened at %+v with a different state, want generation %d", st, wantGen)
			}
		})
	}
}

// TestCutCostsTheBlockNotTheState is the commit path's complexity pin
// (ROADMAP item 3): over 1 k and over 64 k resident documents, the
// group that cuts a checkpoint has encoded exactly its own documents
// and written no segment byte when Group returns — read off the encode
// counter and the directory with the fold held at its start — and the
// fold then encodes the state, once, beside it. The cut's duration is
// logged for both sizes; what it does per key is copy a pointer.
func TestCutCostsTheBlockNotTheState(t *testing.T) {
	for _, resident := range []int{1 << 10, 64 << 10} {
		t.Run(fmt.Sprint(resident), func(t *testing.T) {
			dir := t.TempDir()
			e, err := Open(dir, Options{NoSync: true, CompactWALBytes: 1 << 40})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			reg := obs.New()
			e.SetObs(reg)
			park := newParker("fold-start")
			e.hook = park.hook
			c := e.Collection("txs")
			for k := 0; k < resident; {
				if err := e.Group(func() error {
					for j := 0; j < 256; j, k = j+1, k+1 {
						if err := c.Put(fmt.Sprintf("k%07d", k), doc("i", float64(k))); err != nil {
							return err
						}
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}
			encoded := reg.Counter("storage.encoded_docs")
			if got := encoded.Value(); got != uint64(resident) {
				t.Fatalf("loading %d documents encoded %d", resident, got)
			}
			e.opts.CompactWALBytes = e.stats().WALBytes // the next group crosses it

			const own = 32
			if err := e.Group(func() error {
				for j := 0; j < own; j++ {
					if err := c.Put(fmt.Sprintf("own%02d", j), doc("j", float64(j))); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			<-park.parked
			if got := encoded.Value() - uint64(resident); got != own {
				t.Errorf("the cutting group encoded %d documents, its own are %d", got, own)
			}
			if segs, _ := filepath.Glob(filepath.Join(dir, "seg-*")); len(segs) != 0 {
				t.Errorf("segment files exist before the fold started: %v", segs)
			}
			cut := reg.Histogram("storage.checkpoint.cut_ns").Snapshot()
			if cut.Count != 1 {
				t.Fatalf("storage.checkpoint.cut_ns recorded %d cuts", cut.Count)
			}
			t.Logf("%d resident documents: cut took %d ns", resident, cut.Sum)
			close(park.release)
			if err := e.joinFold(); err != nil {
				t.Fatal(err)
			}
			if got := encoded.Value() - uint64(resident); got != uint64(own+resident+own) {
				t.Errorf("cut group and fold together encoded %d documents, want %d + %d", got, own, resident+own)
			}
			snap := reg.Snapshot()
			if snap.Histograms["storage.checkpoint.fold_ns"].Count != 1 || snap.Counters["storage.compactions"] != 1 ||
				snap.Gauges["storage.checkpoint.inflight"] != 0 || snap.Gauges["storage.gen"] != 1 || snap.Gauges["storage.segments"] != 1 ||
				snap.Gauges["storage.wal.bytes"] != walHeaderLen {
				t.Errorf("after the checkpoint: %v %v", snap.Counters, snap.Gauges)
			}
		})
	}
}

// TestCheckpointTriggerIsGeometric: over an append-only history of 16
// thresholds' worth of WAL, checkpoints are cut when the log first
// passes CompactWALBytes and from then on each time it passes what the
// previous one wrote — at about 1, 2, 4, 8 and 16 thresholds — so the
// bytes all of them rewrite are a small multiple of the history, where
// one per threshold (16 here, as the engine did before) rewrites a
// multiple that grows with it.
func TestCheckpointTriggerIsGeometric(t *testing.T) {
	const threshold = 16 << 10
	e, err := Open(t.TempDir(), Options{NoSync: true, CompactWALBytes: threshold})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	cuts := 0
	e.hook = func(p string) {
		if p == "cut-published" {
			cuts++
		}
	}
	c := e.Collection("txs")
	var frame, history, firstCut int64
	for k := 0; history < 16*threshold; k++ {
		if err := e.Group(func() error {
			return c.Put(fmt.Sprintf("k%06d", k), doc("pad", strings.Repeat("x", 1000)))
		}); err != nil {
			t.Fatal(err)
		}
		if err := e.joinFold(); err != nil {
			t.Fatal(err)
		}
		if k == 0 {
			frame = e.stats().WALBytes - walHeaderLen // every frame is this long
		}
		history += frame
		if cuts == 1 && firstCut == 0 {
			firstCut = history
		}
	}
	if firstCut <= threshold-walHeaderLen || firstCut > threshold+frame {
		t.Errorf("first checkpoint after %d bytes of log, want just past %d", firstCut, threshold)
	}
	t.Logf("%d checkpoints, the first after %d bytes of log", cuts, firstCut)
	if cuts < 4 || cuts > 6 {
		t.Errorf("%d checkpoints over 16 thresholds of append-only history, want 4 or 5 (at about 1, 2, 4, 8 and, if the history reaches it, 16)", cuts)
	}
}

// TestCheckpointFailureIsNotALostGroup: a checkpoint that cannot write
// into the data directory — here a directory squats on the name of the
// file it needs, which stops root too — surfaces as ErrCheckpoint with
// the group that triggered it durable, counts in
// storage.checkpoint.failed with its reason, and leaves everything on
// disk readable. A failed cut is that Group's error and is tried again
// by the next; a failed fold is sticky: the next group that would cut,
// Compact and Close all return it.
func TestCheckpointFailureIsNotALostGroup(t *testing.T) {
	write := func(t *testing.T, e *Engine, k int) error {
		return e.Group(func() error {
			return e.Collection("txs").Put(fmt.Sprintf("k%04d", k), doc("pad", strings.Repeat("x", 600)))
		})
	}
	reopens := func(t *testing.T, dir, squatter string, want state) {
		t.Helper()
		dir = copyDir(t, dir) // leaves the squatting directory behind
		e, err := Open(dir, Options{NoSync: true})
		if err != nil {
			t.Fatalf("reopen without %s: %v", squatter, err)
		}
		defer e.Close()
		if !reflect.DeepEqual(stateOf(e), want) {
			t.Fatal("reopened state is not what was acknowledged")
		}
	}

	t.Run("cut", func(t *testing.T) {
		dir := t.TempDir()
		e, err := Open(dir, Options{NoSync: true, CompactWALBytes: 2 << 10})
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.New()
		e.SetObs(reg)
		if err := os.Mkdir(filepath.Join(dir, walName(1)), 0o755); err != nil {
			t.Fatal(err)
		}
		var failed []error
		for k := 0; k < 8; k++ {
			if err := write(t, e, k); err != nil {
				if !errors.Is(err, ErrCheckpoint) {
					t.Fatalf("group %d: %v, want ErrCheckpoint", k, err)
				}
				failed = append(failed, err)
			}
		}
		if len(failed) < 2 {
			t.Fatalf("%d groups reported the failing cut, want every one past the threshold", len(failed))
		}
		if n := e.Collection("txs").Len(); n != 8 {
			t.Fatalf("%d of 8 groups applied", n)
		}
		snap := reg.Snapshot()
		if snap.Counters["storage.checkpoint.failed"] != uint64(len(failed)) || snap.Notes["storage.checkpoint.failed"] != failed[len(failed)-1].Error() {
			t.Errorf("storage.checkpoint.failed = %d, note %q; want %d failures ending in %q",
				snap.Counters["storage.checkpoint.failed"], snap.Notes["storage.checkpoint.failed"], len(failed), failed[len(failed)-1])
		}
		if st := e.stats(); st.Gen != 0 || st.WALs != 1 || st.Folding {
			t.Errorf("a failed cut changed the engine's shape: %+v", st)
		}
		want := stateOf(e)
		if err := e.Close(); err != nil {
			t.Fatalf("close after a failed cut: %v", err)
		}
		reopens(t, dir, walName(1), want)
	})

	t.Run("fold", func(t *testing.T) {
		dir := t.TempDir()
		e, err := Open(dir, Options{NoSync: true, CompactWALBytes: 2 << 10})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Mkdir(filepath.Join(dir, segName(1, 0)+".tmp"), 0o755); err != nil {
			t.Fatal(err)
		}
		var sticky error
		k := 0
		for ; sticky == nil && k < 64; k++ {
			sticky = write(t, e, k)
			if sticky == nil {
				// Not a wait the engine needs: it makes the group that
				// reports the failure the same one every run.
				e.joinFold()
			}
		}
		if !errors.Is(sticky, ErrCheckpoint) || !strings.Contains(sticky.Error(), "fold txs") {
			t.Fatalf("after %d groups: %v, want the fold's ErrCheckpoint", k, sticky)
		}
		if st := e.stats(); st.Gen != 1 || st.WALs != 2 || st.Segments != 0 || st.Folding {
			t.Errorf("after the failed fold: %+v, want the cut's MANIFEST still in force", st)
		}
		if n := e.Collection("txs").Len(); n != k {
			t.Fatalf("%d of %d groups applied", n, k)
		}
		if err := e.Compact(); err != sticky {
			t.Errorf("Compact after a failed fold: %v", err)
		}
		want := stateOf(e)
		if err := e.Close(); !errors.Is(err, ErrCheckpoint) {
			t.Errorf("Close after a failed fold: %v", err)
		}
		reopens(t, dir, segName(1, 0)+".tmp", want)
	})
}

// TestReplayStreamsFrames: replay hands apply every frame through one
// buffer, sized by the largest frame and never by a length field the
// file cannot back.
func TestReplayStreamsFrames(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	c := e.Collection("txs")
	sizes := []int{10, 5000, 200, 70000, 1}
	for i, n := range sizes {
		if err := c.Put(fmt.Sprint(i), doc("pad", strings.Repeat("x", n))); err != nil {
			t.Fatal(err)
		}
	}
	e.Close()
	path := filepath.Join(dir, walName(0))
	var bufs []*byte
	var got []int
	size, err := replayWAL(path, true, func(p []byte) error {
		bufs = append(bufs, &p[:1][0])
		got = append(got, len(p))
		return nil
	})
	if err != nil || size != walSize(t, path) || len(got) != len(sizes) {
		t.Fatalf("replayed %d frames, %d of %d bytes: %v", len(got), size, walSize(t, path), err)
	}
	if bufs[1] != bufs[2] || bufs[3] != bufs[4] {
		t.Errorf("frames of %v bytes did not reuse the payload buffer", got)
	}
	// A frame header promising more than the file holds is a torn tail,
	// not an allocation.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x0f, 0xff, 0xff, 0xff, 0, 0, 0, 0, 'x'})
	f.Close()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	n, err := replayWAL(path, true, func([]byte) error { return nil })
	runtime.ReadMemStats(&m1)
	if err != nil || n != size {
		t.Fatalf("replay over a lying length field: %d bytes valid of %d, %v", n, size, err)
	}
	if got := m1.TotalAlloc - m0.TotalAlloc; got > 1<<20 {
		t.Errorf("replaying %d bytes of log allocated %d", size, got)
	}
	if walSize(t, path) != size {
		t.Errorf("torn tail not truncated: %d bytes, want %d", walSize(t, path), size)
	}
}
