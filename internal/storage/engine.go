package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"smartchaindb/internal/obs"
)

// Options tunes a disk Engine.
type Options struct {
	// NoSync skips fsync on WAL commits. Writes still reach the file
	// (crash recovery from the file's bytes keeps working); only
	// power-loss durability is traded away. The test suites use it to
	// run the full tier-1 battery over the disk backend at memory
	// speed.
	NoSync bool
	// CompactWALBytes triggers an automatic checkpoint once the WAL
	// grows past this size — or past what the last checkpoint wrote,
	// when that is larger, so the total rewrite work over a history is
	// geometric in it. <= 0 means DefaultCompactWALBytes.
	CompactWALBytes int64
}

// DefaultCompactWALBytes is the automatic-checkpoint threshold.
const DefaultCompactWALBytes = 64 << 20

// ErrCheckpoint marks an error as a failed checkpoint — the cut, the
// fold or the install of Engine.Compact and of the automatic one behind
// Engine.Group. Whatever was being committed when it is returned is
// durable: a checkpoint failure loses nothing, it only leaves the log
// unfolded, and the generation on disk stays intact and readable.
var ErrCheckpoint = errors.New("storage: checkpoint failed")

func checkpointErr(step string, err error) error {
	return fmt.Errorf("%w: %s: %w", ErrCheckpoint, step, err)
}

// Engine is the disk backend: the shared memtable as the
// resident working set, a group-fsynced WAL for durability, and
// sorted segment files written by checkpoints. See the package comment
// for the on-disk formats and the checkpoint protocol.
type Engine struct {
	dir  string
	opts Options

	// compactMu is held shared by every logger and exclusively by a
	// checkpoint's cut, so a WAL swap never races an append and the
	// heads a cut captures are exactly what the closed WALs hold.
	compactMu sync.RWMutex

	// stageMu guards the open-group state. While a Group is open,
	// mutations from any goroutine are encoded into its frame and become
	// durable when the group commits as one WAL record.
	stageMu   sync.Mutex
	groupOpen bool
	frame     groupFrame

	// groupMu serializes Groups.
	groupMu sync.Mutex

	mu        sync.Mutex // guards everything below down to reg
	wal       *wal       // the live WAL, the last one man names
	man       manifest   // what MANIFEST on disk says
	fold      chan struct{}
	foldErr   error
	foldBytes int64
	closed    bool
	reg       *obs.Registry

	ob atomic.Pointer[engineObs]

	// hook, when a test sets it (before the engine's first write), is
	// called with the name of each point of a checkpoint a crash or a
	// wait can fall on: in the cut ("wal-created", "cut-published") with
	// the engine's locks held, in the fold ("fold-start", "mid-segment",
	// "segments-renamed", "installed") and before blocking on one
	// ("join") with none.
	hook func(point string)

	lock *os.File // flock on <dir>/LOCK for the engine's lifetime
	mem  *Memory
}

// engineObs holds the engine's metric handles. The zero value's nil
// handles are no-ops.
type engineObs struct {
	encodedDocs *obs.Counter   // storage.encoded_docs
	cutNs       *obs.Histogram // storage.checkpoint.cut_ns
	foldNs      *obs.Histogram // storage.checkpoint.fold_ns
	inflight    *obs.Gauge     // storage.checkpoint.inflight
	failed      *obs.Counter   // storage.checkpoint.failed
	compactNs   *obs.Histogram // storage.compact_ns
	compactions *obs.Counter   // storage.compactions
	segments    *obs.Gauge     // storage.segments
	gen         *obs.Gauge     // storage.gen
}

func (e *Engine) metrics() engineObs {
	if ob := e.ob.Load(); ob != nil {
		return *ob
	}
	return engineObs{}
}

func (e *Engine) at(point string) {
	if e.hook != nil {
		e.hook(point)
	}
}

// Open loads (or creates) the engine at dir: the segments MANIFEST
// names, then every WAL it names in order, truncating a torn final
// record of the last one, then removes what a crashed checkpoint left
// behind. The returned engine serves reads from memory and appends
// every mutation group to the WAL.
func Open(dir string, opts Options) (*Engine, error) {
	if opts.CompactWALBytes <= 0 {
		opts.CompactWALBytes = DefaultCompactWALBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// One engine per directory: two writers appending to the same WAL
	// would silently corrupt each other's acknowledged records.
	lock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	e := &Engine{dir: dir, opts: opts, lock: lock, mem: NewMemory()}
	if err := e.recover(); err != nil {
		if e.wal != nil {
			e.wal.close()
		}
		e.unlock()
		return nil, err
	}
	return e, nil
}

func (e *Engine) recover() error {
	man, err := readManifest(e.dir)
	if err != nil {
		return err
	}
	var maxH int64
	for _, seg := range man.Segments {
		h, n, err := loadSegment(filepath.Join(e.dir, seg), e.mem)
		if err != nil {
			return err
		}
		maxH = max(maxH, h)
		e.foldBytes += n
	}
	wals := man.wals()
	var size int64
	for i, name := range wals {
		size, err = replayWAL(filepath.Join(e.dir, name), i == len(wals)-1, func(payload []byte) error {
			return decodeGroup(payload, func(h int64, m mutation) error {
				maxH = max(maxH, h)
				return e.replay(h, m)
			})
		})
		if err != nil {
			return err
		}
	}
	// Snapshot visibility starts at the highest recovered height with
	// no history below it: version history does not survive a restart.
	e.mem.recoverClock(maxH)
	e.man = man
	if e.wal, err = openWALForAppend(filepath.Join(e.dir, man.WAL), size, e.opts.NoSync); err != nil {
		return err
	}
	if err := removeStrays(e.dir, man); err != nil {
		return err
	}
	// More than one WAL is a checkpoint a crash interrupted after its
	// cut: redo it now rather than carry the closed log to the next one.
	if len(wals) > 1 || e.wal.bytes() > e.trigger() {
		return e.Compact()
	}
	return nil
}

// replay applies one recovered mutation to the memtable at its logged
// block height.
func (e *Engine) replay(h int64, m mutation) error {
	switch m.op {
	case opPut, opPrepare, opDecide:
		doc, err := unmarshalDoc(m.doc)
		if err != nil {
			return err
		}
		e.mem.coll(m.coll).putReplay(m.key, doc, h)
		return nil
	case opDelete:
		e.mem.coll(m.coll).deleteReplay(m.key, h)
		return nil
	}
	return fmt.Errorf("storage: unknown op %d", m.op)
}

// framePool holds the frames of mutations logged outside any Group,
// which may run concurrently; a Group builds its frame in the engine's
// own.
var framePool = sync.Pool{New: func() any { return new(groupFrame) }}

// apply makes one mutation durable and applies it to the memtable. The
// document is encoded once, straight into the frame that is written to
// the file. While a group is open the mutation joins its frame (the
// open Group holds the compaction lock, covering the memtable update);
// otherwise it commits as its own WAL record, group-fsynced with any
// concurrent committers, under the compaction lock so a WAL swap can
// never separate the log append from the memtable update.
func (e *Engine) apply(op byte, coll, key string, doc map[string]any) error {
	e.stageMu.Lock()
	if e.groupOpen {
		// Stage and update the memtable in one stageMu critical
		// section: the group cannot close (and a checkpoint cannot
		// capture) between the WAL staging and the memtable write,
		// and same-key mutations hit both logs in the same order.
		err := e.frame.add(op, coll, key, doc)
		if err == nil {
			err = e.applyMem(op, coll, key, doc)
		}
		e.stageMu.Unlock()
		return err
	}
	e.stageMu.Unlock()
	e.compactMu.RLock()
	defer e.compactMu.RUnlock()
	g := framePool.Get().(*groupFrame)
	defer framePool.Put(g)
	g.reset()
	if err := g.add(op, coll, key, doc); err != nil {
		return err
	}
	if err := e.commitFrame(g, e.mem.StampHeight()); err != nil {
		return err
	}
	return e.applyMem(op, coll, key, doc)
}

// applyMem applies one logged mutation to the memtable at the clock's
// current height, as a replay of its record would.
func (e *Engine) applyMem(op byte, coll, key string, doc map[string]any) error {
	if op == opDelete {
		return e.mem.coll(coll).Delete(key)
	}
	return e.mem.coll(coll).Put(key, doc)
}

// commitFrame closes g at height and appends it to the live WAL.
func (e *Engine) commitFrame(g *groupFrame, height int64) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return fmt.Errorf("storage: engine is closed")
	}
	w := e.wal
	e.mu.Unlock()
	e.metrics().encodedDocs.Add(g.docs)
	return w.commit(g.finish(height))
}

// Group commits every mutation fn issues as one atomic WAL record.
// Reads inside fn see the group's writes immediately; durability is
// all-or-nothing at the record boundary, which is how a block commit
// survives (or wholly vanishes across) a crash.
//
// A group that leaves the WAL past the checkpoint threshold also cuts a
// checkpoint before it returns: the WAL swap and a pointer capture of
// the live documents — nothing is encoded and no segment written on
// this path; the fold runs beside later commits. An error that
// errors.Is ErrCheckpoint reports that cut, or an earlier fold, failing
// after the group itself became durable: a node that cannot fold its
// WAL must hear about it before the log grows without bound on a sick
// disk.
func (e *Engine) Group(fn func() error) error {
	if err := e.group(fn); err != nil {
		return err
	}
	e.mu.Lock()
	due := !e.closed && e.fold == nil && e.wal.bytes() > e.trigger()
	e.mu.Unlock()
	if !due {
		return nil
	}
	return e.cut()
}

func (e *Engine) group(fn func() error) (err error) {
	e.groupMu.Lock()
	defer e.groupMu.Unlock()
	e.compactMu.RLock()
	defer e.compactMu.RUnlock()

	e.stageMu.Lock()
	e.groupOpen = true
	e.frame.reset()
	e.stageMu.Unlock()

	// Closing the group is deferred so a panicking fn cannot leave
	// groupOpen set — which would silently route every later
	// mutation into a frame nobody flushes. Mutations issued by fn
	// already reached the memtable, so the record must land even when
	// fn failed part-way: the callers' per-item atomicity (a failing
	// transaction mutates nothing) decides what got staged, the group
	// decides crash atomicity.
	defer func() {
		e.stageMu.Lock()
		e.groupOpen = false
		e.stageMu.Unlock()
		if e.frame.count == 0 {
			return
		}
		// The group flushes before its block seals, so the stamp still
		// names the height the staged memtable writes carried. A flush
		// failure outranks fn's error: it means acknowledged memtable
		// state never became durable.
		if ferr := e.commitFrame(&e.frame, e.mem.StampHeight()); ferr != nil {
			err = ferr
		}
	}()
	return fn()
}

// trigger is the live WAL size past which a checkpoint is due. Caller
// holds mu.
func (e *Engine) trigger() int64 { return max(e.opts.CompactWALBytes, e.foldBytes) }

// Collection returns the named backend collection, creating it on
// first use.
func (e *Engine) Collection(name string) Collection {
	return &engineColl{MemCollection: e.mem.coll(name), e: e}
}

// CollectionNames lists existing collections, sorted.
func (e *Engine) CollectionNames() []string { return e.mem.CollectionNames() }

// BeginBlock opens block h on the engine's height clock.
func (e *Engine) BeginBlock(h int64) { e.mem.BeginBlock(h) }

// SealBlock publishes block h and garbage-collects stale versions.
func (e *Engine) SealBlock(h int64) { e.mem.SealBlock(h) }

// Visible returns the highest sealed height.
func (e *Engine) Visible() int64 { return e.mem.Visible() }

// Floor returns the lowest height snapshot reads are exact for.
func (e *Engine) Floor() int64 { return e.mem.Floor() }

// StampHeight returns the height the next write is stamped with.
func (e *Engine) StampHeight() int64 { return e.mem.StampHeight() }

// SetRetain sets K, the number of sealed heights retained.
func (e *Engine) SetRetain(k int64) { e.mem.SetRetain(k) }

// SetObs attaches an observability registry: WAL group bytes / fsync
// latency, segment and generation gauges, checkpoint durations, and
// the memtable's MVCC metrics all record into it.
func (e *Engine) SetObs(reg *obs.Registry) {
	e.mem.SetObs(reg)
	e.mu.Lock()
	defer e.mu.Unlock()
	e.reg = reg
	e.wal.setObs(reg)
	if reg == nil {
		e.ob.Store(nil)
		return
	}
	ob := &engineObs{
		encodedDocs: reg.Counter("storage.encoded_docs"),
		cutNs:       reg.Histogram("storage.checkpoint.cut_ns"),
		foldNs:      reg.Histogram("storage.checkpoint.fold_ns"),
		inflight:    reg.Gauge("storage.checkpoint.inflight"),
		failed:      reg.Counter("storage.checkpoint.failed"),
		compactNs:   reg.Histogram("storage.compact_ns"),
		compactions: reg.Counter("storage.compactions"),
		segments:    reg.Gauge("storage.segments"),
		gen:         reg.Gauge("storage.gen"),
	}
	ob.segments.Set(int64(len(e.man.Segments)))
	ob.gen.Set(int64(e.man.Gen))
	if e.fold != nil {
		ob.inflight.Set(1)
	}
	e.ob.Store(ob)
}

// Compact checkpoints the engine and waits for it: everything written
// before the call is in the new generation's segment files when it
// returns, and the WALs that held it are gone. It is the same three
// steps the automatic checkpoint takes — cut, fold, install — with the
// caller waiting where a committing Group moves on.
func (e *Engine) Compact() error {
	// A fold cut before this call does not hold what was written since.
	if err := e.joinFold(); err != nil {
		return err
	}
	// A no-op when a racing Group cut first: that cut covers this call.
	if err := e.cut(); err != nil {
		return err
	}
	return e.joinFold()
}

// joinFold waits for the fold in flight, if any, and returns the
// sticky fold failure.
func (e *Engine) joinFold() error {
	e.mu.Lock()
	done := e.fold
	e.mu.Unlock()
	if done != nil {
		e.at("join")
		<-done
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.foldErr
}

// cut is the first step of a checkpoint and the only one on the commit
// path. Between groups — the exclusive compaction lock — it makes the
// live WAL durable, creates the next one, publishes a MANIFEST naming
// the current segments and every WAL including the new one, swaps the
// live WAL, and captures the head version of every live document: a
// pointer copy, O(keys), with nothing encoded and no segment touched.
// The fold it starts writes the captured heads out beside later
// commits. With a fold already in flight it does nothing: one at a
// time, and the next group past the trigger cuts again.
func (e *Engine) cut() error {
	e.compactMu.Lock()
	defer e.compactMu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return fmt.Errorf("storage: engine is closed")
	}
	if e.fold != nil {
		return nil
	}
	if e.foldErr != nil {
		return e.foldErr
	}
	ob := e.metrics()
	t0 := time.Now()
	cut := manifest{Version: 1, Gen: e.man.Gen + 1, Segments: e.man.Segments}
	cut.WAL = walName(cut.Gen)
	cut.WALs = slices.Concat(e.man.wals(), []string{cut.WAL})
	if err := e.wal.sync(); err != nil {
		return e.failed(checkpointErr("cut", err))
	}
	next, err := createWAL(filepath.Join(e.dir, cut.WAL), e.opts.NoSync)
	if err != nil {
		return e.failed(checkpointErr("cut", err))
	}
	e.at("wal-created")
	if err := writeManifest(e.dir, cut); err != nil {
		// The empty next WAL stays: MANIFEST may or may not have been
		// replaced, and Open copes with the file either way — removes
		// it unnamed, replays it named.
		next.close()
		return e.failed(checkpointErr("cut", err))
	}
	e.at("cut-published")
	// The closed WAL was synced above and nothing has been appended
	// since; MANIFEST already names its successor.
	_ = e.wal.close()
	e.wal, e.man = next, cut
	next.setObs(e.reg)
	heads := e.mem.captureHeads()
	done := make(chan struct{})
	e.fold = done
	ob.gen.Set(int64(cut.Gen))
	ob.inflight.Set(1)
	ob.cutNs.ObserveSince(t0)
	go e.runFold(cut, heads, t0, done)
	return nil
}

// failed counts a checkpoint failure and notes its reason. Caller holds
// mu.
func (e *Engine) failed(err error) error {
	e.metrics().failed.Inc()
	e.reg.Note("storage.checkpoint.failed", err.Error())
	return err
}

// runFold is the rest of a checkpoint, on its own goroutine and under
// no engine lock until the books are updated at the end. The captured
// versions are immutable, so commits and reads proceed throughout. A
// failure is sticky: the cut's MANIFEST stays in force — old segments
// plus every WAL, all intact — and the next cut, Compact and Close
// report it.
func (e *Engine) runFold(cut manifest, heads []collHeads, t0 time.Time, done chan struct{}) {
	inst, written, err := e.foldAndInstall(cut, heads)
	e.mu.Lock()
	ob := e.metrics()
	if err != nil {
		e.foldErr = e.failed(err)
	} else {
		e.man = inst
		e.foldBytes = written
		ob.segments.Set(int64(len(inst.Segments)))
		ob.compactions.Inc()
		ob.compactNs.ObserveSince(t0)
	}
	e.fold = nil
	ob.inflight.Set(0)
	e.mu.Unlock()
	close(done)
}

// foldAndInstall writes the captured heads into the new generation's
// key-sorted segment files (fold), then publishes a MANIFEST naming
// them and the live WAL only and deletes the generation it supersedes
// (install). It returns that MANIFEST and the segment bytes written.
func (e *Engine) foldAndInstall(cut manifest, heads []collHeads) (inst manifest, written int64, err error) {
	ob := e.metrics()
	e.at("fold-start")
	t0 := time.Now()
	inst = manifest{Version: 1, Gen: cut.Gen, WAL: cut.WAL}
	for i, ch := range heads {
		seg := segName(cut.Gen, i)
		n, err := writeSegment(filepath.Join(e.dir, seg), ch, e.at)
		if err != nil {
			return inst, 0, checkpointErr("fold "+ch.name, err)
		}
		ob.encodedDocs.Add(uint64(len(ch.heads)))
		inst.Segments = append(inst.Segments, seg)
		written += n
	}
	e.at("segments-renamed")
	ob.foldNs.ObserveSince(t0)
	if err := writeManifest(e.dir, inst); err != nil {
		return inst, 0, checkpointErr("install", err)
	}
	e.at("installed")
	// MANIFEST no longer names the old generation; removal is
	// best-effort, and Open removes what a crash leaves here.
	for _, name := range cut.WALs[:len(cut.WALs)-1] {
		os.Remove(filepath.Join(e.dir, name))
	}
	for _, name := range cut.Segments {
		os.Remove(filepath.Join(e.dir, name))
	}
	return inst, written, nil
}

// Close waits for a fold in flight, then flushes and closes the WAL.
// The directory can be reopened. A sticky fold failure is returned
// here too: the data is all there, the checkpoint is not.
func (e *Engine) Close() error {
	// No cut can start under the exclusive compaction lock, so a fold
	// found absent there stays absent once closed is set.
	for {
		e.joinFold()
		e.compactMu.Lock()
		e.mu.Lock()
		if e.fold == nil {
			break
		}
		e.mu.Unlock()
		e.compactMu.Unlock()
	}
	defer e.compactMu.Unlock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	e.closed = true
	tripClosed(&e.mem.clock)
	err := errors.Join(e.wal.close(), e.foldErr)
	e.unlock()
	return err
}

// unlock releases the directory lock (closing the fd drops the flock).
func (e *Engine) unlock() {
	if e.lock != nil {
		e.lock.Close()
		e.lock = nil
	}
}

// engineColl is one collection handle: the memtable collection for
// reads, the WAL for durability of every write.
type engineColl struct {
	*MemCollection
	e *Engine
}

func (c *engineColl) Put(key string, doc map[string]any) error {
	return c.e.apply(opPut, c.name, key, doc)
}

func (c *engineColl) Delete(key string) error {
	if !c.Has(key) {
		return nil
	}
	return c.e.apply(opDelete, c.name, key, nil)
}
