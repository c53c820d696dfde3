package storage

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"smartchaindb/internal/obs"
)

// WAL framing. Each commit appends one frame:
//
//	[4B big-endian payload length][4B CRC32-C of payload][payload]
//
// The file starts with an 8-byte magic. Recovery reads frames until
// EOF or the first bad length/CRC. In the last WAL MANIFEST names that
// is a torn final record (the process died mid-write): the file is
// truncated there, rolling back to the last fully durable group. An
// earlier WAL was fsynced before the checkpoint cut that closed it was
// published, so a bad frame there is corruption and fails the open.

var walMagic = [8]byte{'S', 'C', 'D', 'B', 'W', 'A', 'L', '1'}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const (
	walHeaderLen     = 8
	walFrameOverhead = 8
	// maxWALPayload bounds a single record; anything larger in the
	// length field is treated as corruption during replay.
	maxWALPayload = 256 << 20
)

// wal is an append-only log with leader-based group fsync: concurrent
// committers append frames under the mutex, then the first one to
// reach the sync point fsyncs once for every frame written so far and
// wakes the rest — one fsync per batch of concurrent commits.
type wal struct {
	noSync bool

	mu        sync.Mutex
	cond      *sync.Cond
	f         *os.File
	size      int64 // bytes written (header included)
	syncedEnd int64 // bytes known durable
	syncing   bool
	err       error // sticky I/O failure; the engine is dead once set

	// Metric handles (guarded by mu; nil = no-op).
	fsyncNs    *obs.Histogram
	groupBytes *obs.Histogram
	groups     *obs.Counter
	walBytes   *obs.Gauge
}

// setObs attaches (nil: detaches) the WAL's metric handles.
func (w *wal) setObs(reg *obs.Registry) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if reg == nil {
		w.fsyncNs, w.groupBytes, w.groups, w.walBytes = nil, nil, nil, nil
		return
	}
	w.fsyncNs = reg.Histogram("storage.wal.fsync_ns")
	w.groupBytes = reg.Histogram("storage.wal.group_bytes")
	w.groups = reg.Counter("storage.wal.groups")
	w.walBytes = reg.Gauge("storage.wal.bytes")
	w.walBytes.Set(w.size)
}

// createWAL makes a fresh, empty, synced WAL file at path.
func createWAL(path string, noSync bool) (*wal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(walMagic[:]); err != nil {
		f.Close()
		return nil, err
	}
	if !noSync {
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
	}
	w := &wal{f: f, size: walHeaderLen, syncedEnd: walHeaderLen, noSync: noSync}
	w.cond = sync.NewCond(&w.mu)
	return w, nil
}

// openWALForAppend opens an existing (already replayed and truncated)
// WAL file for appending. size is the validated byte length.
func openWALForAppend(path string, size int64, noSync bool) (*wal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if size < walHeaderLen {
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, err
		}
		if _, err := f.Write(walMagic[:]); err != nil {
			f.Close()
			return nil, err
		}
		size = walHeaderLen
	} else if _, err := f.Seek(size, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	w := &wal{f: f, size: size, syncedEnd: size, noSync: noSync}
	w.cond = sync.NewCond(&w.mu)
	return w, nil
}

// commit appends one finished frame (groupFrame.finish) with a single
// write and waits until it is durable. Concurrent commits share fsyncs
// (group commit). The frame is the caller's again on return.
func (w *wal) commit(frame []byte) error {
	if n := len(frame) - walFrameOverhead; n > maxWALPayload {
		// Replay treats anything past this bound as corruption, so
		// acknowledging it would be silent data loss on restart.
		return fmt.Errorf("storage: wal record of %d bytes exceeds the %d-byte limit", n, maxWALPayload)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if _, err := w.f.Write(frame); err != nil {
		w.err = fmt.Errorf("storage: wal append: %w", err)
		w.cond.Broadcast()
		return w.err
	}
	w.size += int64(len(frame))
	w.groups.Inc()
	w.groupBytes.Observe(int64(len(frame)))
	w.walBytes.Set(w.size)
	myEnd := w.size
	if w.noSync {
		return nil
	}
	for w.syncedEnd < myEnd {
		if w.err != nil {
			return w.err
		}
		if w.syncing {
			// Another committer is fsyncing; wait for its result.
			w.cond.Wait()
			continue
		}
		w.syncing = true
		target := w.size // everything appended so far rides this fsync
		fsyncNs := w.fsyncNs
		w.mu.Unlock()
		t0 := time.Now()
		err := w.f.Sync()
		fsyncNs.ObserveSince(t0)
		w.mu.Lock()
		w.syncing = false
		if err != nil {
			w.err = fmt.Errorf("storage: wal fsync: %w", err)
		} else if target > w.syncedEnd {
			w.syncedEnd = target
		}
		w.cond.Broadcast()
	}
	return w.err
}

// bytes reports the current WAL length.
func (w *wal) bytes() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// sync makes every appended frame durable. Committers fsync their own
// frames, so between groups this finds nothing to do; a checkpoint's
// cut calls it to hold that rather than assume it.
func (w *wal) sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.noSync || w.syncedEnd == w.size {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		w.err = fmt.Errorf("storage: wal fsync: %w", err)
		return w.err
	}
	w.syncedEnd = w.size
	return nil
}

// close syncs and closes the file.
func (w *wal) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	var err error
	if !w.noSync && w.err == nil {
		err = w.f.Sync()
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// replayWAL streams every intact frame of the file at path through
// apply, in append order, and returns the validated length. Frames are
// read through one reused payload buffer — apply must not retain it —
// so a reopen holds one group resident, not the log. What follows the
// last intact frame is cut off when last is set (the torn tail of the
// WAL that was live) and is an error naming the file otherwise. A
// missing live WAL is an empty log.
func replayWAL(path string, last bool, apply func(payload []byte) error) (int64, error) {
	f, err := os.Open(path)
	if last && errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, err
	}
	size := fi.Size()
	valid, err := readFrames(bufio.NewReaderSize(f, 1<<16), size, apply)
	if err != nil {
		return valid, fmt.Errorf("storage: %s: %w", filepath.Base(path), err)
	}
	if valid == size {
		return valid, nil
	}
	if !last {
		return valid, fmt.Errorf("storage: %s: corrupt at byte %d of %d, in a wal closed by a checkpoint", filepath.Base(path), valid, size)
	}
	if err := os.Truncate(path, valid); err != nil {
		return valid, fmt.Errorf("storage: truncate torn wal tail: %w", err)
	}
	return valid, nil
}

// readFrames reads a WAL of size bytes from r and returns how many of
// them were intact frames (with the magic) handed to apply. A frame
// length is checked against the bytes the file still has before
// anything is sized by it.
func readFrames(r io.Reader, size int64, apply func(payload []byte) error) (valid int64, err error) {
	// short separates "the file ends here" — a torn tail, for the
	// caller to judge — from a read that failed.
	short := func(err error) error {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil
		}
		return err
	}
	var hdr [8]byte // the file's magic, then each frame's header: both 8 bytes
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, short(err)
	}
	if hdr != walMagic {
		return 0, nil
	}
	valid = walHeaderLen
	var payload []byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return valid, short(err)
		}
		n := int64(binary.BigEndian.Uint32(hdr[0:4]))
		if n > maxWALPayload || n > size-valid-walFrameOverhead {
			return valid, nil
		}
		if int64(cap(payload)) < n {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(r, payload); err != nil {
			return valid, short(err)
		}
		if binary.BigEndian.Uint32(hdr[4:8]) != crc32.Checksum(payload, castagnoli) {
			return valid, nil
		}
		if err := apply(payload); err != nil {
			return valid, err
		}
		valid += walFrameOverhead + n
	}
}
