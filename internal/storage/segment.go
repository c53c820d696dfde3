package storage

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// Segment files are the log-structured half of the engine: a
// checkpoint folds each collection into one immutable, key-sorted
// segment file and moves on to a fresh WAL, so the recovery cost of a
// long-lived node stays proportional to the traffic since its last
// checkpoint rather than its whole history.

var segMagic = [8]byte{'S', 'C', 'D', 'B', 'S', 'E', 'G', '1'}

// segVersion is the one segment version ever written to a file:
// records carry [key][ord][height][doc].
const segVersion = 2

const manifestName = "MANIFEST"

// manifest is the engine's atomically swapped root pointer: the
// segment files holding the last installed checkpoint, and the WALs to
// replay over them.
type manifest struct {
	Version int `json:"version"`
	// Gen is the generation of the live WAL. The segments are of the
	// same generation once its checkpoint has installed, and of an
	// older one between the cut and the install.
	Gen uint64 `json:"gen"`
	// WAL is the live WAL: the last to replay, the one appended to, and
	// the only one whose tail may be torn.
	WAL      string   `json:"wal"`
	Segments []string `json:"segments"`
	// WALs lists every WAL to replay, oldest first, ending in WAL. It
	// is written only while there is more than one — between a cut and
	// its install — so a manifest without it reads as its single WAL.
	WALs []string `json:"wals,omitempty"`
}

// wals returns the WALs to replay, oldest first.
func (m manifest) wals() []string {
	if len(m.WALs) == 0 {
		return []string{m.WAL}
	}
	return m.WALs
}

func walName(gen uint64) string { return fmt.Sprintf("wal-%06d.log", gen) }

func segName(gen uint64, idx int) string { return fmt.Sprintf("seg-%06d-%03d.seg", gen, idx) }

// The file names an engine owns in its directory. MANIFEST may name
// only the first two kinds; Open removes any file of these kinds that
// it does not name.
const (
	walPattern    = "wal-*.log"
	segPattern    = "seg-*.seg"
	segTmpPattern = "seg-*.seg.tmp"
	manifestTmp   = manifestName + ".tmp"
)

// ownName reports whether name is a plain file name of the given kind:
// no directory part, so a manifest cannot point outside its directory.
func ownName(pattern, name string) bool {
	ok, _ := filepath.Match(pattern, name)
	return ok && name == filepath.Base(name)
}

// readManifest loads dir's manifest; a missing file means generation 0
// with no segments.
func readManifest(dir string) (manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		return manifest{Version: 1, Gen: 0, WAL: walName(0)}, nil
	}
	if err != nil {
		return manifest{}, err
	}
	return parseManifest(data)
}

// parseManifest decodes and validates a manifest: a version it knows,
// and only well-formed names of the engine's own files, each WAL once,
// the live one last.
func parseManifest(data []byte) (manifest, error) {
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return manifest{}, fmt.Errorf("storage: corrupt manifest: %w", err)
	}
	if m.Version != 1 {
		return manifest{}, fmt.Errorf("storage: unknown manifest version %d", m.Version)
	}
	wals := m.wals()
	if wals[len(wals)-1] != m.WAL {
		return manifest{}, fmt.Errorf("storage: corrupt manifest: live wal %q is not the last of %q", m.WAL, wals)
	}
	for i, name := range wals {
		if !ownName(walPattern, name) || slices.Contains(wals[:i], name) {
			return manifest{}, fmt.Errorf("storage: corrupt manifest: bad wal name %q", name)
		}
	}
	for _, name := range m.Segments {
		if !ownName(segPattern, name) {
			return manifest{}, fmt.Errorf("storage: corrupt manifest: bad segment name %q", name)
		}
	}
	return m, nil
}

// removeStrays deletes the engine's own files in dir that m does not
// name: what a crash between a checkpoint's steps leaves behind — a
// next WAL created but never published, a MANIFEST.tmp, partial and
// finished segments of a fold that never installed, a generation whose
// successor installed before it was deleted.
func removeStrays(dir string, m manifest) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	wals := m.wals()
	for _, ent := range entries {
		name := ent.Name()
		stray := name == manifestTmp || ownName(segTmpPattern, name) ||
			ownName(walPattern, name) && !slices.Contains(wals, name) ||
			ownName(segPattern, name) && !slices.Contains(m.Segments, name)
		if stray && ent.Type().IsRegular() {
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeManifest atomically replaces dir's manifest (tmp + fsync +
// rename + directory fsync).
func writeManifest(dir string, m manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, manifestTmp)
	if err := writeFileSync(tmp, data); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		return err
	}
	return syncDir(dir)
}

func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// crcWriter feeds everything written through a running CRC32-C and
// counts it.
type crcWriter struct {
	w   io.Writer
	crc uint32
	n   int64
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	cw.crc = crc32.Update(cw.crc, castagnoli, p)
	cw.n += int64(len(p))
	return cw.w.Write(p)
}

// writeSegment folds one collection's captured heads into the segment
// file at path: records sorted by key, each carrying its insertion
// counter so the loader can rebuild iteration order, each document
// encoded once into a scratch buffer every record reuses. The file is
// fsynced into place via a temporary name. at is called, with the file
// half written, at the crash point "mid-segment". It returns the bytes
// written.
func writeSegment(path string, c collHeads, at func(point string)) (int64, error) {
	slices.SortFunc(c.heads, func(a, b *docVersion) int { return strings.Compare(a.key, b.key) })

	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, err
	}
	defer os.Remove(tmp) // no-op after the rename succeeds
	defer f.Close()      // no-op after the success path closed it
	bw := bufio.NewWriterSize(f, 1<<16)
	if _, err := bw.Write(segMagic[:]); err != nil {
		return 0, err
	}
	cw := &crcWriter{w: bw}
	scratch := append([]byte(nil), segVersion)
	scratch = appendString(scratch, c.name)
	scratch = appendUvarint(scratch, uint64(len(c.heads)))
	if _, err := cw.Write(scratch); err != nil {
		return 0, err
	}
	for i, v := range c.heads {
		if i == len(c.heads)/2 {
			at("mid-segment")
		}
		scratch = appendString(scratch[:0], v.key)
		scratch = appendUvarint(scratch, v.ord)
		scratch = appendUvarint(scratch, uint64(v.height))
		if scratch, err = appendDoc(scratch, v.doc); err != nil {
			return 0, err
		}
		if _, err := cw.Write(scratch); err != nil {
			return 0, err
		}
	}
	var footer [4]byte
	binary.BigEndian.PutUint32(footer[:], cw.crc)
	if _, err := bw.Write(footer[:]); err != nil {
		return 0, err
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	if err := f.Sync(); err != nil {
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	return int64(len(segMagic)) + cw.n + int64(len(footer)), os.Rename(tmp, path)
}

// loadSegment reads the segment file at path into mem. It returns the
// highest birth height seen, so Open can recover the height clock, and
// the file's size.
func loadSegment(path string, mem *Memory) (maxH, size int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, err
	}
	if maxH, err = decodeSegment(data, mem); err != nil {
		return 0, 0, fmt.Errorf("storage: %s: %w", filepath.Base(path), err)
	}
	return maxH, int64(len(data)), nil
}

// decodeSegment loads one segment file's bytes into mem, verifying the
// whole-file checksum before handing documents out.
func decodeSegment(data []byte, mem *Memory) (int64, error) {
	if len(data) < len(segMagic)+4 || [8]byte(data[:8]) != segMagic {
		return 0, fmt.Errorf("not a segment file")
	}
	body := data[len(segMagic) : len(data)-4]
	want := binary.BigEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(body, castagnoli) != want {
		return 0, fmt.Errorf("checksum mismatch")
	}
	r := &byteReader{b: body}
	ver, err := r.readByte()
	if err != nil {
		return 0, err
	}
	if ver != segVersion {
		return 0, fmt.Errorf("unknown segment version %d", ver)
	}
	name, err := r.readString()
	if err != nil {
		return 0, err
	}
	count, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	coll := mem.coll(name)
	var maxH int64
	var prev string
	for i := uint64(0); i < count; i++ {
		key, err := r.readString()
		if err != nil {
			return 0, err
		}
		if i > 0 && key <= prev {
			return 0, fmt.Errorf("record %d: key %q after %q, not in key order", i, key, prev)
		}
		prev = key
		ord, err := r.uvarint()
		if err != nil {
			return 0, err
		}
		h, err := r.uvarint()
		if err != nil {
			return 0, err
		}
		if h > math.MaxInt64 {
			return 0, fmt.Errorf("record height %d out of range", h)
		}
		raw, err := r.bytes()
		if err != nil {
			return 0, err
		}
		doc, err := unmarshalDoc(raw)
		if err != nil {
			return 0, err
		}
		if doc == nil {
			// A fold writes live documents only; in the memtable a nil
			// document is a tombstone.
			return 0, fmt.Errorf("record %d: key %q holds a null document", i, key)
		}
		coll.putLoaded(key, doc, ord, int64(h))
		maxH = max(maxH, int64(h))
	}
	coll.finishLoad()
	return maxH, nil
}
