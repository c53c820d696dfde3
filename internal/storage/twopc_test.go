package storage

import (
	"os"
	"path/filepath"
	"testing"
)

func scanTwoPC(b Backend) map[string]map[string]any {
	out := make(map[string]map[string]any)
	b.Collection(TwoPCCollection).Scan(func(key string, doc map[string]any) bool {
		out[key] = doc
		return true
	})
	return out
}

// 2PC records are ordinary durable state: they survive reopen (WAL
// replay), survive compaction (segment round-trip), and a deleted
// record stays gone.
func TestTwoPCLogDurability(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	prep := map[string]any{"kind": "prepare", "tx": "t1", "shard": float64(2)}
	dec := map[string]any{"kind": "decision", "tx": "t0", "outcome": "commit"}
	if err := e.Collection(TwoPCCollection).Put("p:t1", prep); err != nil {
		t.Fatal(err)
	}
	if err := e.Collection(TwoPCCollection).Put("d:t0", dec); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e, err = Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	got := scanTwoPC(e)
	if len(got) != 2 {
		t.Fatalf("after reopen: %d records, want 2 (%v)", len(got), got)
	}
	if got["p:t1"]["kind"] != "prepare" || got["d:t0"]["outcome"] != "commit" {
		t.Fatalf("records corrupted across reopen: %v", got)
	}

	// Compaction folds the records into a segment; they still replay.
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := e.Collection(TwoPCCollection).Delete("p:t1"); err != nil {
		t.Fatal(err)
	}
	if err := e.Collection(TwoPCCollection).Delete("missing"); err != nil {
		t.Fatalf("deleting a missing key: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e, err = Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	got = scanTwoPC(e)
	if len(got) != 1 || got["d:t0"] == nil {
		t.Fatalf("after delete+reopen: %v, want only d:t0", got)
	}
}

// A 2PC log write issued inside an open Group joins the group's
// atomic WAL record: a crash that truncates mid-record loses the
// collection write and the prepare together, never one of them.
func TestTwoPCGroupAtomicity(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	// A baseline group so the WAL has a committed prefix.
	if err := e.Group(func() error {
		return e.Collection("c").Put("base", map[string]any{"n": float64(0)})
	}); err != nil {
		t.Fatal(err)
	}
	cut := e.stats().WALBytes

	if err := e.Group(func() error {
		if err := e.Collection("c").Put("x", map[string]any{"n": float64(1)}); err != nil {
			return err
		}
		return e.Collection(TwoPCCollection).Put("p:t9", map[string]any{"kind": "prepare"})
	}); err != nil {
		t.Fatal(err)
	}
	e.Close()

	// Chop the tail mid-record: everything after the first group, plus
	// one torn byte, must vanish as a unit on replay.
	if err := os.Truncate(filepath.Join(dir, walName(0)), cut+1); err != nil {
		t.Fatal(err)
	}
	e, err = Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, ok := e.Collection("c").Get("x"); ok {
		t.Fatal("torn group leaked the collection write")
	}
	if got := scanTwoPC(e); len(got) != 0 {
		t.Fatalf("torn group leaked the prepare record: %v", got)
	}
	if _, ok := e.Collection("c").Get("base"); !ok {
		t.Fatal("committed prefix lost")
	}
}

// The memory backend keeps the same 2PC records, volatile.
func TestTwoPCMemoryBackend(t *testing.T) {
	m := NewMemory()
	if err := m.Collection(TwoPCCollection).Put("p:a", map[string]any{"kind": "prepare"}); err != nil {
		t.Fatal(err)
	}
	if err := m.Collection(TwoPCCollection).Put("d:a", map[string]any{"kind": "decision"}); err != nil {
		t.Fatal(err)
	}
	if got := scanTwoPC(m); len(got) != 2 {
		t.Fatalf("records = %v, want 2", got)
	}
	if err := m.Collection(TwoPCCollection).Delete("p:a"); err != nil {
		t.Fatal(err)
	}
	if got := scanTwoPC(m); len(got) != 1 || got["d:a"] == nil {
		t.Fatalf("after delete: %v, want only d:a", got)
	}
}

// A WAL group that frames 2PC records with the tags the log was once
// written with (opPrepare, opDecide) reopens into TwoPCCollection, each
// record read as a put, beside a put and a delete of the same log in
// the same group.
func TestTwoPCLegacyTagsReopen(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Collection(TwoPCCollection).Put("p:gone", map[string]any{"kind": "prepare", "tx": "gone"}); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	prep := map[string]any{"kind": "prepare", "tx": "t1", "ops": []any{}}
	dec := map[string]any{"kind": "decision", "tx": "t0", "outcome": "commit"}
	frame := refFrame(t, 3, []refMutation{
		{op: opPrepare, coll: TwoPCCollection, key: "p:t1", doc: prep},
		{op: opDecide, coll: TwoPCCollection, key: "d:t0", doc: dec},
		{op: opDelete, coll: TwoPCCollection, key: "p:gone"},
		{op: opPut, coll: TwoPCCollection, key: "d:t2", doc: map[string]any{"kind": "decision", "tx": "t2", "outcome": "abort"}},
	})
	f, err := os.OpenFile(filepath.Join(dir, walName(0)), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	e, err = Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatalf("reopen over the legacy tags: %v", err)
	}
	defer e.Close()
	got := scanTwoPC(e)
	if len(got) != 3 || got["p:t1"]["kind"] != "prepare" || got["p:t1"]["tx"] != "t1" ||
		got["d:t0"]["outcome"] != "commit" || got["d:t2"]["outcome"] != "abort" {
		t.Fatalf("after reopen: %v, want p:t1, d:t0 and d:t2", got)
	}
	if e.Visible() != 3 {
		t.Errorf("recovered at height %d, want the group's 3", e.Visible())
	}
}
