//go:build tripwire

package storage

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"reflect"
	"sort"
	"sync"
	"testing"

	"smartchaindb/internal/canon"
)

// The immutability tripwire: a stored document is an immutable value —
// whoever builds it hands it over, nobody edits it — and this build
// checks that nobody did. Every document is digested as it is stored
// (both backends store through MemCollection) and the tripwire keeps
// it, so every version ever stored stays reachable; it is digested
// again when the same map is stored again, when its backend closes,
// and on TripwireSweep, which a suite's TestMain calls after the last
// test because most tests never close their state. A difference means
// someone wrote to a stored document in place: the store and Close
// report it and stop the test binary (tripFail), the sweep returns an
// error, each naming collection and key.
//
//	go test -tags tripwire ./internal/ledger ./internal/server ./internal/nested ./internal/shard
//
// runs a suite under it (make test-tripwire runs them all).

type tripRecord struct {
	collection, key string
	doc             map[string]any
	digest          [sha256.Size]byte
}

var trip = struct {
	sync.Mutex
	// backends holds, per backend (named by its clock), the documents
	// stored there by map identity. Keeping each document alive keeps
	// its address from being reused.
	backends map[*verClock]map[uintptr]*tripRecord
}{backends: map[*verClock]map[uintptr]*tripRecord{}}

// tripFail reports a violation found on a store or a Close. It stops
// the process, not the goroutine: the store path holds engine and
// collection locks, and a panic unwinding through them can leave the
// suite hanging where it should fail.
var tripFail = func(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}

func tripDigest(doc map[string]any) [sha256.Size]byte {
	b, err := canon.AppendDoc(nil, doc)
	if err != nil {
		// Not a canonical document (a test's int, say): fmt prints
		// maps in key order, which is all a digest needs.
		b = fmt.Appendf(b[:0], "%#v", doc)
	}
	return sha256.Sum256(b)
}

func (r *tripRecord) check() error {
	if tripDigest(r.doc) != r.digest {
		return fmt.Errorf("storage tripwire: stored document %s[%q] was written to in place; it now reads %v", r.collection, r.key, r.doc)
	}
	return nil
}

func tripStored(backend *verClock, collection, key string, doc map[string]any) {
	if doc == nil {
		return
	}
	trip.Lock()
	defer trip.Unlock()
	docs := trip.backends[backend]
	if docs == nil {
		docs = map[uintptr]*tripRecord{}
		trip.backends[backend] = docs
	}
	id := reflect.ValueOf(doc).Pointer()
	if r := docs[id]; r != nil {
		// The same map stored again: an in-place Update looks like this.
		if err := r.check(); err != nil {
			tripFail(err)
		}
		return
	}
	docs[id] = &tripRecord{collection: collection, key: key, doc: doc, digest: tripDigest(doc)}
}

func tripSweep(docs map[uintptr]*tripRecord) error {
	var errs []error
	for _, r := range docs {
		if err := r.check(); err != nil {
			errs = append(errs, err)
		}
	}
	sort.Slice(errs, func(i, j int) bool { return errs[i].Error() < errs[j].Error() })
	return errors.Join(errs...)
}

func tripClosed(backend *verClock) {
	trip.Lock()
	docs := trip.backends[backend]
	delete(trip.backends, backend)
	trip.Unlock()
	if err := tripSweep(docs); err != nil {
		tripFail(err) // Close has callers that drop its error
	}
}

// TripwireSweep digests again every document stored in a backend that
// is still open and reports the ones that changed.
func TripwireSweep() error {
	trip.Lock()
	defer trip.Unlock()
	var errs []error
	for _, docs := range trip.backends {
		errs = append(errs, tripSweep(docs))
	}
	return errors.Join(errs...)
}

// TripwireMain is the TestMain of a suite run under the tripwire: the
// tests, then the sweep, failing the run if it finds anything.
func TripwireMain(m *testing.M) {
	code := m.Run()
	if err := TripwireSweep(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		code = 1
	}
	os.Exit(code)
}
