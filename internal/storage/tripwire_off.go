//go:build !tripwire

package storage

// The immutability tripwire's hooks. A test build with -tags tripwire
// (tripwire_on.go; make test-tripwire) digests every document as it is
// stored and digests it again when its backend closes; in every other
// build these are empty and inline to nothing.

func tripStored(*verClock, string, string, map[string]any) {}

func tripClosed(*verClock) {}
