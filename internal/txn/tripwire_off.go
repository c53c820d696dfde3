//go:build !tripwire

package txn

// The frozen-transaction tripwire's hook. A build with -tags tripwire
// (tripwire_on.go; make test-tripwire) encodes a transaction again
// each time a memoized encoding of it is served; in every other build
// this is empty and inlines to nothing.

func tripServed(*Transaction, []byte, bool) {}
