//go:build tripwire

package txn

import (
	"bytes"
	"fmt"
)

// The frozen-transaction tripwire: a signed transaction is a value,
// and its memo serves what was derived from it on first ask (see
// cache.go). This build checks that nobody edited the transaction
// since: each time a memoized signing payload or canonical encoding is
// served, the transaction is encoded again and the two must be equal.
// A difference means a field was written after the bytes were derived
// — without the tripwire, verification would answer for the bytes the
// transaction had then — and panics naming the transaction.
//
//	go test -tags tripwire ./internal/txn ./internal/server
//
// runs a suite under it (make test-tripwire runs them all).
func tripServed(t *Transaction, served []byte, signing bool) {
	if now := encodeTx(t, signing); !bytes.Equal(now, served) {
		what := "canonical encoding"
		if signing {
			what = "signing payload"
		}
		// invariant: only a bug edits a transaction after its bytes were derived; Clone gives a writable copy.
		panic(fmt.Sprintf("txn tripwire: transaction %s was edited after its %s was memoized: it now encodes as %s, the memo holds %s", t.ID, what, now, served))
	}
}
