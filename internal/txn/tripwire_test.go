//go:build tripwire

package txn

import (
	"fmt"
	"strings"
	"testing"
)

// tripwireEnabled: the tripwire encodes a transaction again on every
// memo hit, so allocation pins skip themselves under it.
const tripwireEnabled = true

// tripPanic runs fn and returns what it panicked with, "" if nothing.
func tripPanic(fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	fn()
	return ""
}

// TestTripwireFiresOnAnEditedTransaction: a field written after the
// transaction was verified is caught the next time a memoized encoding
// is served, naming the transaction; the signing payload and the
// canonical encoding are each checked, and an edit to a cold clone is
// not an edit to anything derived.
func TestTripwireFiresOnAnEditedTransaction(t *testing.T) {
	tr, _ := signedTransfer(t, 90)
	if err := VerifyFulfillments(tr); err != nil {
		t.Fatal(err)
	}
	tr.MarshalCanonical()
	if msg := tripPanic(func() { tr.SigningPayload(); tr.MarshalCanonical() }); msg != "" {
		t.Fatalf("the tripwire fired on an unedited transaction: %s", msg)
	}
	c := tr.Clone()
	c.Outputs[0].Amount = 99
	if msg := tripPanic(func() { c.SigningPayload(); c.MarshalCanonical() }); msg != "" {
		t.Fatalf("the tripwire fired on an edited cold clone: %s", msg)
	}

	tr.Outputs[0].Amount = 99
	msg := tripPanic(func() { tr.SigningPayload() })
	if !strings.Contains(msg, "transaction "+tr.ID) || !strings.Contains(msg, "signing payload") {
		t.Fatalf("SigningPayload after an edit: panic %q, want one naming %s and its signing payload", msg, tr.ID)
	}
	msg = tripPanic(func() { tr.MarshalCanonical() })
	if !strings.Contains(msg, "transaction "+tr.ID) || !strings.Contains(msg, "canonical encoding") {
		t.Fatalf("MarshalCanonical after an edit: panic %q, want one naming %s and its canonical encoding", msg, tr.ID)
	}
}
