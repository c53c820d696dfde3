//go:build tripwire

package query

import (
	"testing"

	"smartchaindb/internal/storage"
)

// tripwireEnabled: the tripwire digests every stored document, so
// allocation counts are meaningless.
const tripwireEnabled = true

// TestMain ends the suite with the immutability tripwire's sweep
// (storage/tripwire_on.go; make test-tripwire).
func TestMain(m *testing.M) { storage.TripwireMain(m) }
