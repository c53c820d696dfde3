//go:build tripwire

package validate

import (
	"testing"

	"smartchaindb/internal/storage"
)

// tripwireEnabled: the tripwire checks every memoized value it serves,
// so allocation counts are meaningless.
const tripwireEnabled = true

// TestMain ends the suite with the immutability tripwire's sweep
// (storage/tripwire_on.go; make test-tripwire).
func TestMain(m *testing.M) { storage.TripwireMain(m) }
