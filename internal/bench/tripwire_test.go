//go:build tripwire

package bench

import (
	"testing"

	"smartchaindb/internal/storage"
)

// TestMain ends the suite with the immutability tripwire's sweep
// (storage/tripwire_on.go; make test-tripwire).
func TestMain(m *testing.M) { storage.TripwireMain(m) }
