package ledger

import (
	"fmt"
	"os"

	"smartchaindb/internal/storage"
)

// defaultBackend picks the storage backend for NewState. The default
// is the volatile in-memory backend; setting SCDB_BACKEND=disk swaps
// in a throwaway disk engine (fsync off, state discarded with the
// temp directory) so the whole tier-1 suite — ledger, server,
// cluster, recovery, and differential tests — exercises the WAL and
// recovery paths without any per-test changes. Production nodes pass
// a real engine through NewStateWith / server.Config.DataDir instead.
// The throwaway directories are intentionally left behind (states are
// rarely closed in tests); the OS temp reaper collects them. Failures
// are fatal: silently falling back to memory would green-light the
// disk gate while testing nothing.
func defaultBackend() storage.Backend {
	switch os.Getenv("SCDB_BACKEND") {
	case "", "memory":
		return storage.NewMemory()
	case "disk":
		dir, err := os.MkdirTemp("", "scdb-state-*")
		if err != nil {
			// invariant: SCDB_BACKEND is the Makefile's test switch; a node with a real directory uses NewStateWith and gets the error.
			panic(fmt.Sprintf("ledger: SCDB_BACKEND=disk temp dir: %v", err))
		}
		eng, err := storage.Open(dir, storage.Options{NoSync: true})
		if err != nil {
			// invariant: a fresh temporary directory opens; same test-switch path as above.
			panic(fmt.Sprintf("ledger: SCDB_BACKEND=disk open %s: %v", dir, err))
		}
		return eng
	default:
		// invariant: a misspelt test switch must not silently run the suite on the wrong backend.
		panic(fmt.Sprintf("ledger: unknown SCDB_BACKEND %q (want memory or disk)", os.Getenv("SCDB_BACKEND")))
	}
}
