package query

import (
	"fmt"
	"testing"

	"smartchaindb/internal/ledger"
	"smartchaindb/internal/storage"
	"smartchaindb/internal/txn"
)

// provenanceHops is how many transactions the walked asset passes
// through: its CREATE and the TRANSFERs that move it on.
const provenanceHops = 16

// provenanceState commits committed transactions in all: a chain of
// provenanceHops moving one asset from account to account, and CREATEs
// of other assets around it. The transactions carry made-up IDs and no
// signatures — the ledger stores what it is given, and the walk reads
// nothing else — so a large state costs no signing. It returns the
// state and the walked asset.
func provenanceState(tb testing.TB, committed int) (*ledger.State, string) {
	tb.Helper()
	s := ledger.NewStateWith(storage.NewMemory())
	tb.Cleanup(func() { s.Close() })
	owner := func(i int) string { return fmt.Sprintf("owner%04d", i) }
	id := func(kind string, i int) string { return fmt.Sprintf("%s%059d", kind, i) }

	var chain []*txn.Transaction
	create := txn.NewCreate(owner(0), map[string]any{"kind": "walked"}, 1, nil)
	create.ID = id("chain", 0)
	chain = append(chain, create)
	for i := 1; i < provenanceHops; i++ {
		prev := chain[i-1]
		t := txn.NewTransfer(create.ID,
			[]txn.Spend{{Ref: txn.OutputRef{TxID: prev.ID}, Owners: []string{owner(i - 1)}}},
			[]*txn.Output{{PublicKeys: []string{owner(i)}, Amount: 1}}, nil)
		t.ID = id("chain", i)
		chain = append(chain, t)
	}
	const block = 4096
	var batch []*txn.Transaction
	commit := func() {
		if got, skipped := s.CommitBlock(batch); len(got) != len(batch) {
			tb.Fatalf("committed %d of %d: %v", len(got), len(batch), skipped)
		}
		batch = batch[:0]
	}
	for i := 0; i < committed-provenanceHops; i++ {
		other := txn.NewCreate(owner(i%1000), map[string]any{"seq": i}, 1, nil)
		other.ID = id("other", i)
		if batch = append(batch, other); len(batch) == block {
			commit()
		}
	}
	for _, t := range chain {
		batch = append(batch, t)
		commit() // each hop spends the one before it: one block each
	}
	return s, create.ID
}

// TestAssetProvenanceReadsInPlace: the walk over a 16-hop chain costs
// the same allocations over 1 k and over 64 k committed transactions —
// every hop is point reads — and fewer per hop than decoding one hop's
// transaction would: no hop decodes one.
func TestAssetProvenanceReadsInPlace(t *testing.T) {
	if raceEnabled || tripwireEnabled {
		t.Skip("allocation counts are meaningless under the race detector or the tripwire")
	}
	var perWalk [2]float64
	var decode float64
	for i, committed := range []int{1 << 10, 64 << 10} {
		s, asset := provenanceState(t, committed)
		e := New(s)
		if steps := e.AssetProvenance(asset); len(steps) != provenanceHops {
			t.Fatalf("%d committed: the walk took %d steps, want %d", committed, len(steps), provenanceHops)
		}
		perWalk[i] = testing.AllocsPerRun(20, func() { e.AssetProvenance(asset) })
		last, _ := s.Tx(fmt.Sprintf("chain%059d", provenanceHops-1))
		decode = testing.AllocsPerRun(20, func() {
			if _, err := last.Decode(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if perWalk[0] != perWalk[1] {
		t.Errorf("a %d-hop walk allocates %v over 1 k committed transactions and %v over 64 k", provenanceHops, perWalk[0], perWalk[1])
	}
	if perHop := perWalk[1] / provenanceHops; perHop >= decode {
		t.Errorf("a hop allocates %.1f, a decode of one hop's transaction %v: the walk decodes", perHop, decode)
	}
}

// BenchmarkAssetProvenance walks a 16-hop chain over 1 k and 64 k
// committed transactions (`make bench-alloc`); one op is one walk.
func BenchmarkAssetProvenance(b *testing.B) {
	for _, size := range []struct {
		name      string
		committed int
	}{{"1k", 1 << 10}, {"64k", 64 << 10}} {
		b.Run(size.name, func(b *testing.B) {
			s, asset := provenanceState(b, size.committed)
			e := New(s)
			b.ReportAllocs()
			for b.Loop() {
				if steps := e.AssetProvenance(asset); len(steps) != provenanceHops {
					b.Fatalf("%d steps", len(steps))
				}
			}
		})
	}
}
