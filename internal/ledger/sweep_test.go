package ledger

import (
	"fmt"
	"reflect"
	"testing"

	"smartchaindb/internal/keys"
	"smartchaindb/internal/obs"
	"smartchaindb/internal/storage"
	"smartchaindb/internal/txn"
	"smartchaindb/internal/workload"
)

// preloadOutputs commits CREATEs minting n unspent outputs of owner's
// as one block and returns them.
func preloadOutputs(tb testing.TB, s *State, owner *keys.KeyPair, n int) []txn.OutputRef {
	tb.Helper()
	const perCreate = 200
	pub := owner.PublicBase58()
	var block []*txn.Transaction
	refs := make([]txn.OutputRef, 0, n)
	for seq := 0; len(refs) < n; seq++ {
		create := txn.NewCreate(pub, map[string]any{"kind": "wallet", "seq": seq}, perCreate, nil)
		create.Outputs = make([]*txn.Output, min(perCreate, n-len(refs)))
		for j := range create.Outputs {
			create.Outputs[j] = &txn.Output{PublicKeys: []string{pub}, Amount: 1}
		}
		if err := txn.Sign(create, owner); err != nil {
			tb.Fatal(err)
		}
		block = append(block, create)
		for j := range create.Outputs {
			refs = append(refs, txn.OutputRef{TxID: create.ID, Index: j})
		}
	}
	if committed, skipped := s.CommitBlock(block); len(committed) != len(block) {
		tb.Fatalf("preloaded %d of %d CREATEs: %v", len(committed), len(block), skipped)
	}
	return refs
}

// hop builds the single-input TRANSFER moving ref from owner to owner.
func hop(tb testing.TB, owner *keys.KeyPair, ref txn.OutputRef) *txn.Transaction {
	tb.Helper()
	pub := owner.PublicBase58()
	t := txn.NewTransfer(ref.TxID, []txn.Spend{{Ref: ref, Owners: []string{pub}}},
		[]*txn.Output{{PublicKeys: []string{pub}, Amount: 1}}, nil)
	if err := txn.Sign(t, owner); err != nil {
		tb.Fatal(err)
	}
	return t
}

func eachBackend(t *testing.T, fn func(t *testing.T, open func() *State)) {
	t.Run("memory", func(t *testing.T) {
		fn(t, func() *State { return NewStateWith(storage.NewMemory()) })
	})
	t.Run("disk", func(t *testing.T) {
		fn(t, func() *State { return openDiskState(t, t.TempDir()) })
	})
}

// TestPreparedApplyCostsTheBlockNotTheState: a cross-shard transfer's
// StageOwned → LogPrepare → ApplyPrepared seals a one-transaction
// block, and the index sweep riding that seal examines the span lists
// earlier transfers closed — the same count, transfer for transfer,
// over 200 preloaded outputs and over 20 000. The seal is timed and
// recorded like any other block's, except in ledger.commit.txs.
func TestPreparedApplyCostsTheBlockNotTheState(t *testing.T) {
	const transfers = 24
	eachBackend(t, func(t *testing.T, open func() *State) {
		examined := func(outputs int) []uint64 {
			s := open()
			defer s.Close()
			reg := obs.New()
			s.SetObs(reg)
			owner := keys.DeterministicKeyPair(77)
			refs := preloadOutputs(t, s, owner, outputs)
			swept := reg.Counter("docstore.index_sweep_spans")
			blocks, seals := reg.Counter("ledger.commit.blocks").Value(), reg.Snapshot().Histograms["ledger.commit.seal_ns"]
			txs := reg.Counter("ledger.commit.txs").Value()
			var perTransfer []uint64
			for i := 0; i < transfers; i++ {
				tr := hop(t, owner, refs[i*(outputs/transfers)])
				before := swept.Value()
				p, err := s.StageOwned(tr, true, func(int) bool { return true })
				if err != nil {
					t.Fatal(err)
				}
				if err := s.LogPrepare(p); err != nil {
					t.Fatal(err)
				}
				if _, err := s.ApplyPrepared(p, map[string]any{"kind": "decision", "tx": tr.ID, "outcome": "commit"}); err != nil {
					t.Fatal(err)
				}
				perTransfer = append(perTransfer, swept.Value()-before)
			}
			if got := reg.Counter("ledger.commit.blocks").Value() - blocks; got != transfers {
				t.Errorf("ledger.commit.blocks counted %d of %d prepared applies", got, transfers)
			}
			if got := reg.Counter("ledger.commit.txs").Value() - txs; got != 0 {
				t.Errorf("ledger.commit.txs moved by %d over prepared applies; it counts block commits only", got)
			}
			after := reg.Snapshot().Histograms["ledger.commit.seal_ns"]
			if after.Count-seals.Count != transfers || after.Sum <= seals.Sum {
				t.Errorf("ledger.commit.seal_ns took %d samples (%d ns) over %d prepared applies", after.Count-seals.Count, after.Sum-seals.Sum, transfers)
			}
			return perTransfer
		}
		small, large := examined(200), examined(20000)
		if !reflect.DeepEqual(small, large) {
			t.Errorf("span lists examined per transfer differ with state size:\n    200 outputs: %v\n 20 000 outputs: %v", small, large)
		}
		// One mark-spent takes the output out of the three indexes over
		// unspent outputs (owner, asset_id, amount), closing one span in
		// each, and they fall due once the window has passed them.
		want := make([]uint64, transfers)
		for i := int(storage.DefaultRetainHeights) - 1; i < transfers; i++ {
			want[i] = 3
		}
		if !reflect.DeepEqual(small, want) {
			t.Errorf("span lists examined per transfer = %v, want %v", small, want)
		}
	})
}

// BenchmarkSealOneTxBlock commits one-transaction blocks over states of
// two sizes: the time of a seal follows the block, so the two read
// alike to within what a larger heap costs the runtime (`make
// bench-alloc`; the count behind it is pinned by
// TestPreparedApplyCostsTheBlockNotTheState).
func BenchmarkSealOneTxBlock(b *testing.B) {
	for _, size := range []struct {
		name    string
		outputs int
	}{{"1k", 1 << 10}, {"64k", 1 << 16}} {
		b.Run(size.name, func(b *testing.B) {
			s := NewStateWith(storage.NewMemory())
			b.Cleanup(func() { s.Close() })
			owner := keys.DeterministicKeyPair(77)
			refs := preloadOutputs(b, s, owner, size.outputs)
			seal := func(i int) {
				b.StopTimer()
				ref := refs[0] // out of fresh outputs: keep moving the first one
				if i < len(refs) {
					ref = refs[i]
				}
				block := []*txn.Transaction{hop(b, owner, ref)}
				refs[0] = txn.OutputRef{TxID: block[0].ID}
				b.StartTimer()
				if committed, skipped := s.CommitBlock(block); len(committed) != 1 {
					b.Fatal(fmt.Sprint(skipped))
				}
			}
			// The preload block leaves the retention window first, untimed:
			// collecting the versions of everything it minted is that
			// block's cost, paid once, not the one-transaction seal's.
			warm := int(storage.DefaultRetainHeights)
			for i := 0; i < warm; i++ {
				seal(i)
			}
			b.ReportAllocs()
			for i := warm; b.Loop(); i++ {
				seal(i)
			}
		})
	}
}

// BenchmarkSpendFanIn commits one 4-input TRANSFER as a block over a
// state of 64 k unspent outputs: the transaction document, one marker
// under the four keys it spends, the four postings each of those keys
// closes, and its one new output (`make bench-alloc`). The wallets it
// spends are minted untimed, 4096 at a time in one block, on a freshly
// preloaded state each time, so the state stays one size however long
// the benchmark runs.
func BenchmarkSpendFanIn(b *testing.B) {
	const wallets = 4096
	owner := keys.DeterministicKeyPair(77)
	recipient := keys.DeterministicKeyPair(78).PublicBase58()
	funding, transfers := make([]*txn.Transaction, wallets), make([]*txn.Transaction, wallets)
	for i := range funding {
		funding[i], transfers[i] = workload.FanIn(owner, recipient, i, 4)
		transfers[i].SharedDoc() // the schema check built it at admission
		transfers[i].Footprint()
	}
	var s *State
	next := wallets
	spend := func() {
		if committed, skipped := s.CommitBlock(transfers[next : next+1]); len(committed) != 1 {
			b.Fatal(fmt.Sprint(skipped))
		}
		next++
	}
	// fresh preloads a new state, mints every wallet and, as in
	// BenchmarkSealOneTxBlock, lets the preload leave the retention
	// window before anything is timed.
	fresh := func() {
		if s != nil {
			s.Close()
		}
		s = NewStateWith(storage.NewMemory())
		preloadOutputs(b, s, owner, 1<<16)
		if committed, skipped := s.CommitBlock(funding); len(committed) != wallets {
			b.Fatal(fmt.Sprint(skipped))
		}
		for next = 0; next < int(storage.DefaultRetainHeights); {
			spend()
		}
	}
	b.Cleanup(func() { s.Close() })
	b.ReportAllocs()
	for b.Loop() {
		if next == wallets {
			b.StopTimer()
			fresh()
			b.StartTimer()
		}
		spend()
	}
}

// BenchmarkCommitTransferChain commits a chain of 4096 transfers, each
// spending the output the one before it minted, in blocks of 256: per
// transaction, a spent mark that takes an output out of the indexes
// over unspent outputs, a new output into them, the transaction
// document into the log's indexes, and the seals' sweeps. ns/tx is the
// chain's commit time over its length (`make bench-alloc`).
func BenchmarkCommitTransferChain(b *testing.B) {
	const links, block = 4096, 256
	owner := keys.DeterministicKeyPair(77)
	fund := func() (*State, txn.OutputRef) {
		s := NewState()
		return s, preloadOutputs(b, s, owner, 1)[0]
	}
	s, ref := fund()
	s.Close()
	chain := make([]*txn.Transaction, links)
	for i := range chain {
		chain[i] = hop(b, owner, ref)
		ref = txn.OutputRef{TxID: chain[i].ID}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, _ := fund()
		b.StartTimer()
		for lo := 0; lo < links; lo += block {
			if committed, skipped := s.CommitBlock(chain[lo : lo+block]); len(committed) != block {
				b.Fatalf("block at %d: committed %d of %d: %v", lo, len(committed), block, skipped)
			}
		}
		b.StopTimer()
		s.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*links), "ns/tx")
}
