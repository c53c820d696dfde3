package parallel_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"smartchaindb/internal/keys"
	"smartchaindb/internal/ledger"
	"smartchaindb/internal/parallel"
	"smartchaindb/internal/txn"
	"smartchaindb/internal/txtype"
	"smartchaindb/internal/workload"
)

// The footprint derivation and the grouping as they were before the
// footprint was memoized on the transaction and the grouping moved to
// pooled scratch, kept as the references the new ones are pinned to.

// refFootprint derives a footprint afresh on every call, every key a
// new string, the spend keys a slice of their own. The transaction key
// is the bare ID, as it now is.
func refFootprint(t *txn.Transaction) txn.Footprint {
	var f txn.Footprint
	f.Writes = append(f.Writes, t.ID)
	for _, in := range t.Inputs {
		if ref := in.Fulfills; ref != nil {
			f.Writes = append(f.Writes, txn.SpendKeyPrefix+ref.TxID+":"+fmt.Sprint(ref.Index))
			f.Spends = append(f.Spends, txn.SpendKeyPrefix+ref.TxID+":"+fmt.Sprint(ref.Index))
		}
	}
	for _, in := range t.Inputs {
		if ref := in.Fulfills; ref != nil {
			f.Reads = append(f.Reads, ref.TxID)
		}
	}
	for _, id := range t.Refs {
		f.Writes = append(f.Writes, "ref:"+id)
		f.Reads = append(f.Reads, id)
	}
	if t.Asset != nil && t.Asset.ID != "" {
		f.Reads = append(f.Reads, t.Asset.ID)
	}
	return f
}

// refGroupFootprints is the union-find over per-call maps.
func refGroupFootprints(fps []txn.Footprint) [][]int {
	n := len(fps)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}
	writerOf := make(map[string]int)
	readersOf := make(map[string][]int)
	for i, fp := range fps {
		for _, k := range fp.Writes {
			if w, ok := writerOf[k]; ok {
				union(w, i)
			} else {
				writerOf[k] = i
				for _, r := range readersOf[k] {
					union(i, r)
				}
			}
		}
		for _, k := range fp.Reads {
			if w, ok := writerOf[k]; ok {
				union(w, i)
			} else {
				readersOf[k] = append(readersOf[k], i)
			}
		}
	}
	byRoot := make(map[int][]int, n)
	var roots []int
	for i := 0; i < n; i++ {
		r := find(i)
		if _, seen := byRoot[r]; !seen {
			roots = append(roots, r)
		}
		byRoot[r] = append(byRoot[r], i)
	}
	sort.Slice(roots, func(a, b int) bool { return byRoot[roots[a]][0] < byRoot[roots[b]][0] })
	groups := make([][]int, 0, len(roots))
	for _, r := range roots {
		groups = append(groups, byRoot[r])
	}
	return groups
}

// footprintCorpus is every transaction shape the system builds:
// internal/workload's (the benchmark shapes, a fan-in pair, whole
// auctions), both kinds of nested child, and a transaction of a type
// registered at run time.
func footprintCorpus(t *testing.T) []*txn.Transaction {
	funding, transfer4, create1k := workload.BenchmarkShapes()
	corpus := []*txn.Transaction{funding, transfer4, create1k}
	create, transfer := workload.FanIn(keys.DeterministicKeyPair(7), keys.DeterministicKeyPair(8).PublicBase58(), 3, 2)
	corpus = append(corpus, create, transfer)
	escrow := keys.DeterministicKeyPair(99)
	gen := workload.NewGenerator(5, escrow)
	for _, g := range gen.Groups(workload.Mix{Creates: 6, Bids: 6, Requests: 2, Accepts: 2}, 32) {
		corpus = append(corpus, g.Request)
		corpus = append(corpus, g.Creates...)
		corpus = append(corpus, g.Bids...)
		corpus = append(corpus, g.Accept)
	}
	accept := corpus[len(corpus)-1]
	for i, kind := range []string{ledger.ChildTransfer, ledger.ChildReturn} {
		child := ledger.BuildChild(ledger.ReturnSpec{
			Kind: kind, AcceptID: accept.ID, OutputIndex: i,
			Recipient: gen.Account(30 + i).PublicBase58(), Amount: 1, AssetID: create.ID,
		}, escrow.PublicBase58())
		if err := txn.Sign(child, escrow); err != nil {
			t.Fatal(err)
		}
		corpus = append(corpus, child)
	}
	owner := keys.DeterministicKeyPair(11)
	custom := txn.NewCreate(owner.PublicBase58(), map[string]any{"document": "abc123"}, 1, nil)
	custom.Operation = "NOTARIZE"
	if err := txn.Sign(custom, owner); err != nil {
		t.Fatal(err)
	}
	return append(corpus, custom)
}

// TestFootprintMatchesReference: the memoized footprint is the
// reference derivation, on the first call and on the memo, for every
// shape; and it follows the transaction through each blessed mutation
// point — Sign, SetID, an edited Clone — instead of answering for what
// the transaction was.
func TestFootprintMatchesReference(t *testing.T) {
	for _, tx := range footprintCorpus(t) {
		for pass := range 2 {
			if got, want := tx.Footprint(), refFootprint(tx); !reflect.DeepEqual(got, want) {
				t.Errorf("%s %.8s, call %d:\n got %v\nwant %v", tx.Operation, tx.ID, pass+1, got, want)
			}
		}
	}

	gen := workload.NewGenerator(9, keys.DeterministicKeyPair(98))
	owner, other := gen.Account(0), gen.Account(1)
	asset, rfq := gen.Create(owner, []string{"cnc"}, 8), gen.Request(other, []string{"cnc"}, 8)
	spend := func() *txn.Transaction {
		return txn.NewTransfer(asset.ID,
			[]txn.Spend{{Ref: txn.OutputRef{TxID: asset.ID, Index: 0}, Owners: []string{owner.PublicBase58()}}},
			[]*txn.Output{{PublicKeys: []string{other.PublicBase58()}, Amount: 1}}, nil)
	}
	for name, mutate := range map[string]func(tx *txn.Transaction) *txn.Transaction{
		"Sign": func(tx *txn.Transaction) *txn.Transaction {
			tx.Refs = append(tx.Refs, rfq.ID)
			if err := txn.Sign(tx, owner); err != nil {
				t.Fatal(err)
			}
			return tx
		},
		"SetID": func(tx *txn.Transaction) *txn.Transaction {
			c := tx.Clone()
			c.ID = ""
			c.Footprint() // derived before the ID is stamped
			c.SetID()
			return c
		},
		"Clone": func(tx *txn.Transaction) *txn.Transaction {
			c := tx.Clone()
			c.Refs = append(c.Refs, rfq.ID)
			c.Inputs[0].Fulfills.Index = 1
			return c
		},
	} {
		tx := spend()
		if err := txn.Sign(tx, owner); err != nil {
			t.Fatal(err)
		}
		before := tx.Footprint()
		tx = mutate(tx)
		got, want := tx.Footprint(), refFootprint(tx)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("after %s: footprint\n got %v\nwant %v (before: %v)", name, got, want, before)
		}
	}
}

// TestGroupFootprintsMatchesReference: the pooled grouping yields the
// reference's groups on random footprint sets — shared, read-only,
// repeated and self-read keys — called back to back at sizes far apart,
// so a call that inherits scratch a larger or smaller one left behind
// shows.
func TestGroupFootprintsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	keyOf := func(space int) string {
		switch k := rng.Intn(space); k % 3 {
		case 0:
			return fmt.Sprintf("%064x", k)
		case 1:
			return fmt.Sprintf("utxo:%064x:%d", k, k%4)
		default:
			return fmt.Sprintf("ref:%064x", k)
		}
	}
	keys := func(n, space int) []string {
		if n == 0 {
			return nil
		}
		out := make([]string, n)
		for i := range out {
			out[i] = keyOf(space)
		}
		return out
	}
	for call, n := range []int{0, 1, 2, 700, 3, 1, 2500, 0, 17, 64, 5, 1200, 2, 40} {
		space := 1 + rng.Intn(4*n+2)
		fps := make([]txn.Footprint, n)
		for i := range fps {
			fps[i] = txn.Footprint{Writes: keys(rng.Intn(4), space), Reads: keys(rng.Intn(5), space)}
		}
		got, want := parallel.GroupFootprints(fps), refGroupFootprints(fps)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("call %d (%d footprints over %d keys): %d groups, reference %d\n got %v\nwant %v",
				call, n, space, len(got), len(want), got, want)
		}
	}
	// The corpus as one batch, as a block plan sees it.
	var fps []txn.Footprint
	for _, tx := range footprintCorpus(t) {
		fps = append(fps, tx.Footprint())
	}
	if got, want := parallel.GroupFootprints(fps), refGroupFootprints(fps); !reflect.DeepEqual(got, want) {
		t.Errorf("corpus batch:\n got %v\nwant %v", got, want)
	}
}

// TestGroupFootprintsConcurrent: callers on several goroutines each get
// scratch of their own from the pool (run under -race).
func TestGroupFootprintsConcurrent(t *testing.T) {
	var fps []txn.Footprint
	for _, tx := range footprintCorpus(t) {
		fps = append(fps, tx.Footprint())
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 50 {
				batch := fps[(g+i)%len(fps):]
				if got, want := parallel.GroupFootprints(batch), refGroupFootprints(batch); !reflect.DeepEqual(got, want) {
					t.Errorf("goroutine %d, call %d: %v, want %v", g, i, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestGroupsDoNotShareCapacity: the groups share one backing array, so
// each is capped at its length — a caller appending to one group must
// not write into the next.
func TestGroupsDoNotShareCapacity(t *testing.T) {
	groups := parallel.GroupFootprints([]txn.Footprint{
		{Writes: []string{"a"}}, {Writes: []string{"b"}}, {Writes: []string{"a"}},
	})
	if len(groups) != 2 {
		t.Fatalf("groups %v, want [[0 2] [1]]", groups)
	}
	_ = append(groups[0], 99)
	if !reflect.DeepEqual(groups, [][]int{{0, 2}, {1}}) {
		t.Errorf("appending to a group changed the others: %v", groups)
	}
}

// refValidate is the block-order validation loop the scheduler ran
// when it had a sequential path beside the grouped one (and the server
// ran before there was a scheduler): one batch, every transaction in
// block order, fresh ones skipping their condition sets. Kept as the
// reference the grouped run is pinned to at every worker count.
func refValidate(reg *txtype.Registry, state txtype.ChainState, reserved txtype.ReservedSet, txs []*txn.Transaction, fresh []bool) (valid, invalid []string, errs map[string]string) {
	batch := txtype.NewBatch(nil)
	errs = make(map[string]string)
	for i, t := range txs {
		var err error
		if i >= len(fresh) || !fresh[i] {
			err = reg.Validate(&txtype.Context{State: state, Reserved: reserved, Batch: batch}, t)
		}
		if err == nil {
			err = batch.Add(t)
		}
		if err != nil {
			invalid = append(invalid, t.ID)
			errs[t.ID] = err.Error()
			continue
		}
		valid = append(valid, t.ID)
	}
	return valid, invalid, errs
}
