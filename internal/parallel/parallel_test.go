package parallel_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"smartchaindb/internal/keys"
	"smartchaindb/internal/ledger"
	"smartchaindb/internal/parallel"
	"smartchaindb/internal/txn"
	"smartchaindb/internal/validate"
	"smartchaindb/internal/workload"
)

// --- footprint and plan unit tests -----------------------------------

func TestFootprintConflictPairs(t *testing.T) {
	gen := workload.NewGenerator(1, keys.DeterministicKeyPair(99))
	owner := gen.Account(0)
	asset := gen.Create(owner, []string{"cnc"}, 64)
	requester := gen.Account(1)
	rfq := gen.Request(requester, []string{"cnc"}, 64)

	transferTo := func(to int) *txn.Transaction {
		tr := txn.NewTransfer(asset.ID,
			[]txn.Spend{{Ref: txn.OutputRef{TxID: asset.ID, Index: 0}, Owners: []string{owner.PublicBase58()}}},
			[]*txn.Output{{PublicKeys: []string{gen.Account(to).PublicBase58()}, Amount: 1}}, nil)
		if err := txn.Sign(tr, owner); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	t1, t2 := transferTo(10), transferTo(11)
	if !parallel.Conflicts(t1.Footprint(), t2.Footprint()) {
		t.Error("double-spending transfers must conflict")
	}

	bidder2 := gen.Account(2)
	asset2 := gen.Create(bidder2, []string{"cnc"}, 64)
	bid1 := gen.Bid(owner, asset, rfq, 64)
	bid2 := gen.Bid(bidder2, asset2, rfq, 64)
	if !parallel.Conflicts(bid1.Footprint(), bid2.Footprint()) {
		t.Error("two BIDs on the same REQUEST must conflict")
	}

	// Producer/consumer: a transfer spending an in-block CREATE.
	if !parallel.Conflicts(asset.Footprint(), t1.Footprint()) {
		t.Error("a transaction must conflict with the producer of its input")
	}
	// A BID and the REQUEST it references must order.
	if !parallel.Conflicts(rfq.Footprint(), bid1.Footprint()) {
		t.Error("a BID must conflict with its in-block REQUEST")
	}

	// Independent transfers of independent assets do not conflict.
	tr2 := txn.NewTransfer(asset2.ID,
		[]txn.Spend{{Ref: txn.OutputRef{TxID: asset2.ID, Index: 0}, Owners: []string{bidder2.PublicBase58()}}},
		[]*txn.Output{{PublicKeys: []string{gen.Account(12).PublicBase58()}, Amount: 1}}, nil)
	if err := txn.Sign(tr2, bidder2); err != nil {
		t.Fatal(err)
	}
	if parallel.Conflicts(t1.Footprint(), tr2.Footprint()) {
		t.Error("independent transfers must not conflict")
	}
}

func TestBuildPlanGroupsAndOrder(t *testing.T) {
	_, _, batch := scenario(t, 3, 4, 42)
	plan := parallel.BuildPlan(batch)
	// Every index appears exactly once, groups sorted ascending.
	seen := make(map[int]bool)
	for _, g := range plan.Groups {
		for i, idx := range g {
			if seen[idx] {
				t.Fatalf("index %d appears twice", idx)
			}
			seen[idx] = true
			if i > 0 && g[i-1] >= idx {
				t.Fatalf("group not in ascending block order: %v", g)
			}
		}
	}
	if len(seen) != len(batch) {
		t.Fatalf("plan covers %d of %d transactions", len(seen), len(batch))
	}
	// The invariant the whole design rests on: every conflicting pair
	// shares a group.
	groupOf := make(map[int]int)
	for gi, g := range plan.Groups {
		for _, idx := range g {
			groupOf[idx] = gi
		}
	}
	for i := 0; i < len(batch); i++ {
		for j := i + 1; j < len(batch); j++ {
			if parallel.Conflicts(plan.Footprints[i], plan.Footprints[j]) && groupOf[i] != groupOf[j] {
				t.Errorf("conflicting pair (%d, %d) split across groups %d and %d",
					i, j, groupOf[i], groupOf[j])
			}
		}
	}
	// And its converse, the one the speedup rests on: the scenario's
	// three auctions share nothing, so they must not share a group.
	if len(plan.Groups) < 3 {
		t.Errorf("independent auctions collapsed into %d conflict groups", len(plan.Groups))
	}
}

func TestMakespan(t *testing.T) {
	mk := func(sizes ...int) *parallel.Plan {
		p := &parallel.Plan{}
		next := 0
		for _, s := range sizes {
			var g []int
			for k := 0; k < s; k++ {
				g = append(g, next)
				next++
			}
			p.Groups = append(p.Groups, g)
		}
		return p
	}
	for _, w := range []int{0, 1} {
		if got := mk(4, 4, 4, 4).Makespan(w); got != 16 {
			t.Errorf("%d-worker makespan = %d, want 16", w, got)
		}
	}
	if got := mk(4, 4, 4, 4).Makespan(4); got != 4 {
		t.Errorf("4-worker makespan = %d, want 4", got)
	}
	if got := mk(10, 1, 1).Makespan(4); got != 10 {
		t.Errorf("critical path makespan = %d, want 10", got)
	}
	if got := mk().Makespan(4); got != 0 {
		t.Errorf("empty makespan = %d, want 0", got)
	}
}

// --- scenario construction -------------------------------------------

// scenario builds a committed pre-state (REQUESTs + CREATEs) and a
// randomized block batch over it: bids on shared REQUESTs, independent
// transfers, injected double-spends, a duplicate transaction, and
// premature ACCEPT_BIDs. Deterministic in seed, so calling it twice
// yields byte-identical state and batch.
func scenario(t *testing.T, auctions, bidders int, seed int64) (*ledger.State, *keys.Reserved, []*txn.Transaction) {
	t.Helper()
	reserved := keys.NewReservedWithDefaults(seed + 1000)
	state := ledger.NewState()
	gen := workload.NewGenerator(seed, reserved.Escrow())
	rng := rand.New(rand.NewSource(seed * 31))

	var batch []*txn.Transaction
	base := 0
	for a := 0; a < auctions; a++ {
		grp := gen.NewAuctionGroup(base, workload.AuctionGroupSpec{
			BiddersPerAuction: bidders,
			PayloadBytes:      96,
		})
		base += bidders + 1
		if err := commitOne(state, grp.Request); err != nil {
			t.Fatal(err)
		}
		for _, c := range grp.Creates {
			if err := commitOne(state, c); err != nil {
				t.Fatal(err)
			}
		}
		batch = append(batch, grp.Bids...)
		// Double-spend: a transfer competing with the first bid's input.
		bidder := grp.Bidders[0]
		ds := txn.NewTransfer(grp.Creates[0].ID,
			[]txn.Spend{{Ref: txn.OutputRef{TxID: grp.Creates[0].ID, Index: 0}, Owners: []string{bidder.PublicBase58()}}},
			[]*txn.Output{{PublicKeys: []string{gen.Account(base + 500).PublicBase58()}, Amount: 1}}, nil)
		if err := txn.Sign(ds, bidder); err != nil {
			t.Fatal(err)
		}
		batch = append(batch, ds)
		// Premature accept: its bids are in this very block, so the
		// locked-bid count check must reject it — identically in both
		// schedulers.
		batch = append(batch, grp.Accept)
		// Independent transfer on a fresh asset.
		owner := gen.Account(base + 600)
		solo := gen.Create(owner, []string{"cnc"}, 96)
		if err := commitOne(state, solo); err != nil {
			t.Fatal(err)
		}
		tr := txn.NewTransfer(solo.ID,
			[]txn.Spend{{Ref: txn.OutputRef{TxID: solo.ID, Index: 0}, Owners: []string{owner.PublicBase58()}}},
			[]*txn.Output{{PublicKeys: []string{gen.Account(base + 700).PublicBase58()}, Amount: 1}}, nil)
		if err := txn.Sign(tr, owner); err != nil {
			t.Fatal(err)
		}
		batch = append(batch, tr)
	}
	// A duplicate of an existing batch entry.
	batch = append(batch, batch[0])
	rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
	return state, reserved, batch
}

// commitOne commits tx as its own block and returns the error the
// stage skipped it with, if any.
func commitOne(s *ledger.State, tx *txn.Transaction) error {
	_, skipped := s.CommitBlock([]*txn.Transaction{tx})
	return skipped[tx.ID]
}

func ids(txs []*txn.Transaction) []string {
	out := make([]string, len(txs))
	for i, t := range txs {
		out[i] = t.ID
	}
	return out
}

// stateDump renders the mutable chain state for equality comparison.
func stateDump(t *testing.T, s *ledger.State) map[string]string {
	t.Helper()
	dump := make(map[string]string)
	txs := s.Store().Collection(ledger.ColTransactions)
	for _, k := range txs.Keys() {
		dump["tx:"+k] = "1"
	}
	utxos := s.Store().Collection(ledger.ColUTXOs)
	for _, k := range utxos.Keys() {
		doc, err := utxos.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		spent, _ := doc["spent"].(bool)
		spender, _ := doc["spent_by"].(string)
		dump["utxo:"+k] = fmt.Sprintf("%v|%s", spent, spender)
	}
	return dump
}

// --- differential tests ----------------------------------------------

// TestDifferentialSequentialVsParallel is the core equivalence proof:
// on randomized conflict-heavy batches, the grouped run at 1, 2 and 8
// workers admits exactly the transactions the block-order reference
// loop admits, with the same error strings — with and without verdict
// reuse — and committing the result produces byte-identical state.
func TestDifferentialSequentialVsParallel(t *testing.T) {
	reg := validate.NewRegistry()
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			refState, reserved, batch := scenario(t, 3, 5, seed)
			rng := rand.New(rand.NewSource(seed))
			fresh := make([]bool, len(batch))
			for i := range fresh {
				fresh[i] = rng.Intn(3) == 0
			}
			for _, flags := range [][]bool{nil, fresh} {
				wantValid, wantInvalid, wantErrs := refValidate(reg, refState, reserved, batch, flags)
				if flags == nil && (len(wantInvalid) == 0 || len(wantValid) == 0) {
					t.Fatalf("scenario should produce valid and invalid transactions: %d valid, %d invalid", len(wantValid), len(wantInvalid))
				}
				for _, workers := range []int{1, 2, 8} {
					res := (&parallel.Scheduler{Workers: workers}).ValidateBatch(reg, refState, reserved, batch, nil, flags)
					if !reflect.DeepEqual(ids(res.Valid), wantValid) {
						t.Fatalf("workers=%d fresh=%v: valid sets differ:\n got=%v\n ref=%v", workers, flags != nil, ids(res.Valid), wantValid)
					}
					if !reflect.DeepEqual(ids(res.Invalid), wantInvalid) {
						t.Fatalf("workers=%d fresh=%v: invalid sets differ:\n got=%v\n ref=%v", workers, flags != nil, ids(res.Invalid), wantInvalid)
					}
					if got := len(res.Batch.Transactions()); got != len(wantValid) {
						t.Fatalf("workers=%d fresh=%v: the batch admitted %d transactions, reference %d", workers, flags != nil, got, len(wantValid))
					}
					for id, want := range wantErrs {
						if got := res.Errs[id]; got == nil || got.Error() != want {
							t.Fatalf("workers=%d fresh=%v: tx %.8s error %v, reference %q", workers, flags != nil, id, got, want)
						}
					}
				}
			}

			// Committing the admitted set must land every state on the
			// same bytes.
			valid, _, _ := refValidate(reg, refState, reserved, batch, nil)
			commit := func(s *ledger.State, admitted []*txn.Transaction) map[string]string {
				if got, _ := s.CommitBlock(admitted); len(got) != len(admitted) {
					t.Fatalf("commit applied %d of %d", len(got), len(admitted))
				}
				return stateDump(t, s)
			}
			byID := make(map[string]*txn.Transaction, len(batch))
			for _, tx := range batch {
				byID[tx.ID] = tx
			}
			var refAdmitted []*txn.Transaction
			for _, id := range valid {
				refAdmitted = append(refAdmitted, byID[id])
			}
			want := commit(refState, refAdmitted)
			for _, workers := range []int{1, 2, 8} {
				state, reserved, batch := scenario(t, 3, 5, seed)
				res := (&parallel.Scheduler{Workers: workers}).ValidateBatch(reg, state, reserved, batch, nil, nil)
				if !reflect.DeepEqual(commit(state, res.Valid), want) {
					t.Fatalf("workers=%d: committed states diverge", workers)
				}
			}
		})
	}
}

// TestConflictingPairsNeverConcurrent is the safety property: the
// scheduler never has two conflicting transactions inside their
// condition sets at the same time.
func TestConflictingPairsNeverConcurrent(t *testing.T) {
	reg := validate.NewRegistry()
	state, reserved, batch := scenario(t, 4, 6, 77)

	var mu sync.Mutex
	inflight := make(map[*txn.Transaction]txn.Footprint)
	maxInflight := 0
	violations := 0
	sched := &parallel.Scheduler{Workers: 8}
	sched.OnValidate = func(tx *txn.Transaction, entering bool) {
		mu.Lock()
		defer mu.Unlock()
		if entering {
			fp := tx.Footprint()
			for other, ofp := range inflight {
				if other != tx && parallel.Conflicts(fp, ofp) {
					violations++
				}
			}
			inflight[tx] = fp
			if len(inflight) > maxInflight {
				maxInflight = len(inflight)
			}
		} else {
			delete(inflight, tx)
		}
	}
	res := sched.ValidateBatch(reg, state, reserved, batch, nil, nil)
	if violations != 0 {
		t.Fatalf("%d conflicting pairs validated concurrently", violations)
	}
	if len(res.Valid)+len(res.Invalid) != len(batch) {
		t.Fatalf("scheduler lost transactions: %d+%d != %d", len(res.Valid), len(res.Invalid), len(batch))
	}
	t.Logf("groups=%d largest=%d maxInflight=%d", res.Groups, res.Largest, maxInflight)
}

// TestSchedulerMatchesLegacySequentialLoop pins the zero-value
// scheduler (one worker) to the reference DeliverTx loop the server
// used before the parallel pipeline existed.
func TestSchedulerMatchesLegacySequentialLoop(t *testing.T) {
	reg := validate.NewRegistry()
	state, reserved, batch := scenario(t, 2, 4, 5)
	legacyValid, legacyInvalid, _ := refValidate(reg, state, reserved, batch, nil)

	res := (&parallel.Scheduler{}).ValidateBatch(reg, state, reserved, batch, nil, nil)
	if !reflect.DeepEqual(ids(res.Valid), legacyValid) {
		t.Errorf("valid mismatch:\n got %v\nwant %v", ids(res.Valid), legacyValid)
	}
	if !reflect.DeepEqual(ids(res.Invalid), legacyInvalid) {
		t.Errorf("invalid mismatch:\n got %v\nwant %v", ids(res.Invalid), legacyInvalid)
	}
}
