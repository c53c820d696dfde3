package docstore

import (
	"fmt"
	"testing"

	"smartchaindb/internal/storage"
)

// bidsFixture is the transactions collection the validator's locked-bid
// query reads: the operation and refs hash indexes of
// ledger.ChainIndexes over rfqs REQUESTs with bidsPer BIDs each, every
// BID referencing its REQUEST.
func bidsFixture(tb testing.TB, rfqs, bidsPer int) *Collection {
	tb.Helper()
	c := NewStore().Collection("transactions")
	c.CreateIndex("operation")
	c.CreateIndex("refs")
	for r := 0; r < rfqs; r++ {
		rfq := fmt.Sprintf("rfq%04d", r)
		if err := c.Insert(rfq, map[string]any{"operation": "REQUEST", "refs": []any{}}); err != nil {
			tb.Fatal(err)
		}
		for b := 0; b < bidsPer; b++ {
			if err := c.Insert(fmt.Sprintf("%s-bid%d", rfq, b), map[string]any{"operation": "BID", "refs": []any{rfq}}); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return c
}

// lockedBids is ledger.StateView.LockedBidsForRFQ's find, and acceptFor
// ledger.StateView.AcceptForRFQ's: the refs probe drives, the operation
// is residual.
func lockedBids(rfq string) Filter { return And(Contains("refs", rfq), Eq("operation", "BID")) }

func acceptFor(rfq string) Filter { return And(Contains("refs", rfq), Eq("operation", "ACCEPT_BID")) }

// TestLockedBidFindAllocations pins what the locked-bid find allocates.
// The refs probe drives and yields the sixteen BIDs of one REQUEST, of
// the 1 024 the operation index holds; the operation is checked on
// each fetched document. So executing the plan allocates the candidate
// slice and nothing else. The residual filter walks the paths its
// leaves split when they were built, so re-checking the sixteen
// candidates allocates nothing either, and the find as a whole stays
// under its ceiling (splitting the path on every Matches, as the
// filter once did, cost 64 more; a plan cache's estimate tape, one;
// the intersect plan with its closures and membership probes, 16).
func TestLockedBidFindAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	c := bidsFixture(t, 64, 16)
	f := lockedBids("rfq0007")
	if got := len(c.borrowLimitAt(storage.HeightLatest, f, 0)); got != 16 {
		t.Fatalf("locked bids = %d, want 16", got)
	}
	plan := c.Plan(f)
	if got := testing.AllocsPerRun(200, func() { plan.candidates(storage.HeightLatest, collObs{}) }); got != 1 {
		t.Errorf("executing the locked-bid plan: %v allocations, want 1 (the candidates)", got)
	}
	const ceiling = 26
	if got := testing.AllocsPerRun(200, func() { c.borrowLimitAt(storage.HeightLatest, f, 0) }); got > ceiling {
		t.Errorf("locked-bid find: %v allocations, ceiling %d", got, ceiling)
	}
}

// BenchmarkPlanLockedBids compiles the locked-bid filter and executes
// the plan (its candidate keys, no document fetched) over 64 k
// transactions, 4096 REQUESTs of 15 BIDs each: what planning and
// driving a validator's read costs. The residual operation check is
// not included; it is a map lookup per candidate.
func BenchmarkPlanLockedBids(b *testing.B) {
	const rfqs, bidsPer = 4096, 15
	c := bidsFixture(b, rfqs, bidsPer)
	filters := make([]Filter, 256)
	for i := range filters {
		filters[i] = lockedBids(fmt.Sprintf("rfq%04d", i*(rfqs/len(filters))))
	}
	c.Plan(acceptFor("rfq0000"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(c.Plan(filters[i%len(filters)]).candidates(storage.HeightLatest, collObs{})) != bidsPer {
			b.Fatal("wrong locked-bid count")
		}
	}
}

// BenchmarkIndexInsert is one document's index upkeep on insert, over
// a unique value (a transaction id, a timestamp) and over a value every
// other document shares (the spent flag), into indexes of up to 64 k
// postings: B/op is what a posting costs, map growth included.
func BenchmarkIndexInsert(b *testing.B) {
	const docs = 64 << 10
	for _, kind := range []struct {
		name string
		new  func() secondaryIndex
	}{
		{"hash", func() secondaryIndex { return newHashIndex("v", Where{}) }},
		{"ordered", func() secondaryIndex { return newOrderedIndex("v", Where{}) }},
	} {
		for _, val := range []struct {
			name  string
			value func(i int) any
		}{
			{"unique", func(i int) any { return float64(1_700_000_000_000 + i) }},
			{"shared", func(i int) any { return i%2 == 0 }},
		} {
			b.Run(kind.name+"/"+val.name, func(b *testing.B) {
				keys := make([]string, docs)
				vals := make([]map[string]any, docs)
				for i := range keys {
					keys[i] = fmt.Sprintf("k%06d", i)
					vals[i] = map[string]any{"v": val.value(i)}
				}
				ix := kind.new()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if i%docs == 0 && i > 0 {
						b.StopTimer()
						ix = kind.new()
						b.StartTimer()
					}
					ix.add(keys[i%docs], vals[i%docs], 0)
				}
			})
		}
	}
}
