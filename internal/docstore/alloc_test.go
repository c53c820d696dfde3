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

// lockedBids is ledger.StateView.LockedBidsForRFQ's find.
func lockedBids(rfq string) Filter { return And(Eq("operation", "BID"), Contains("refs", rfq)) }

// TestPlannedIntersectAllocations pins what the locked-bid find
// allocates. The refs probe drives (sixteen candidates against the
// operation probe's 1 024) and, being a one-argument point probe,
// cannot return a document twice, so the intersect builds no dedup
// set; the operation probe checks each candidate against the key the
// plan rendered once. So executing the plan allocates the driving
// candidate slice and nothing else. The residual filter walks the
// paths its leaves split when they were built, so re-checking the
// sixteen candidates allocates nothing either, and the find as a whole
// stays under its ceiling (splitting the path on every Matches, as the
// filter once did, cost 64 more).
func TestPlannedIntersectAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	c := bidsFixture(t, 64, 16)
	f := lockedBids("rfq0007")
	if got := len(c.BorrowFind(f)); got != 16 {
		t.Fatalf("locked bids = %d, want 16", got)
	}
	plan := c.Plan(f)
	if got := testing.AllocsPerRun(200, func() { plan.materialize(storage.HeightLatest) }); got != 1 {
		t.Errorf("executing the locked-bid plan: %v allocations, want 1 (the driving candidates)", got)
	}
	const ceiling = 43
	if got := testing.AllocsPerRun(200, func() { c.BorrowFind(f) }); got > ceiling {
		t.Errorf("locked-bid find: %v allocations, ceiling %d", got, ceiling)
	}
}

// BenchmarkPlannedIntersect is the locked-bid find over 64 REQUESTs of
// 16 BIDs each.
func BenchmarkPlannedIntersect(b *testing.B) {
	c := bidsFixture(b, 64, 16)
	filters := make([]Filter, 64)
	for i := range filters {
		filters[i] = lockedBids(fmt.Sprintf("rfq%04d", i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(c.BorrowFind(filters[i%len(filters)])) != 16 {
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
