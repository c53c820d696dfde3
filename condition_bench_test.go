package smartchaindb

import (
	"strings"
	"testing"

	"smartchaindb/internal/ledger"
	"smartchaindb/internal/txn"
	"smartchaindb/internal/txtype"
	"smartchaindb/internal/validate"
)

// BenchmarkBidConditionBreakdown times each condition of C_BID
// individually. Because the declarative model represents condition
// sets as data, a cost-based optimizer can measure and reorder them —
// the automatic-optimization opportunity the paper contrasts with
// opaque smart-contract code. The output shows where BID validation
// time actually goes (signature verification dominates; the capability
// subset check is an index lookup).
func BenchmarkBidConditionBreakdown(b *testing.B) {
	registry, ctx, bid, _ := buildBidScenario(b)
	ty, ok := registry.Type(txn.OpBid)
	if !ok {
		b.Fatal("BID type missing")
	}
	for _, cond := range ty.Conditions {
		cond := cond
		b.Run(cond.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := cond.Check(ctx, bid); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkConditionOrderingEffect demonstrates the optimization the
// introspection enables: against an invalid transaction, evaluating
// the cheap structural conditions first (the registered order) rejects
// far faster than a worst-case order that runs signature verification
// before noticing the transaction is a duplicate.
func BenchmarkConditionOrderingEffect(b *testing.B) {
	registry, ctx, bid, _ := buildBidScenario(b)
	// Make the bid invalid in the cheapest possible way: submit it as a
	// duplicate of a committed transaction.
	if err := registry.Validate(ctx, bid); err != nil {
		b.Fatal(err)
	}
	st, okState := ctx.State.(*ledger.State)
	if !okState {
		b.Fatal("context state is not a ledger state")
	}
	if err := commitOne(st, bid); err != nil {
		b.Fatal(err)
	}
	ty, _ := registry.Type(txn.OpBid)

	b.Run("registered-order", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := ty.Validate(ctx, bid); err == nil {
				b.Fatal("duplicate should fail")
			}
		}
	})
	b.Run("signatures-first", func(b *testing.B) {
		reversed := &txtype.Type{Op: ty.Op}
		// Move the duplicate check last: every evaluation now pays for
		// signature verification before discovering the duplicate.
		var dup txtype.Condition
		for _, c := range ty.Conditions {
			if strings.HasSuffix(c.Name, ".dup") {
				dup = c
				continue
			}
			reversed.Conditions = append(reversed.Conditions, c)
		}
		reversed.Conditions = append(reversed.Conditions, dup)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := reversed.Validate(ctx, bid); err == nil {
				b.Fatal("duplicate should fail")
			}
		}
	})
}

// Compile-time check that the validate registry exposes what the
// benchmarks introspect.
var _ = validate.NewRegistry
