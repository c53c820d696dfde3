package parallel

import (
	"smartchaindb/internal/txn"
	"smartchaindb/internal/txtype"
)

// Scheduler validates a block's batch conflict group by conflict group
// on a worker pool. Workers <= 1 runs the same groups on the caller's
// goroutine.
type Scheduler struct {
	// Workers is the number of concurrent validation workers.
	Workers int

	// OnValidate, when set, is invoked with entering=true immediately
	// before a transaction's condition set runs and with
	// entering=false right after. Test instrumentation for the
	// "conflicting transactions never validate concurrently" property;
	// leave it nil in production paths.
	OnValidate func(t *txn.Transaction, entering bool)
}

// Result is the outcome of validating one batch.
type Result struct {
	// Valid holds the admitted transactions in block order.
	Valid []*txn.Transaction
	// Invalid holds the rejected transactions in block order.
	Invalid []*txn.Transaction
	// Errs maps rejected transaction IDs to their first validation
	// error.
	Errs map[string]error
	// Batch is the admission batch built during validation; it
	// contains exactly the transactions in Valid.
	Batch *txtype.Batch
	// Groups and Largest describe the conflict plan: the number of
	// independent groups and the critical-path length.
	Groups  int
	Largest int
}

// ValidateBatch runs the registry's condition sets over the batch
// against committed state, one conflict group per task on the worker
// pool; transactions within one group validate in block order, so the
// valid/invalid partition is identical to a block-order pass. plan is
// BuildPlan of exactly txs (nil plans on demand).
//
// fresh[i] marks a transaction whose admission verdict (computed
// against committed state, and not conflicted by any commit since)
// still stands. Fresh transactions skip their semantic condition sets
// and only re-run the structural batch admission — duplicate and
// intra-block double-spend checks — so the partition is identical to a
// full pass whenever the freshness flags are sound. A nil fresh
// validates everything.
func (s *Scheduler) ValidateBatch(reg *txtype.Registry, state txtype.ChainState, reserved txtype.ReservedSet, txs []*txn.Transaction, plan *Plan, fresh []bool) *Result {
	if plan == nil {
		plan = BuildPlan(txs)
	}
	res := &Result{
		Errs:    make(map[string]error),
		Batch:   txtype.NewBatch(txs),
		Groups:  len(plan.Groups),
		Largest: plan.Largest(),
	}
	errAt := make([]error, len(txs))
	validate := func(i int) {
		t := txs[i]
		if s.OnValidate != nil {
			s.OnValidate(t, true)
			defer s.OnValidate(t, false)
		}
		if i >= len(fresh) || !fresh[i] {
			ctx := &txtype.Context{State: state, Reserved: reserved, Batch: res.Batch}
			if err := reg.Validate(ctx, t); err != nil {
				errAt[i] = err
				return
			}
		}
		// Batch admission is the last line of defence: it re-checks
		// duplicates and intra-block double spends.
		if err := res.Batch.Add(t); err != nil {
			errAt[i] = err
		}
	}
	plan.RunGroups(s.Workers, func(g []int) {
		for _, i := range g {
			validate(i)
		}
	})

	for i, t := range txs {
		if errAt[i] != nil {
			res.Invalid = append(res.Invalid, t)
			res.Errs[t.ID] = errAt[i]
		} else {
			res.Valid = append(res.Valid, t)
		}
	}
	return res
}
