// Package txtype is the declarative heart of SmartchainDB: it defines
// transaction types as data. A type τ_α = ⟨T_α, C_α⟩ couples an
// operation name with an ordered set of named boolean validation
// conditions over the transaction and chain state (Section 3.2 of the
// paper). A transaction is valid with respect to its type iff every
// condition holds. New types are added by registering a new condition
// set — no validator code changes, which is the extensibility claim of
// the declarative model.
package txtype

import (
	"fmt"
	"sync"

	"smartchaindb/internal/txn"
)

// ChainState is the read view of committed chain state a condition may
// consult. *ledger.State and *ledger.StateView implement it.
//
// It hands out no decoded transaction: a condition reads the fields it
// needs in place (txn.Stored), from the stored document, which is the
// store's own and read-only.
type ChainState interface {
	// Tx reads committed transaction id in place; ok is false when it
	// is not committed.
	Tx(id string) (s txn.Stored, ok bool)
	IsCommitted(id string) bool
	// Output answers what the chain holds of one output, from the one
	// record under its key: its UTXO record, or the spend marker that
	// replaced it (txn.OutputFact). ok is false when neither exists.
	Output(ref txn.OutputRef) (f txn.OutputFact, ok bool)
	// OutputKeyed is Output for a caller that holds ref's UTXO key
	// (ref.String()) already — a transaction's own input, whose spend
	// key ends in it (txn.Transaction.SpentKey) — so the read builds no
	// string.
	OutputKeyed(ref txn.OutputRef, key string) (f txn.OutputFact, ok bool)
	// LockedBidsForRFQ is the IDs of the REQUEST's BIDs whose escrow
	// output is unspent.
	LockedBidsForRFQ(rfqID string) []string
	// Accepted reads the committed ACCEPT_BID of the REQUEST in place.
	Accepted(rfqID string) (s txn.Stored, ok bool)
}

// ReservedSet answers membership in PBPK-Res, the reserved system
// accounts. *keys.Reserved implements it.
type ReservedSet interface {
	IsReserved(pub string) bool
}

// Context carries everything a condition can see: committed state, the
// reserved-account set, and the batch of transactions already approved
// in the block being built (the CurrentTxs parameter of Algorithms 2
// and 3, needed to catch conflicts between in-flight transactions).
// Every read looks in the batch first and in committed state second,
// so a dependency landing in the same block is seen.
type Context struct {
	State    ChainState
	Reserved ReservedSet
	Batch    *Batch
}

// Tx reads transaction id in place: a batched transaction through its
// own document (SharedDoc), a committed one from the stored document.
// A read costs a lookup, not a decode, so a condition reads again
// rather than keep what it read.
func (c *Context) Tx(id string) (txn.Stored, bool) {
	if c.Batch != nil {
		if t, ok := c.Batch.Get(id); ok {
			return txn.ReadStored(t.SharedDoc()), true
		}
	}
	return c.State.Tx(id)
}

// Output returns what the chain knows of output ref, looking in the
// block being built first and in committed state second, as Tx does:
// an output of a batched transaction is read from that transaction
// (txn.Transaction.OutputFact), and a batched transaction spending ref
// is its spender.
func (c *Context) Output(ref txn.OutputRef) (txn.OutputFact, bool) {
	return c.output(ref, "")
}

// InputOutput is Output of the output t's input i spends, read under
// the key t's spend keys already hold (txn.Transaction.SpentKey).
func (c *Context) InputOutput(t *txn.Transaction, i int) (txn.OutputFact, bool) {
	return c.output(*t.Inputs[i].Fulfills, t.SpentKey(i))
}

// output is Output with ref's UTXO key, when the caller has it.
func (c *Context) output(ref txn.OutputRef, key string) (f txn.OutputFact, ok bool) {
	var t *txn.Transaction
	batched := false
	if c.Batch != nil {
		t, batched = c.Batch.Get(ref.TxID)
	}
	switch {
	case batched:
		f, ok = t.OutputFact(ref.Index)
	case key == "":
		f, ok = c.State.Output(ref)
	default:
		f, ok = c.State.OutputKeyed(ref, key)
	}
	if c.Batch != nil {
		if spender, spent := c.Batch.SpentBy(ref); spent {
			f.SpentBy = spender
		}
	}
	return f, ok
}

// Batch tracks the transactions approved so far for the block under
// construction, detecting intra-block double spends and duplicates.
type Batch struct {
	mu    sync.RWMutex
	txs   map[string]*txn.Transaction
	order []string
	spent map[txn.OutputRef]string // spent output -> spender tx ID
}

// NewBatch creates an empty batch sized to admit txs (nil for none),
// so that its maps do not regrow while they do.
func NewBatch(txs []*txn.Transaction) *Batch {
	spends := 0
	for _, t := range txs {
		for _, in := range t.Inputs {
			if in.Fulfills != nil {
				spends++
			}
		}
	}
	return &Batch{
		txs:   make(map[string]*txn.Transaction, len(txs)),
		order: make([]string, 0, len(txs)),
		spent: make(map[txn.OutputRef]string, spends),
	}
}

// Add admits a transaction into the batch. It fails if the batch
// already contains the same ID or a transaction spending one of the
// same outputs.
func (b *Batch) Add(t *txn.Transaction) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, dup := b.txs[t.ID]; dup {
		return &txn.DuplicateTransactionError{TxID: t.ID, Reason: "already in current block"}
	}
	for _, in := range t.Inputs {
		if in.Fulfills == nil {
			continue
		}
		if spender, clash := b.spent[*in.Fulfills]; clash {
			return &txn.DoubleSpendError{Ref: *in.Fulfills, SpentBy: spender}
		}
	}
	b.txs[t.ID] = t
	b.order = append(b.order, t.ID)
	for _, in := range t.Inputs {
		if in.Fulfills != nil {
			b.spent[*in.Fulfills] = t.ID
		}
	}
	return nil
}

// Get returns a batched transaction by ID.
func (b *Batch) Get(id string) (*txn.Transaction, bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	t, ok := b.txs[id]
	return t, ok
}

// SpentBy reports the batched transaction spending ref, if any.
func (b *Batch) SpentBy(ref txn.OutputRef) (string, bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	id, ok := b.spent[ref]
	return id, ok
}

// Transactions returns the batched transactions in admission order.
func (b *Batch) Transactions() []*txn.Transaction {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make([]*txn.Transaction, 0, len(b.order))
	for _, id := range b.order {
		out = append(out, b.txs[id])
	}
	return out
}

// CheckFunc evaluates one validation condition. A nil return means the
// condition holds.
type CheckFunc func(ctx *Context, t *txn.Transaction) error

// Condition is one named element of a type's condition set C_α.
type Condition struct {
	// Name identifies the condition, e.g. "BID.6".
	Name string
	// Doc states the condition in prose, mirroring the paper.
	Doc string
	// Check evaluates the condition.
	Check CheckFunc
}

// Type is a declarative transaction type τ_α = ⟨T_α, C_α⟩.
type Type struct {
	// Op is the operation name α.
	Op string
	// Conditions is the ordered condition set C_α.
	Conditions []Condition
}

// Validate runs the full condition set against t, wrapping the first
// failure with the condition's name.
func (ty *Type) Validate(ctx *Context, t *txn.Transaction) error {
	for _, c := range ty.Conditions {
		if err := c.run(ctx, t); err != nil {
			if ve, ok := err.(*txn.ValidationError); ok && ve.Cond == "" {
				ve.Cond = c.Name
				return ve
			}
			return fmt.Errorf("condition %s (%s): %w", c.Name, c.Doc, err)
		}
	}
	return nil
}

// run evaluates the condition, turning a panic into a refusal that
// names it: a registered condition is code the chain does not control,
// and every validator reaches the same verdict on the same
// transaction, where a panic would halt them all. The panic value is
// quoted only when it is a string or an error, whose text is the same
// on every validator.
func (c Condition) run(ctx *Context, t *txn.Transaction) (err error) {
	defer func() {
		if r := recover(); r != nil {
			reason := "the condition panicked"
			switch v := r.(type) {
			case string:
				reason += ": " + v
			case error:
				reason += ": " + v.Error()
			}
			err = &txn.ValidationError{Op: t.Operation, Cond: c.Name, Reason: reason}
		}
	}()
	return c.Check(ctx, t)
}

// Registry maps operation names to types.
type Registry struct {
	mu    sync.RWMutex
	types map[string]*Type
}

// NewRegistry creates an empty type registry.
func NewRegistry() *Registry {
	return &Registry{types: make(map[string]*Type)}
}

// Register installs a type. It refuses, naming what is wrong, a type
// with no operation, a condition with no name or no check, two
// conditions of one name, and an operation already registered: a
// registered type is never replaced.
func (r *Registry) Register(ty *Type) error {
	if ty == nil || ty.Op == "" {
		return fmt.Errorf("txtype: register: a type needs an operation")
	}
	names := make(map[string]bool, len(ty.Conditions))
	for i, c := range ty.Conditions {
		switch {
		case c.Name == "":
			return fmt.Errorf("txtype: register %s: condition %d has no name", ty.Op, i)
		case c.Check == nil:
			return fmt.Errorf("txtype: register %s: condition %s has no check", ty.Op, c.Name)
		case names[c.Name]:
			return fmt.Errorf("txtype: register %s: two conditions are named %s", ty.Op, c.Name)
		}
		names[c.Name] = true
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.types[ty.Op]; ok {
		return fmt.Errorf("txtype: register: operation %s is already registered", ty.Op)
	}
	r.types[ty.Op] = ty
	return nil
}

// Type returns the registered type for op.
func (r *Registry) Type(op string) (*Type, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ty, ok := r.types[op]
	return ty, ok
}

// Validate dispatches t to its type's condition set. Unknown
// operations are rejected, mirroring Algorithm 1's enum check at the
// semantic layer.
func (r *Registry) Validate(ctx *Context, t *txn.Transaction) error {
	ty, ok := r.Type(t.Operation)
	if !ok {
		return &txn.ValidationError{Op: t.Operation, Reason: "no transaction type registered for operation"}
	}
	return ty.Validate(ctx, t)
}
