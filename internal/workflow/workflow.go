// Package workflow implements blockchain transaction workflows
// (Definition 5 of the paper): named sequences of transaction types
// composing marketplace processes, e.g. the reverse auction
// CREATE → REQUEST → BID → ACCEPT_BID → TRANSFER. A Spec declares the
// legal op sequences as data, and Trace reconstructs a workflow from
// the chain's spend graph, so a committed path is checked against its
// Spec by a chain query — the queryability the paper contrasts with
// smart contracts, whose workflow state hides inside program storage.
package workflow

import (
	"fmt"

	"smartchaindb/internal/txn"
)

// Spec declares a workflow as an op transition relation.
type Spec struct {
	// Name identifies the workflow.
	Name string
	// Heads are the operations allowed to initiate an instance. Per
	// Definition 5 a head transaction has no spending inputs.
	Heads []string
	// Transitions maps an operation to its legal successors.
	Transitions map[string][]string
	// Terminals are operations that may end an instance.
	Terminals []string
}

// ReverseAuction is the procurement workflow of the evaluation:
// CREATE and REQUEST initiate; bids respond to requests; an accepted
// bid triggers the closing transfers/returns.
func ReverseAuction() *Spec {
	return &Spec{
		Name:  "reverse-auction",
		Heads: []string{txn.OpCreate, txn.OpRequest},
		Transitions: map[string][]string{
			txn.OpCreate:    {txn.OpTransfer, txn.OpBid},
			txn.OpRequest:   {txn.OpBid},
			txn.OpBid:       {txn.OpAcceptBid},
			txn.OpAcceptBid: {txn.OpTransfer, txn.OpReturn},
			txn.OpTransfer:  {txn.OpTransfer, txn.OpBid},
			txn.OpReturn:    {txn.OpTransfer, txn.OpBid},
		},
		Terminals: []string{txn.OpCreate, txn.OpTransfer, txn.OpReturn, txn.OpAcceptBid},
	}
}

// SimpleTransfer is the minimal workflow CREATE or CREATE → TRANSFER*.
func SimpleTransfer() *Spec {
	return &Spec{
		Name:  "simple-transfer",
		Heads: []string{txn.OpCreate},
		Transitions: map[string][]string{
			txn.OpCreate:   {txn.OpTransfer},
			txn.OpTransfer: {txn.OpTransfer},
		},
		Terminals: []string{txn.OpCreate, txn.OpTransfer},
	}
}

// IsHead reports whether op may initiate an instance.
func (s *Spec) IsHead(op string) bool { return contains(s.Heads, op) }

// IsTerminal reports whether op may end an instance.
func (s *Spec) IsTerminal(op string) bool { return contains(s.Terminals, op) }

// ValidStep reports whether to may follow from.
func (s *Spec) ValidStep(from, to string) bool { return contains(s.Transitions[from], to) }

// ValidSequence checks a full op sequence against the spec: the head
// initiates, every step is a legal transition, and the tail terminates.
func (s *Spec) ValidSequence(ops []string) error {
	if len(ops) == 0 {
		return fmt.Errorf("workflow %s: empty sequence", s.Name)
	}
	if !s.IsHead(ops[0]) {
		return fmt.Errorf("workflow %s: %s cannot initiate", s.Name, ops[0])
	}
	for i := 1; i < len(ops); i++ {
		if !s.ValidStep(ops[i-1], ops[i]) {
			return fmt.Errorf("workflow %s: illegal step %s -> %s", s.Name, ops[i-1], ops[i])
		}
	}
	if !s.IsTerminal(ops[len(ops)-1]) {
		return fmt.Errorf("workflow %s: %s cannot terminate", s.Name, ops[len(ops)-1])
	}
	return nil
}

func contains(list []string, v string) bool {
	for _, e := range list {
		if e == v {
			return true
		}
	}
	return false
}

// ChainState is the read view Trace needs: a committed transaction's
// fields, read in place.
type ChainState interface {
	Tx(id string) (txn.Stored, bool)
}

// Trace reconstructs the op path ending at txID by walking spending
// inputs backwards to the workflow head. It demonstrates that workflow
// provenance is a chain query in the declarative model. Each hop reads
// the transaction's id, operation and first spending input in place.
func Trace(state ChainState, txID string) ([]string, []string, error) {
	var ops, ids []string
	cur := txID
	for depth := 0; depth < 1024; depth++ {
		s, ok := state.Tx(cur)
		if !ok {
			return nil, nil, &txn.InputDoesNotExistError{TxID: cur}
		}
		id, op, next, err := hop(s)
		if err != nil {
			return nil, nil, err
		}
		ops = append([]string{op}, ops...)
		ids = append([]string{id}, ids...)
		if next == "" {
			return ops, ids, nil
		}
		cur = next
	}
	return nil, nil, fmt.Errorf("workflow: trace exceeded depth limit at %s", short(txID))
}

// hop reads one step of a trace: the transaction's id and operation,
// and the transaction its first spending input spends ("" for a head).
func hop(s txn.Stored) (id, op, next string, err error) {
	if id, err = s.ID(); err != nil {
		return
	}
	if op, err = s.Operation(); err != nil {
		return
	}
	n, err := s.Inputs()
	for i := 0; i < n && err == nil; i++ {
		var ref txn.OutputRef
		var spends bool
		if ref, spends, err = s.Spends(i); spends {
			return id, op, ref.TxID, err
		}
	}
	return id, op, "", err
}

func short(s string) string {
	if len(s) <= 8 {
		return s
	}
	return s[:8] + "..."
}
