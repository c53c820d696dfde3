package txn

import (
	"fmt"
	"slices"
)

// Stored reads the fields of a transaction document in place: a
// document the store holds (docstore.Borrow) or a transaction's own
// (SharedDoc). Each accessor checks the one field it reads the way
// FromStoredDoc decodes it and returns the value the decoder would,
// without building the transaction; lists of keys are the document's
// own (Keys) and a free-form map is the stored one. The document is
// read-only. A field the decoder would refuse is an error, wrapped as
// FromStoredDoc wraps it; a field the reader does not ask about is not
// checked, so a document FromStoredDoc refuses may still answer.
//
// The zero Stored reads an empty document.
type Stored struct{ doc map[string]any }

// ReadStored returns the in-place reader of doc.
func ReadStored(doc map[string]any) Stored { return Stored{doc} }

// Decode decodes the whole transaction (FromStoredDoc): for a caller
// that hands a transaction out, not one that reads a field.
func (s Stored) Decode() (*Transaction, error) { return FromStoredDoc(s.doc) }

// StoredOutput is one output read in place: its owners, its amount and
// the owners its shares came from, each as the decoder reads it.
type StoredOutput struct {
	Owners     Keys
	Amount     uint64
	PrevOwners Keys
}

func fieldError(k string, err error) error {
	return fmt.Errorf("txn: decode doc: %s: %w", k, err)
}

// ID is the transaction's id.
func (s Stored) ID() (string, error) { return s.str("id") }

// Operation is the transaction's operation.
func (s Stored) Operation() (string, error) { return s.str("operation") }

func (s Stored) str(k string) (string, error) {
	v, err := docString(s.doc[k])
	if err != nil {
		return "", fieldError(k, err)
	}
	return v, nil
}

// AssetID is Transaction.AssetID: the transaction's own id for a CREATE
// or a REQUEST, the linked asset's id otherwise.
func (s Stored) AssetID() (string, error) {
	op, err := s.Operation()
	if err != nil {
		return "", err
	}
	if op == OpCreate || op == OpRequest {
		return s.ID()
	}
	a, err := s.asset()
	if err != nil || a == nil {
		return "", err
	}
	id, err := docString(a["id"])
	if err != nil {
		return "", fieldError("asset", fmt.Errorf("id: %w", err))
	}
	return id, nil
}

// AssetData is the inline asset's data (Asset.Data), the stored map
// itself: nil when the transaction has no asset or its asset no data.
func (s Stored) AssetData() (map[string]any, error) {
	a, err := s.asset()
	if err != nil || a == nil {
		return nil, err
	}
	data, err := docMap(a["data"], true)
	if err != nil {
		return nil, fieldError("asset", fmt.Errorf("data: %w", err))
	}
	return data, nil
}

func (s Stored) asset() (map[string]any, error) {
	v, err := generic(s.doc["asset"])
	if err != nil {
		return nil, fieldError("asset", err)
	}
	switch x := v.(type) {
	case nil:
		return nil, nil
	case map[string]any:
		return x, nil
	}
	return nil, fieldError("asset", kindError(v, "asset"))
}

// Refs is the reference vector R.
func (s Stored) Refs() (Keys, error) {
	refs, err := docKeys(s.doc["refs"])
	if err != nil {
		return nil, fieldError("refs", err)
	}
	return refs, nil
}

// list is the object list under k, each element checked as docList
// checks it when it is read.
func (s Stored) list(k string) ([]any, error) {
	v, err := generic(s.doc[k])
	if err != nil {
		return nil, fieldError(k, err)
	}
	switch x := v.(type) {
	case nil:
		return nil, nil
	case []any:
		return x, nil
	}
	return nil, fieldError(k, kindError(v, k[:len(k)-1]+" list"))
}

// elem is element i of the object list under k: nil for a null
// element, which the decoder leaves a nil pointer.
func (s Stored) elem(k string, i int) (map[string]any, error) {
	list, err := s.list(k)
	if err != nil {
		return nil, err
	}
	if i < 0 || i >= len(list) {
		return nil, fieldError(k, fmt.Errorf("%d: out of range (%d elements)", i, len(list)))
	}
	e, err := generic(list[i])
	if err != nil {
		return nil, fieldError(k, err)
	}
	switch x := e.(type) {
	case nil:
		return nil, nil
	case map[string]any:
		return x, nil
	}
	return nil, fieldError(k, kindError(e, k[:len(k)-1]))
}

// Outputs is the number of outputs.
func (s Stored) Outputs() (int, error) {
	list, err := s.list("outputs")
	return len(list), err
}

// Output reads output i; a null output reads as the zero StoredOutput.
func (s Stored) Output(i int) (StoredOutput, error) {
	m, err := s.elem("outputs", i)
	if err != nil || m == nil {
		return StoredOutput{}, err
	}
	var o StoredOutput
	if o.Owners, err = docKeys(m["public_keys"]); err != nil {
		return StoredOutput{}, outputError(i, "public_keys", err)
	}
	if o.Amount, err = docAmount(m["amount"]); err != nil {
		return StoredOutput{}, outputError(i, "amount", err)
	}
	if o.PrevOwners, err = docKeys(m["prev_owners"]); err != nil {
		return StoredOutput{}, outputError(i, "prev_owners", err)
	}
	return o, nil
}

func outputError(i int, k string, err error) error {
	return fieldError("outputs", fmt.Errorf("%d: %s: %w", i, k, err))
}

// Inputs is the number of inputs.
func (s Stored) Inputs() (int, error) {
	list, err := s.list("inputs")
	return len(list), err
}

// Spends is the output input i spends (Input.Fulfills); ok is false
// when the input spends nothing or is null.
func (s Stored) Spends(i int) (ref OutputRef, ok bool, err error) {
	m, err := s.elem("inputs", i)
	if err != nil || m == nil {
		return OutputRef{}, false, err
	}
	r, err := refFromDoc(m["fulfills"])
	if err != nil {
		return OutputRef{}, false, fieldError("inputs", fmt.Errorf("%d: fulfills: %w", i, err))
	}
	if r == nil {
		return OutputRef{}, false, nil
	}
	return *r, true, nil
}

// OwnerSet is the sorted union of the outputs' owner keys, each key
// once; a null output owns nothing.
func (s Stored) OwnerSet() ([]string, error) {
	n, err := s.Outputs()
	if err != nil {
		return nil, err
	}
	var out []string
	for i := range n {
		o, err := s.Output(i)
		if err != nil {
			return nil, err
		}
		for j := range o.Owners {
			out = append(out, o.Owners.At(j))
		}
	}
	if out == nil {
		return []string{}, nil
	}
	slices.Sort(out)
	return slices.Compact(out), nil
}
