// Package txn implements the formal blockchain transaction model of the
// paper (Definition 1): a transaction is a complex object
// ⟨ID, OP, A, O, I, Ch, R⟩ with divisible assets, owner-controlled
// outputs, signature-fulfilled inputs, child transactions, and a
// reference vector. The package provides canonical serialization,
// SHA3-256 transaction identifiers, signing and verification, and
// builders for the native SmartchainDB transaction types.
package txn

import (
	"encoding/json"
	"slices"
	"strconv"
	"sync/atomic"
)

// Operation names — the reserved values 𝒪𝒫 of the formal model.
const (
	OpCreate    = "CREATE"
	OpTransfer  = "TRANSFER"
	OpRequest   = "REQUEST"
	OpBid       = "BID"
	OpReturn    = "RETURN"
	OpAcceptBid = "ACCEPT_BID"
)

// Version is the transaction format version stamped on every payload.
const Version = "2.0"

// Operations lists every native operation in registration order.
func Operations() []string {
	return []string{OpCreate, OpTransfer, OpRequest, OpBid, OpReturn, OpAcceptBid}
}

// Asset is a blockchain asset A = ⟨(k,v), amt⟩: a nested key-value
// document plus a non-negative number of shares. A CREATE transaction
// carries the asset data inline; every downstream transaction refers to
// the asset by the ID of its creating transaction.
type Asset struct {
	// ID is the asset identifier (the CREATE transaction's ID). Empty
	// for CREATE transactions, where the asset is defined inline.
	ID string `json:"id,omitempty"`
	// Data is the nested key-value description of the asset. Only set
	// on CREATE.
	Data map[string]any `json:"data,omitempty"`
	// Shares is the total number of divisible shares the asset holds.
	// Only meaningful on CREATE; downstream amounts live on outputs.
	Shares uint64 `json:"shares,omitempty"`
}

// MarshalJSON renders the two legal asset shapes: an asset link
// {"id": ...} for downstream operations, or an inline definition
// {"data": ..., "shares": n} where data is always present (null when
// the asset has no descriptive document), matching the schema's
// asset_inline/asset_link alternatives.
func (a *Asset) MarshalJSON() ([]byte, error) {
	if a.ID != "" {
		return json.Marshal(map[string]any{"id": a.ID})
	}
	doc := map[string]any{"data": a.Data}
	if a.Shares != 0 {
		doc["shares"] = a.Shares
	}
	return json.Marshal(doc)
}

// OutputRef identifies the k-th output of a transaction — the object a
// later input "spends".
type OutputRef struct {
	TxID  string `json:"transaction_id"`
	Index int    `json:"output_index"`
}

// String renders the reference as txid:index.
func (r OutputRef) String() string { return r.TxID + ":" + strconv.Itoa(r.Index) }

// Output is a transaction output object o = ⟨pb, amt, pb_prev⟩: the set
// of public keys that now control amt shares, plus the public keys of
// the previous owners (needed by ACCEPT_BID to route returns).
type Output struct {
	// PublicKeys are the base58 public keys of the new owners. More
	// than one key means joint (threshold-all) control.
	PublicKeys []string `json:"public_keys"`
	// Amount is the number of asset shares held by this output.
	Amount uint64 `json:"amount"`
	// PrevOwners are the base58 public keys of the owners this output's
	// shares came from (pb_prev in the model). Empty on CREATE.
	PrevOwners []string `json:"prev_owners,omitempty"`
}

// OutputFact is what chain state knows of one output: who controls
// it, how many shares it holds, of which asset, and which transaction
// spent it (empty while unspent). A spent output's record is a marker
// that keeps only the asset and the spender, so its fact has no owners
// and a zero amount.
type OutputFact struct {
	Owners  Keys
	Amount  uint64
	AssetID string
	SpentBy string
}

// Keys is a list of public keys read in place from a document: the
// document's own list, read-only, whose elements decode as an output's
// owner list does in FromStoredDoc.
type Keys []any

// At returns the i-th key.
func (k Keys) At(i int) string {
	s, _ := docString(k[i])
	return s
}

// Strings returns the keys as a list of their own.
func (k Keys) Strings() []string {
	if k == nil {
		return nil
	}
	out := make([]string, len(k))
	for i := range k {
		out[i] = k.At(i)
	}
	return out
}

// Contains reports whether pub is one of the keys.
func (k Keys) Contains(pub string) bool {
	for i := range k {
		if k.At(i) == pub {
			return true
		}
	}
	return false
}

// OutputFact returns the fact of t's i-th output as t's own document
// (SharedDoc) states it: unspent, held by its owners, of t's asset.
// An ACCEPT_BID output holds the asset of the bid its input spends,
// which only chain state resolves, so its AssetID is left empty.
func (t *Transaction) OutputFact(i int) (OutputFact, bool) {
	outs, _ := t.SharedDoc()["outputs"].([]any)
	if i < 0 || i >= len(outs) {
		return OutputFact{}, false
	}
	out, _ := outs[i].(map[string]any)
	asset := t.AssetID()
	if t.Operation == OpAcceptBid {
		asset = ""
	}
	return FactFromDoc(out["public_keys"], out["amount"], asset, nil)
}

// OwnedBy reports whether pub is one of the output's controlling keys.
func (o *Output) OwnedBy(pub string) bool {
	for _, k := range o.PublicKeys {
		if k == pub {
			return true
		}
	}
	return false
}

// Input is a transaction input object i = ⟨T'.o_b, ms⟩: a reference to
// the output being spent plus the fulfillment proving the spender
// controls it. CREATE inputs have no Fulfills reference.
type Input struct {
	// Fulfills is the output being spent; nil for CREATE/REQUEST inputs
	// that do not consume prior outputs.
	Fulfills *OutputRef `json:"fulfills,omitempty"`
	// OwnersBefore are the base58 public keys whose signatures the
	// fulfillment must carry (the owners of the spent output, or the
	// issuer for CREATE).
	OwnersBefore []string `json:"owners_before"`
	// Fulfillment is the signature string: either a single base58
	// ed25519 signature or a multi-signature wire string ("ms:...").
	Fulfillment string `json:"fulfillment,omitempty"`
}

// Transaction is the complex object of Definition 1.
type Transaction struct {
	// ID is the globally unique identifier: the lowercase hex SHA3-256
	// digest of the canonical unsigned payload.
	ID string `json:"id"`
	// Operation is OP ∈ 𝒪𝒫.
	Operation string `json:"operation"`
	// Asset is A.
	Asset *Asset `json:"asset"`
	// Outputs is O.
	Outputs []*Output `json:"outputs"`
	// Inputs is I.
	Inputs []*Input `json:"inputs"`
	// Children is Ch: the IDs of child transactions spawned by a nested
	// parent (filled in by the server at commit time for ACCEPT_BID).
	Children []string `json:"children,omitempty"`
	// Refs is R: the reference vector of transaction IDs this
	// transaction refers to without spending (e.g. a BID references its
	// REQUEST).
	Refs []string `json:"refs,omitempty"`
	// Metadata is arbitrary user metadata, queryable in the store.
	Metadata map[string]any `json:"metadata,omitempty"`
	// Version is the payload format version.
	Version string `json:"version"`

	// memo holds what is derived from the transaction, each value
	// computed once (see cache.go). Unexported: invisible to JSON,
	// never copied by Clone.
	memo atomic.Pointer[txMemo]
}

// Hash returns the transaction identifier, satisfying the consensus
// engine's Tx interface.
func (t *Transaction) Hash() string { return t.ID }

// AssetID resolves the asset an operation manipulates: the transaction's
// own ID for CREATE (the created asset), otherwise the linked asset ID.
func (t *Transaction) AssetID() string {
	if t.Operation == OpCreate || t.Operation == OpRequest {
		return t.ID
	}
	if t.Asset != nil {
		return t.Asset.ID
	}
	return ""
}

// OutputAmount sums the shares across all outputs.
func (t *Transaction) OutputAmount() uint64 {
	var sum uint64
	for _, o := range t.Outputs {
		sum += o.Amount
	}
	return sum
}

// SpentRefs returns the output references consumed by this transaction's
// inputs, skipping unanchored (CREATE-style) inputs.
func (t *Transaction) SpentRefs() []OutputRef {
	refs := make([]OutputRef, 0, len(t.Inputs))
	for _, in := range t.Inputs {
		if in.Fulfills != nil {
			refs = append(refs, *in.Fulfills)
		}
	}
	return refs
}

// HasRef reports whether id appears in the reference vector R.
func (t *Transaction) HasRef(id string) bool {
	for _, r := range t.Refs {
		if r == id {
			return true
		}
	}
	return false
}

// Clone returns a deep copy of the transaction. Stores hand out clones
// so callers cannot mutate committed state.
func (t *Transaction) Clone() *Transaction {
	if t == nil {
		return nil
	}
	c := &Transaction{
		ID:        t.ID,
		Operation: t.Operation,
		Version:   t.Version,
	}
	if t.Asset != nil {
		c.Asset = &Asset{ID: t.Asset.ID, Shares: t.Asset.Shares, Data: cloneMap(t.Asset.Data)}
	}
	// Nil stays nil and empty stays empty, at every level: the two
	// encode differently (null, []), and a clone must hash to its ID.
	if t.Outputs != nil {
		c.Outputs = make([]*Output, len(t.Outputs))
	}
	for i, o := range t.Outputs {
		if o != nil {
			c.Outputs[i] = &Output{PublicKeys: slices.Clone(o.PublicKeys), Amount: o.Amount, PrevOwners: slices.Clone(o.PrevOwners)}
		}
	}
	if t.Inputs != nil {
		c.Inputs = make([]*Input, len(t.Inputs))
	}
	for i, in := range t.Inputs {
		if in == nil {
			continue
		}
		ci := &Input{OwnersBefore: slices.Clone(in.OwnersBefore), Fulfillment: in.Fulfillment}
		if in.Fulfills != nil {
			ref := *in.Fulfills
			ci.Fulfills = &ref
		}
		c.Inputs[i] = ci
	}
	c.Children = slices.Clone(t.Children)
	c.Refs = slices.Clone(t.Refs)
	c.Metadata = cloneMap(t.Metadata)
	return c
}

func cloneMap(m map[string]any) map[string]any {
	if m == nil {
		return nil
	}
	out := make(map[string]any, len(m))
	for k, v := range m {
		out[k] = cloneValue(v)
	}
	return out
}

func cloneValue(v any) any {
	switch x := v.(type) {
	case map[string]any:
		return cloneMap(x)
	case []any:
		if x == nil {
			return x
		}
		out := make([]any, len(x))
		for i, e := range x {
			out[i] = cloneValue(e)
		}
		return out
	default:
		return v
	}
}
