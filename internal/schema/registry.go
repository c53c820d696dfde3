package schema

import (
	"embed"
	"encoding/json"
	"fmt"
	"strings"
	"sync"

	"smartchaindb/internal/txn"
)

//go:embed schemas/*.json
var schemaFS embed.FS

var opFiles = map[string]string{
	txn.OpCreate:    "schemas/create.json",
	txn.OpTransfer:  "schemas/transfer.json",
	txn.OpRequest:   "schemas/request.json",
	txn.OpBid:       "schemas/bid.json",
	txn.OpReturn:    "schemas/return.json",
	txn.OpAcceptBid: "schemas/accept_bid.json",
	"WITHDRAW_BID":  "schemas/withdraw_bid.json",
}

// Registry maps operation names to compiled schemas and implements
// Algorithm 1 (validateT-schema) over incoming transaction documents.
// New transaction types can be added at runtime with Register — the
// extensibility point the declarative model promises.
type Registry struct {
	mu   sync.RWMutex
	byOp map[string]*Schema
}

// NewRegistry loads and compiles the embedded schemas for all native
// transaction types.
func NewRegistry() (*Registry, error) {
	docs, err := nativeSchemaDocs()
	if err != nil {
		return nil, err
	}
	r := &Registry{byOp: make(map[string]*Schema, len(docs))}
	for op, doc := range docs {
		s, err := Compile(doc)
		if err != nil {
			return nil, fmt.Errorf("schema: compile %s: %w", opFiles[op], err)
		}
		r.byOp[op] = s
	}
	return r, nil
}

// nativeSchemaDocs decodes the embedded schema of every native
// operation, each with the common definitions merged in.
func nativeSchemaDocs() (map[string]map[string]any, error) {
	common, err := readSchemaDoc("schemas/common.json")
	if err != nil {
		return nil, err
	}
	commonDefs, _ := common["definitions"].(map[string]any)

	docs := make(map[string]map[string]any, len(opFiles))
	for op, file := range opFiles {
		doc, err := readSchemaDoc(file)
		if err != nil {
			return nil, err
		}
		docs[op] = mergeDefinitions(doc, commonDefs)
	}
	return docs, nil
}

// readSchemaDoc decodes one embedded schema file.
func readSchemaDoc(file string) (map[string]any, error) {
	src, err := schemaFS.ReadFile(file)
	if err != nil {
		return nil, fmt.Errorf("schema: read %s: %w", file, err)
	}
	var doc map[string]any
	if err := json.Unmarshal(src, &doc); err != nil {
		return nil, fmt.Errorf("schema: decode %s: %w", file, err)
	}
	return doc, nil
}

// MustNewRegistry is NewRegistry that panics on failure; the embedded
// schemas are compiled into the binary, so failure is a build defect.
func MustNewRegistry() *Registry {
	r, err := NewRegistry()
	if err != nil {
		// invariant: the schemas are embedded at build time; one that does not compile is a build defect.
		panic(err)
	}
	return r
}

func mergeDefinitions(doc map[string]any, commonDefs map[string]any) map[string]any {
	defs, _ := doc["definitions"].(map[string]any)
	if defs == nil {
		defs = make(map[string]any, len(commonDefs))
	}
	for k, v := range commonDefs {
		if _, exists := defs[k]; !exists {
			defs[k] = v
		}
	}
	out := make(map[string]any, len(doc)+1)
	for k, v := range doc {
		out[k] = v
	}
	out["definitions"] = defs
	return out
}

// Register installs a schema for a new operation name. It refuses an
// operation already registered: a registered schema is never replaced.
func (r *Registry) Register(op string, s *Schema) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byOp[op]; ok {
		return fmt.Errorf("schema: register: operation %s is already registered", op)
	}
	r.byOp[op] = s
	return nil
}

// ForOperation returns the compiled schema for an operation.
func (r *Registry) ForOperation(op string) (*Schema, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.byOp[op]
	return s, ok
}

// ValidateDoc implements Algorithm 1: it dispatches the document to the
// schema for its operation, rejects unknown operations outright, and
// applies the language-key checks on asset data and metadata
// (validateTxObj / validateLanguageKey in the paper's pseudocode).
func (r *Registry) ValidateDoc(doc map[string]any) error {
	op, ok := doc["operation"].(string)
	if !ok {
		return &txn.SchemaError{Op: "?", Path: "$.operation", Msg: "missing or non-string operation"}
	}
	s, ok := r.ForOperation(op)
	if !ok {
		return &txn.SchemaError{Op: op, Path: "$.operation", Msg: fmt.Sprintf("unknown operation %q", op)}
	}
	if err := s.Validate(doc); err != nil {
		if v, ok := err.(Violation); ok {
			return &txn.SchemaError{Op: op, Path: v.Path, Msg: v.Msg}
		}
		return &txn.SchemaError{Op: op, Path: "$", Msg: err.Error()}
	}
	if asset, ok := doc["asset"].(map[string]any); ok {
		if data, ok := asset["data"].(map[string]any); ok {
			if f := checkKeys(data); f != nil {
				return &txn.SchemaError{Op: op, Path: f.path("$.asset.data"), Msg: f.msg}
			}
		}
	}
	if meta, ok := doc["metadata"].(map[string]any); ok {
		if f := checkKeys(meta); f != nil {
			return &txn.SchemaError{Op: op, Path: f.path("$.metadata"), Msg: f.msg}
		}
	}
	return nil
}

// ValidateTx runs ValidateDoc over a Transaction value — over its one
// shared document (txn.Transaction.SharedDoc), which the validators
// only read and the ledger later stores. The share counts are checked
// against the schemas' maximum on the struct first: the document
// carries them as float64, where 2^53+1 has already become 2^53 and
// would pass.
func (r *Registry) ValidateTx(t *txn.Transaction) error {
	if t.Asset != nil && t.Asset.Shares > txn.MaxAmount {
		return &txn.SchemaError{Op: t.Operation, Path: "$.asset.shares", Msg: fmt.Sprintf("%d > maximum %d", t.Asset.Shares, uint64(txn.MaxAmount))}
	}
	for i, o := range t.Outputs {
		if o != nil && o.Amount > txn.MaxAmount {
			return &txn.SchemaError{Op: t.Operation, Path: fmt.Sprintf("$.outputs[%d].amount", i), Msg: fmt.Sprintf("%d > maximum %d", o.Amount, uint64(txn.MaxAmount))}
		}
	}
	return r.ValidateDoc(t.SharedDoc())
}

// checkKeys rejects document keys the storage layer cannot index:
// empty keys and keys containing '$', '.', or NUL (the same constraint
// BigchainDB inherits from MongoDB), in maps nested under m and in
// lists of maps. Like Schema.Validate it reports the first offending
// key in sorted order and builds its path only once it has found one.
func checkKeys(m map[string]any) *failure {
	return leastFailing(m, checkKey)
}

func checkKey(k string, v any) *failure {
	if k == "" {
		return &failure{msg: "empty key"}
	}
	if strings.ContainsAny(k, "$.\x00") {
		return (&failure{msg: "key contains reserved character ($, ., or NUL)"}).at(k)
	}
	switch c := v.(type) {
	case map[string]any:
		if f := checkKeys(c); f != nil {
			return f.at(k)
		}
	case []any:
		for i, e := range c {
			if child, ok := e.(map[string]any); ok {
				if f := checkKeys(child); f != nil {
					return f.atIndex(i).at(k)
				}
			}
		}
	}
	return nil
}
