package txn

import (
	"encoding/json"
	"fmt"
)

// The JSON round trips that ToDoc, FromDoc, SigningPayload and
// MarshalCanonical used to be, kept as the reference the direct codec
// is pinned to (codec_test.go, in the external test package because it
// draws its corpus from internal/workload, which imports this one).

// RefToDoc is the old ToDoc: marshal the struct, parse the bytes.
func RefToDoc(t *Transaction) (map[string]any, error) {
	raw, err := json.Marshal(t)
	if err != nil {
		return nil, fmt.Errorf("txn: marshal: %w", err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("txn: unmarshal: %w", err)
	}
	return doc, nil
}

// RefFromDoc is the old FromDoc — marshal the document, parse the
// bytes into the struct — followed by the one rule the direct decoder
// adds on purpose: no amount or share count above MaxAmount.
func RefFromDoc(doc map[string]any) (*Transaction, error) {
	raw, err := json.Marshal(doc)
	if err != nil {
		return nil, fmt.Errorf("txn: encode doc: %w", err)
	}
	var t Transaction
	if err := json.Unmarshal(raw, &t); err != nil {
		return nil, fmt.Errorf("txn: decode doc: %w", err)
	}
	if t.Asset != nil && t.Asset.Shares > MaxAmount {
		return nil, fmt.Errorf("txn: decode doc: shares %d above 2^53", t.Asset.Shares)
	}
	for _, o := range t.Outputs {
		if o != nil && o.Amount > MaxAmount {
			return nil, fmt.Errorf("txn: decode doc: amount %d above 2^53", o.Amount)
		}
	}
	return &t, nil
}

// RefMarshalCanonical is the old uncached MarshalCanonical.
func RefMarshalCanonical(t *Transaction) ([]byte, error) {
	doc, err := RefToDoc(t)
	if err != nil {
		return nil, err
	}
	return CanonicalizeDoc(doc), nil
}

// RefSigningPayload is the old uncached SigningPayload: the document
// with the ID zeroed and children and fulfillments deleted.
func RefSigningPayload(t *Transaction) ([]byte, error) {
	doc, err := RefToDoc(t)
	if err != nil {
		return nil, err
	}
	doc["id"] = ""
	delete(doc, "children")
	if ins, ok := doc["inputs"].([]any); ok {
		for _, in := range ins {
			if m, ok := in.(map[string]any); ok {
				delete(m, "fulfillment")
			}
		}
	}
	return CanonicalizeDoc(doc), nil
}

// RaceEnabled lets the external test package skip allocation counts
// under the race detector.
const RaceEnabled = raceEnabled
