package txn

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"smartchaindb/internal/keys"
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

// RaceEnabled and TripwireEnabled let the external test package skip
// allocation counts under the race detector and the tripwire.
const (
	RaceEnabled     = raceEnabled
	TripwireEnabled = tripwireEnabled
)

// The fulfillment verifier as it was before it checked each distinct
// (pub, sig) pair of a transaction once: input by input, every
// multisig owner's signature verified, then the threshold tallied over
// the entries by verifying them again (keys.MultiSig.Verify, since
// deleted). Kept as the reference the one verifier and the batch are
// pinned to. check is the signature check it calls (nil: keys.Verify),
// so a test can count the ed25519 checks it makes.

// RefVerifyFulfillments is the reference per-transaction verdict,
// with the signature accounting the verifier reports: the signatures
// of each input checked, in order, up to and including a failing one
// (not one whose fulfillment does not parse), and their distinct
// (pub, sig) pairs. It reads no memo and memoizes nothing.
func RefVerifyFulfillments(t *Transaction, check func(sig, pub string, msg []byte) bool) (SigStats, error) {
	if check == nil {
		check = keys.Verify
	}
	var st SigStats
	if t.ID == "" || t.ID != t.ComputeID() {
		return st, &ValidationError{Op: t.Operation, Reason: "transaction id does not match payload"}
	}
	payload := t.SigningPayload()
	pairs := make(map[[2]string]bool)
	for i, in := range t.Inputs {
		sigs, err := refParseInput(in)
		if err == nil {
			for pub, sig := range sigs {
				pairs[[2]string{pub, sig}] = true
			}
			st.Tasks += len(sigs)
			st.Unique = len(pairs)
			st.DedupHits = st.Tasks - st.Unique
			err = refVerifyInput(in, payload, check)
		}
		if err != nil {
			return st, &ValidationError{Op: t.Operation, Reason: fmt.Sprintf("input %d: %v", i, err)}
		}
	}
	return st, nil
}

// refParseInput returns the signatures an input presents (pub → sig),
// or the error refVerifyInput fails it with before any signature math.
func refParseInput(in *Input) (map[string]string, error) {
	if in.Fulfillment == "" {
		return nil, fmt.Errorf("missing fulfillment")
	}
	if strings.HasPrefix(in.Fulfillment, "ms:") {
		ms, err := keys.ParseMultiSig(in.Fulfillment)
		if err != nil {
			return nil, err
		}
		return ms.Sigs, nil
	}
	if len(in.OwnersBefore) != 1 {
		return nil, fmt.Errorf("single signature but %d owners", len(in.OwnersBefore))
	}
	return map[string]string{in.OwnersBefore[0]: in.Fulfillment}, nil
}

func refVerifyInput(in *Input, payload []byte, check func(sig, pub string, msg []byte) bool) error {
	if in.Fulfillment == "" {
		return fmt.Errorf("missing fulfillment")
	}
	if strings.HasPrefix(in.Fulfillment, "ms:") {
		ms, err := keys.ParseMultiSig(in.Fulfillment)
		if err != nil {
			return err
		}
		// Every listed previous owner must have contributed a valid
		// signature.
		for _, pub := range in.OwnersBefore {
			sig, ok := ms.Sigs[pub]
			if !ok || !check(sig, pub, payload) {
				return fmt.Errorf("missing or invalid signature from owner %s", abbrev(pub))
			}
		}
		if !refMultiSigVerify(ms, payload, check) {
			return fmt.Errorf("multisig threshold not met")
		}
		return nil
	}
	if len(in.OwnersBefore) != 1 {
		return fmt.Errorf("single signature but %d owners", len(in.OwnersBefore))
	}
	if !check(in.Fulfillment, in.OwnersBefore[0], payload) {
		return fmt.Errorf("invalid signature from owner %s", abbrev(in.OwnersBefore[0]))
	}
	return nil
}

// refMultiSigVerify is the deleted keys.MultiSig.Verify.
func refMultiSigVerify(m *keys.MultiSig, msg []byte, check func(sig, pub string, msg []byte) bool) bool {
	if m == nil || m.Threshold <= 0 || len(m.Sigs) < m.Threshold {
		return false
	}
	valid := 0
	for pub, sig := range m.Sigs {
		if check(sig, pub, msg) {
			valid++
			if valid >= m.Threshold {
				return true
			}
		}
	}
	return false
}

// RefVerifyFulfillmentsBatch is the reference batch: the memoized
// transactions counted as reused, then RefVerifyFulfillments on each
// of the others in batch order, the accounting summed, and an ID's
// first failing verdict kept.
func RefVerifyFulfillmentsBatch(ts []*Transaction) (map[string]error, BatchVerifyStats) {
	errs := make(map[string]error)
	var stats BatchVerifyStats
	var work []*Transaction
	for _, t := range ts {
		if t == nil {
			continue
		}
		if t.sigVerified() {
			stats.Reused++
			continue
		}
		work = append(work, t)
	}
	for _, t := range work {
		st, err := RefVerifyFulfillments(t, nil)
		stats.Sig.Tasks += st.Tasks
		stats.Sig.Unique += st.Unique
		stats.Sig.DedupHits += st.DedupHits
		if _, seen := errs[t.ID]; err != nil && !seen {
			errs[t.ID] = err
		}
	}
	return errs, stats
}

// RefBatchTriples is the accounting of the deleted keys.VerifyBatch,
// which deduplicated (pub, sig, payload) triples across a whole batch:
// the signatures every transaction presents and the distinct triples
// among them. On a batch of transactions that all verify it equals the
// per-transaction sums exactly when no two transactions share a triple.
func RefBatchTriples(ts []*Transaction) (tasks, unique int) {
	seen := make(map[[3]string]bool)
	for _, t := range ts {
		payload := string(t.SigningPayload())
		for _, in := range t.Inputs {
			sigs, err := refParseInput(in)
			if err != nil {
				continue
			}
			for pub, sig := range sigs {
				tasks++
				seen[[3]string{pub, sig, payload}] = true
			}
		}
	}
	return tasks, len(seen)
}

// CanonicalizeDoc renders any JSON-safe document in the same canonical
// form as MarshalCanonical — sorted keys, no whitespace — so byte-wise
// comparisons and fingerprints over stored documents are stable.
func CanonicalizeDoc(doc map[string]any) []byte { return AppendCanonicalDoc(nil, doc) }

// OwnerSet is the sorted union of t's output owner keys, as the decoded
// transaction states it: the reference Stored.OwnerSet is pinned to. A
// null output (a nil *Output) owns nothing.
func (t *Transaction) OwnerSet() []string {
	set := make(map[string]struct{})
	for _, o := range t.Outputs {
		if o == nil {
			continue
		}
		for _, k := range o.PublicKeys {
			set[k] = struct{}{}
		}
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
