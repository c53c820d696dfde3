package keys

import (
	"fmt"
	"sort"
	"strings"
)

// MultiSig is the composite signature string ms_{i,j,k} of the formal
// model: a deterministic encoding of one signature per participating
// owner. A MultiSig over message m verifies iff at least Threshold of
// the listed public keys contributed valid signatures over m.
//
// The wire form is "ms:<threshold>:<pub1>=<sig1>,<pub2>=<sig2>,..." with
// entries sorted by public key so the encoding is canonical.
type MultiSig struct {
	Threshold int
	// Sigs maps base58 public key -> base58 signature.
	Sigs map[string]string
}

// SignMulti produces a MultiSig over msg from the given key pairs with
// the given threshold. Threshold 0 means "all signers required".
func SignMulti(msg []byte, threshold int, signers ...*KeyPair) *MultiSig {
	if threshold <= 0 {
		threshold = len(signers)
	}
	ms := &MultiSig{Threshold: threshold, Sigs: make(map[string]string, len(signers))}
	for _, kp := range signers {
		ms.Sigs[kp.PublicBase58()] = kp.Sign(msg)
	}
	return ms
}

// Signers returns the base58 public keys that contributed signatures,
// sorted for determinism.
func (m *MultiSig) Signers() []string {
	out := make([]string, 0, len(m.Sigs))
	for pub := range m.Sigs {
		out = append(out, pub)
	}
	sort.Strings(out)
	return out
}

// String renders the canonical wire form.
func (m *MultiSig) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ms:%d:", m.Threshold)
	for i, pub := range m.Signers() {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(pub)
		b.WriteByte('=')
		b.WriteString(m.Sigs[pub])
	}
	return b.String()
}

// ParseMultiSig parses the wire form produced by String.
func ParseMultiSig(s string) (*MultiSig, error) {
	rest, ok := strings.CutPrefix(s, "ms:")
	if !ok {
		return nil, fmt.Errorf("keys: multisig missing ms: prefix")
	}
	thrStr, body, ok := strings.Cut(rest, ":")
	if !ok {
		return nil, fmt.Errorf("keys: multisig missing threshold separator")
	}
	var thr int
	if _, err := fmt.Sscanf(thrStr, "%d", &thr); err != nil || thr <= 0 {
		return nil, fmt.Errorf("keys: multisig bad threshold %q", thrStr)
	}
	ms := &MultiSig{Threshold: thr, Sigs: make(map[string]string)}
	if body == "" {
		return ms, nil
	}
	for _, entry := range strings.Split(body, ",") {
		pub, sig, ok := strings.Cut(entry, "=")
		if !ok || pub == "" || sig == "" {
			return nil, fmt.Errorf("keys: multisig bad entry %q", entry)
		}
		ms.Sigs[pub] = sig
	}
	return ms, nil
}
