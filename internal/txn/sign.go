package txn

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"smartchaindb/internal/keys"
)

// Sign fulfills every input of the transaction with signatures from the
// supplied key pairs and stamps the transaction ID. Each input needs a
// signature from every key listed in its OwnersBefore; signers not
// relevant to an input are ignored. Sign must be called after the
// transaction is otherwise complete — any later mutation invalidates
// both the signatures and the ID (re-signing is always safe: Sign
// drops every derived value first, so the payload reflects the current
// content). Like SetID, it runs before the transaction is shared.
func Sign(t *Transaction, signers ...*keys.KeyPair) error {
	t.memo.Store(nil)
	byPub := make(map[string]*keys.KeyPair, len(signers))
	for _, kp := range signers {
		byPub[kp.PublicBase58()] = kp
	}
	payload := t.SigningPayload()
	for i, in := range t.Inputs {
		if len(in.OwnersBefore) == 0 {
			return fmt.Errorf("txn: input %d has no owners_before", i)
		}
		need := make([]*keys.KeyPair, 0, len(in.OwnersBefore))
		for _, pub := range in.OwnersBefore {
			kp, ok := byPub[pub]
			if !ok {
				return fmt.Errorf("txn: input %d: no private key for owner %s", i, abbrev(pub))
			}
			need = append(need, kp)
		}
		if len(need) == 1 {
			in.Fulfillment = need[0].Sign(payload)
		} else {
			in.Fulfillment = keys.SignMulti(payload, len(need), need...).String()
		}
	}
	t.SetID()
	return nil
}

// VerifyFulfillments checks validation condition C(5) shared by all
// types: for every input, verify(s_i, pb_i, m_i) must hold. It also
// re-verifies the transaction ID so a tampered payload fails closed.
// A successful verdict is memoized on the transaction (see cache.go),
// so re-running the condition during block validation after batch
// admission already proved it costs O(1).
func VerifyFulfillments(t *Transaction) error {
	if t.sigVerified() {
		return nil
	}
	if t.sigEarly() != nil {
		t.cell().verified.Store(true)
		return nil
	}
	_, err := verifyFulfillments(t)
	return err
}

// SigStats is the signature accounting of a verification.
type SigStats struct {
	// Tasks is the number of signatures presented by the inputs
	// checked — every input of a passing transaction, those up to the
	// failing one otherwise: one per single-signature input, one per
	// multisig entry. A fulfillment that does not parse presents none.
	Tasks int
	// Unique is the number of distinct (pub, sig) pairs among them —
	// each costs at most one ed25519 check.
	Unique int
	// DedupHits is Tasks - Unique: signatures answered by an equal
	// pair of the same transaction.
	DedupHits int
}

// verifyFulfillments is VerifyFulfillments past the memo lookup,
// returning the signature accounting. A transaction signs one payload,
// so within it equal (pub, sig) pairs — a K-input fan-in signed by one
// key presents K — are one check: each distinct pair is verified at
// most once. Across transactions no pair repeats: an ID is the SHA3 of
// the signing payload, so two transactions with different IDs never
// sign the same bytes.
func verifyFulfillments(t *Transaction) (SigStats, error) {
	stats, err := checkFulfillments(t)
	if err == nil {
		t.cell().verified.Store(true)
	}
	return stats, err
}

// checkFulfillments is verifyFulfillments without the memo.
func checkFulfillments(t *Transaction) (SigStats, error) {
	if !t.VerifyID() {
		return SigStats{}, &ValidationError{Op: t.Operation, Reason: "transaction id does not match payload"}
	}
	payload := t.SigningPayload()
	var pairs sigPairs
	for i, in := range t.Inputs {
		if err := pairs.verifyInput(in, payload); err != nil {
			return pairs.stats(), &ValidationError{Op: t.Operation, Reason: fmt.Sprintf("input %d: %v", i, err)}
		}
	}
	return pairs.stats(), nil
}

// sigPairs holds a transaction's signatures: every one presented so
// far (tasks) and the distinct (pub, sig) pairs among them with each
// one's verdict once checked. A transaction presents few distinct
// pairs, so a scan beats a map.
type sigPairs struct {
	tasks    int
	distinct []sigPair
}

type sigPair struct {
	pub, sig string
	checked  bool
	ok       bool
}

// verifyInput checks one input's fulfillment: a single signature by
// its one previous owner, or a multisig in which every previous owner
// signed and whose valid entries meet its threshold.
func (p *sigPairs) verifyInput(in *Input, payload []byte) error {
	if in.Fulfillment == "" {
		return errors.New("missing fulfillment")
	}
	if !strings.HasPrefix(in.Fulfillment, "ms:") {
		if len(in.OwnersBefore) != 1 {
			return fmt.Errorf("single signature but %d owners", len(in.OwnersBefore))
		}
		pub := in.OwnersBefore[0]
		if !p.valid(p.add(pub, in.Fulfillment), payload) {
			return fmt.Errorf("invalid signature from owner %s", abbrev(pub))
		}
		return nil
	}
	ms, err := keys.ParseMultiSig(in.Fulfillment)
	if err != nil {
		return err
	}
	entry := make(map[string]int, len(ms.Sigs)) // pub → pair index
	for pub, sig := range ms.Sigs {
		entry[pub] = p.add(pub, sig)
	}
	for _, pub := range in.OwnersBefore {
		e, ok := entry[pub]
		if !ok || !p.valid(e, payload) {
			return fmt.Errorf("missing or invalid signature from owner %s", abbrev(pub))
		}
	}
	valid := 0
	for _, e := range entry {
		if valid == ms.Threshold {
			break
		}
		if p.valid(e, payload) {
			valid++
		}
	}
	if valid < ms.Threshold {
		return errors.New("multisig threshold not met")
	}
	return nil
}

// add records one presented signature and returns its pair's index.
func (p *sigPairs) add(pub, sig string) int {
	p.tasks++
	for i, e := range p.distinct {
		if e.pub == pub && e.sig == sig {
			return i
		}
	}
	p.distinct = append(p.distinct, sigPair{pub: pub, sig: sig})
	return len(p.distinct) - 1
}

// valid reports whether pair i verifies over payload, checking it on
// first ask only.
func (p *sigPairs) valid(i int, payload []byte) bool {
	e := &p.distinct[i]
	if !e.checked {
		e.checked, e.ok = true, verifySig(e.sig, e.pub, payload)
	}
	return e.ok
}

// verifySig is the ed25519 check every fulfillment comes down to;
// tests count the checks a verification makes through it.
var verifySig = keys.Verify

func (p *sigPairs) stats() SigStats {
	return SigStats{Tasks: p.tasks, Unique: len(p.distinct), DedupHits: p.tasks - len(p.distinct)}
}

// BatchVerifyStats reports what one VerifyFulfillmentsBatch run did.
type BatchVerifyStats struct {
	// Reused counts transactions skipped entirely because their
	// verdict was already memoized from an earlier verification.
	Reused int
	// Sig sums the signature accounting of the transactions verified,
	// and of those an early verification proved that no batch had
	// counted (VerifyFulfillmentsEarly).
	Sig SigStats
}

// VerifyFulfillmentsBatch verifies the fulfillments of a whole
// admission batch: VerifyFulfillments on each transaction, the
// transactions spread over up to workers goroutines (workers <= 1:
// one after another on the caller's). Verdicts, error strings and
// memoized successes are VerifyFulfillments'; the errs map carries an
// entry only for failing transaction IDs, and when several
// transactions of the batch share an ID the first failing one's error
// stands.
func VerifyFulfillmentsBatch(ts []*Transaction, workers int) (errs map[string]error, stats BatchVerifyStats) {
	// Reuse is decided before any verification starts, so a
	// transaction listed twice is verified twice and the accounting
	// does not depend on which worker finishes first.
	work := make([]*Transaction, 0, len(ts))
	for _, t := range ts {
		if t == nil {
			continue
		}
		if t.sigVerified() {
			stats.Reused++
			continue
		}
		if early := t.sigEarly(); early != nil {
			// Proved ahead of this batch and counted by none: the
			// batch counts it as the verification it would have run.
			if t.cell().verified.CompareAndSwap(false, true) {
				stats.Sig.Tasks += early.Tasks
				stats.Sig.Unique += early.Unique
				stats.Sig.DedupHits += early.DedupHits
			} else {
				stats.Reused++
			}
			continue
		}
		work = append(work, t)
	}
	sigs := make([]SigStats, len(work))
	errAt := make([]error, len(work))
	forEach(len(work), workers, func(i int) {
		sigs[i], errAt[i] = verifyFulfillments(work[i])
	})
	errs = make(map[string]error)
	for i, t := range work {
		stats.Sig.Tasks += sigs[i].Tasks
		stats.Sig.Unique += sigs[i].Unique
		stats.Sig.DedupHits += sigs[i].DedupHits
		if _, seen := errs[t.ID]; !seen && errAt[i] != nil {
			errs[t.ID] = errAt[i]
		}
	}
	return errs, stats
}

// VerifyFulfillmentsEarly proves the fulfillments and ID of each
// transaction ahead of the batch that will count them, on up to workers
// goroutines: a success is memoized for VerifyFulfillments and for
// VerifyFulfillmentsBatch, which counts it, once, as the verification
// it would have run (BatchVerifyStats). A transaction already proved
// is skipped; a failure is kept nowhere, so the verification that
// counts runs again and reports it. Two early verifications of one
// transaction may race: both prove it and one memo stands.
func VerifyFulfillmentsEarly(ts []*Transaction, workers int) {
	work := make([]*Transaction, 0, len(ts))
	for _, t := range ts {
		if t != nil && !t.sigVerified() && t.sigEarly() == nil {
			work = append(work, t)
		}
	}
	forEach(len(work), workers, func(i int) {
		if stats, err := checkFulfillments(work[i]); err == nil {
			work[i].cell().early.CompareAndSwap(nil, &stats)
		}
	})
}

// forEach calls fn(i) for every i < n on up to workers goroutines;
// workers <= 1 calls them in order on the caller's goroutine.
func forEach(n, workers int, fn func(i int)) {
	workers = min(workers, n)
	if workers <= 1 {
		for i := range n {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

func abbrev(s string) string {
	if len(s) <= 8 {
		return s
	}
	return s[:8] + "..."
}
