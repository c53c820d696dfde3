package txn

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"smartchaindb/internal/keys"
)

// --- the one fulfillment verifier, pinned to the reference -----------

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func cold(ts []*Transaction) []*Transaction {
	out := make([]*Transaction, len(ts))
	for i, t := range ts {
		if t != nil {
			out[i] = t.Clone()
		}
	}
	return out
}

// CheckVerifyDifferential pins the verifiers to the reference on ts,
// every run over cold clones: VerifyFulfillments gives each transaction
// the reference's verdict and error string, and VerifyFulfillmentsBatch
// at 1, 2 and 8 workers gives the reference batch's errors and its
// Tasks/Unique/DedupHits — also after VerifyFulfillmentsEarly has run
// over the batch, which the batch then counts as its own work. It
// returns the reference batch's accounting.
func CheckVerifyDifferential(t testing.TB, ts []*Transaction) BatchVerifyStats {
	t.Helper()
	wantErrs, want := RefVerifyFulfillmentsBatch(cold(ts))
	for i, c := range cold(ts) {
		if c == nil {
			continue
		}
		_, ref := RefVerifyFulfillments(c.Clone(), nil)
		if got := VerifyFulfillments(c); errString(got) != errString(ref) {
			t.Fatalf("tx %d (%.8s): VerifyFulfillments = %q, reference %q", i, c.ID, errString(got), errString(ref))
		}
	}
	for _, run := range []struct {
		workers int
		early   bool
	}{{1, false}, {2, false}, {8, false}, {1, true}, {2, true}} {
		workers, batch := run.workers, cold(ts)
		if run.early {
			VerifyFulfillmentsEarly(batch, workers)
		}
		errs, stats := VerifyFulfillmentsBatch(batch, workers)
		if stats != want {
			t.Fatalf("workers=%d early=%v: stats %+v, reference %+v", workers, run.early, stats, want)
		}
		if len(errs) != len(wantErrs) {
			t.Fatalf("workers=%d: %d failing IDs, reference %d: %v", workers, len(errs), len(wantErrs), errs)
		}
		for id, w := range wantErrs {
			if got := errString(errs[id]); got != w.Error() {
				t.Fatalf("workers=%d: tx %.8s error %q, reference %q", workers, id, got, w.Error())
			}
		}
	}
	return want
}

// fanIn is a k-input TRANSFER signed by one key: it signs its one
// payload k times, so it presents k equal (pub, sig) pairs.
func fanIn(t testing.TB, seed int64, k int) *Transaction {
	t.Helper()
	kp := keys.DeterministicKeyPair(seed)
	spends := make([]Spend, k)
	for i := range spends {
		spends[i] = Spend{Ref: OutputRef{TxID: fmt.Sprintf("fund-%d", seed), Index: i}, Owners: []string{kp.PublicBase58()}}
	}
	tr := NewTransfer("asset", spends, []*Output{{PublicKeys: []string{kp.PublicBase58()}, Amount: uint64(k)}}, nil)
	if err := Sign(tr, kp); err != nil {
		t.Fatal(err)
	}
	return tr
}

// multisigTransfer spends one output owned by every key in owners with
// a threshold-of-len(owners) multisig signed by all of them.
func multisigTransfer(t testing.TB, threshold int, owners ...*keys.KeyPair) *Transaction {
	t.Helper()
	pubs := make([]string, len(owners))
	for i, kp := range owners {
		pubs[i] = kp.PublicBase58()
	}
	tr := NewTransfer("ms-asset", []Spend{{Ref: OutputRef{TxID: "ms-fund", Index: 0}, Owners: pubs}},
		[]*Output{{PublicKeys: pubs[:1], Amount: 1}}, nil)
	tr.Inputs[0].Fulfillment = keys.SignMulti(tr.SigningPayload(), threshold, owners...).String()
	tr.SetID()
	return tr
}

// TestVerifyFanInDedup: a K-input fan-in signed by one key is K tasks,
// one unique pair and K-1 dedup hits — one ed25519 check.
func TestVerifyFanInDedup(t *testing.T) {
	const k = 16
	tr := fanIn(t, 51, k)
	st, err := verifyFulfillments(tr.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if want := (SigStats{Tasks: k, Unique: 1, DedupHits: k - 1}); st != want {
		t.Fatalf("fan-in accounting %+v, want %+v", st, want)
	}
	if got := CheckVerifyDifferential(t, []*Transaction{tr}); got.Sig != st {
		t.Fatalf("reference accounting %+v, verifier %+v", got.Sig, st)
	}
	checks := countChecks(t)
	if err := VerifyFulfillments(tr.Clone()); err != nil {
		t.Fatal(err)
	}
	if *checks != 1 {
		t.Fatalf("a %d-input fan-in made %d ed25519 checks, want 1", k, *checks)
	}
}

// countChecks counts the ed25519 checks the verifier makes until the
// test ends.
func countChecks(t *testing.T) *int {
	n := new(int)
	verifySig = func(sig, pub string, msg []byte) bool { *n++; return keys.Verify(sig, pub, msg) }
	t.Cleanup(func() { verifySig = keys.Verify })
	return n
}

// TestMultisigCostsOneCheckPerOwner: a k-owner multisig input costs k
// ed25519 checks; the reference path checks every owner and then
// tallies the threshold over the entries again — up to 2k.
func TestMultisigCostsOneCheckPerOwner(t *testing.T) {
	for k := 2; k <= 4; k++ {
		owners := make([]*keys.KeyPair, k)
		for i := range owners {
			owners[i] = keys.DeterministicKeyPair(int64(60 + i))
		}
		tr := multisigTransfer(t, k, owners...)
		checks := countChecks(t)
		if err := VerifyFulfillments(tr.Clone()); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		refChecks := 0
		count := func(sig, pub string, msg []byte) bool { refChecks++; return keys.Verify(sig, pub, msg) }
		if _, err := RefVerifyFulfillments(tr, count); err != nil {
			t.Fatalf("k=%d: reference: %v", k, err)
		}
		if *checks != k || refChecks != 2*k {
			t.Fatalf("k=%d: %d checks (want %d), reference %d (want %d)", k, *checks, k, refChecks, 2*k)
		}
	}
}

// TestVerifySameKeyDifferentTransactions: one key's signature is a
// verdict on one payload only. A second transaction of the same key
// carrying the first one's signature fails, and the two share no pair:
// no dedup across transactions.
func TestVerifySameKeyDifferentTransactions(t *testing.T) {
	a := fanIn(t, 52, 1)
	b := fanIn(t, 52, 2)
	b.Inputs[1].Fulfillment = a.Inputs[0].Fulfillment
	errs, stats := VerifyFulfillmentsBatch([]*Transaction{a, b}, 2)
	if len(errs) != 1 || errs[b.ID] == nil {
		t.Fatalf("errs = %v, want only %.8s failing", errs, b.ID)
	}
	if want := (SigStats{Tasks: 3, Unique: 3}); stats.Sig != want {
		t.Fatalf("stats %+v, want %+v", stats.Sig, want)
	}
	CheckVerifyDifferential(t, []*Transaction{a, b})
}

// TestEarlyVerificationIsCountedOnce: a fan-in proved early is counted
// by the first batch that meets it as the verification it would have
// run (four tasks, three dedup hits) and by every later batch as a
// reuse, with no ed25519 check after the early one; VerifyFulfillments
// takes the early proof too. A forgery proved nothing early: the batch
// checks it again and reports it.
func TestEarlyVerificationIsCountedOnce(t *testing.T) {
	checks := countChecks(t)
	a := fanIn(t, 61, 4)
	VerifyFulfillmentsEarly([]*Transaction{a}, 2)
	if *checks != 1 {
		t.Fatalf("the early verification made %d ed25519 checks, want 1", *checks)
	}
	if _, stats := VerifyFulfillmentsBatch([]*Transaction{a}, 2); stats != (BatchVerifyStats{Sig: SigStats{Tasks: 4, Unique: 1, DedupHits: 3}}) {
		t.Fatalf("first batch after the early proof: %+v", stats)
	}
	if _, stats := VerifyFulfillmentsBatch([]*Transaction{a}, 2); stats != (BatchVerifyStats{Reused: 1}) {
		t.Fatalf("second batch: %+v", stats)
	}
	b := fanIn(t, 62, 2)
	VerifyFulfillmentsEarly([]*Transaction{b}, 1)
	if err := VerifyFulfillments(b); err != nil {
		t.Fatal(err)
	}
	if _, stats := VerifyFulfillmentsBatch([]*Transaction{b}, 1); stats != (BatchVerifyStats{Reused: 1}) {
		t.Fatalf("batch after VerifyFulfillments took the early proof: %+v", stats)
	}
	if *checks != 2 {
		t.Fatalf("%d ed25519 checks, want one per transaction", *checks)
	}
	forged := fanIn(t, 63, 2).Clone()
	forged.Inputs[1].Fulfillment = a.Inputs[0].Fulfillment
	VerifyFulfillmentsEarly([]*Transaction{forged}, 1)
	errs, stats := VerifyFulfillmentsBatch([]*Transaction{forged}, 1)
	if errs[forged.ID] == nil || stats.Reused != 0 || stats.Sig.Tasks != 2 {
		t.Fatalf("forgery after an early check: errs %v, stats %+v", errs, stats)
	}
}

// TestEarlyVerificationRacesBatches runs early verifications and
// batches over the same transactions at once, as validators sharing a
// process do: every transaction verifies, and no batch errs (the race
// gate covers the memo).
func TestEarlyVerificationRacesBatches(t *testing.T) {
	ts := make([]*Transaction, 16)
	for i := range ts {
		ts[i] = fanIn(t, int64(70+i), 3)
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if g%2 == 0 {
				VerifyFulfillmentsEarly(ts, 2)
			} else if errs, _ := VerifyFulfillmentsBatch(ts, 2); len(errs) != 0 {
				t.Errorf("batch errs %v", errs)
			}
		}()
	}
	wg.Wait()
	for _, tx := range ts {
		if err := VerifyFulfillments(tx); err != nil {
			t.Fatal(err)
		}
	}
}

func TestVerifyFulfillmentsBatchEmpty(t *testing.T) {
	for _, batch := range [][]*Transaction{nil, {nil}} {
		errs, stats := VerifyFulfillmentsBatch(batch, 4)
		if len(errs) != 0 || stats != (BatchVerifyStats{}) {
			t.Fatalf("batch %v: errs=%v stats=%+v", batch, errs, stats)
		}
	}
}

// TestVerifyFulfillmentsRandomizedDifferential pins the verifiers to
// the reference over a randomized mix of valid fan-ins and multisigs
// and their corruptions — a mangled signature string, a signature by
// another key, a signature over another payload, an undecodable owner
// key (the ID re-stamped, so the signature math runs), a dropped or
// extra multisig entry, a threshold the valid entries miss — and exact
// duplicates of earlier transactions.
func TestVerifyFulfillmentsRandomizedDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	signers := make([]*keys.KeyPair, 6)
	for i := range signers {
		signers[i] = keys.DeterministicKeyPair(int64(100 + i))
	}
	var ts []*Transaction
	for i := 0; i < 120; i++ {
		var tr *Transaction
		if rng.Intn(3) == 0 {
			k := 2 + rng.Intn(3)
			tr = multisigTransfer(t, 1+rng.Intn(k), signers[:k]...)
		} else {
			tr = fanIn(t, int64(200+rng.Intn(4)), 1+rng.Intn(4))
		}
		tr = tr.Clone() // cold, so it may be edited
		in := tr.Inputs[rng.Intn(len(tr.Inputs))]
		switch rng.Intn(8) {
		case 0:
			in.Fulfillment = in.Fulfillment[:len(in.Fulfillment)-1] + "1"
		case 1:
			in.Fulfillment = signers[rng.Intn(len(signers))].Sign(tr.SigningPayload())
		case 2:
			in.Fulfillment = signers[0].Sign([]byte("another payload"))
		case 3:
			in.OwnersBefore = append([]string{"!!!not-base58!!!"}, in.OwnersBefore[1:]...)
			tr.SetID()
		case 4:
			if ms, err := keys.ParseMultiSig(in.Fulfillment); err == nil {
				if rng.Intn(2) == 0 {
					delete(ms.Sigs, in.OwnersBefore[0])
				} else {
					ms.Sigs[signers[5].PublicBase58()] = signers[5].Sign(tr.SigningPayload())
				}
				in.Fulfillment = ms.String()
			}
		case 6:
			if ms, err := keys.ParseMultiSig(in.Fulfillment); err == nil {
				ms.Sigs[signers[5].PublicBase58()] = signers[5].Sign([]byte("another payload"))
				ms.Threshold = len(ms.Sigs) - rng.Intn(2)
				in.Fulfillment = ms.String()
			}
		case 5:
			if len(ts) > 0 {
				tr = ts[rng.Intn(len(ts))]
			}
		}
		ts = append(ts, tr)
	}
	st := CheckVerifyDifferential(t, ts)
	if st.Sig.DedupHits == 0 {
		t.Fatalf("no dedup hits on a fan-in mix: %+v", st)
	}
}

// FuzzVerifyFulfillments fuzzes the fulfillment strings and the
// previous owners of a signed transaction — what clients send, and
// what keys.ParseMultiSig parses. On any edit the verifiers must not
// panic, and VerifyFulfillments, the batch and the reference must give
// the same verdict and the same error string. restamp re-derives the ID
// after the edit, so the signature math runs instead of the ID check
// failing first.
func FuzzVerifyFulfillments(f *testing.F) {
	f.Add(false, uint8(0), "", "", false, false)
	f.Add(true, uint8(0), "", "", false, false)
	f.Add(false, uint8(2), "ms:1:x=y", "", false, true)
	f.Add(true, uint8(0), "ms:2:", "a,b", true, true)
	f.Add(false, uint8(0), "", "a,b", true, true)
	a, b, c := keys.DeterministicKeyPair(71), keys.DeterministicKeyPair(72), keys.DeterministicKeyPair(73)
	fan := fanIn(f, 70, 4)
	multi := multisigTransfer(f, 2, a, b, c)
	f.Fuzz(func(t *testing.T, useMulti bool, input uint8, fulfillment, owners string, setOwners, restamp bool) {
		tr := fan.Clone()
		if useMulti {
			tr = multi.Clone()
		}
		in := tr.Inputs[int(input)%len(tr.Inputs)]
		if fulfillment != "" {
			in.Fulfillment = fulfillment
		}
		if setOwners {
			in.OwnersBefore = nil
			if owners != "" {
				in.OwnersBefore = strings.Split(owners, ",")
			}
		}
		if restamp {
			tr.SetID()
		}
		CheckVerifyDifferential(t, []*Transaction{tr, tr})
	})
}

// --- cost ------------------------------------------------------------

// admissionBatch is a 64-transaction admission batch of 4-input
// fan-ins, each signed by its own key — the transfer_fanin shape.
func admissionBatch(b testing.TB) []*Transaction {
	ts := make([]*Transaction, 64)
	for i := range ts {
		ts[i] = fanIn(b, int64(300+i), 4)
		ts[i].SigningPayload() // memoize the payload, as decoding and the ID check do
	}
	return ts
}

// forget drops the memoized verdicts, keeping the payloads.
func forget(ts []*Transaction) {
	for _, t := range ts {
		if m := t.memo.Load(); m != nil {
			m.verified.Store(false)
		}
	}
}

func BenchmarkVerifyFulfillmentsBatch(b *testing.B) {
	ts := admissionBatch(b)
	b.ReportAllocs()
	for b.Loop() {
		forget(ts)
		if errs, _ := VerifyFulfillmentsBatch(ts, 2); len(errs) != 0 {
			b.Fatal(errs)
		}
	}
}

// TestVerifyFulfillmentsBatchAllocationCeiling pins what the batch
// verifier allocates over BenchmarkVerifyFulfillmentsBatch's batch,
// payloads memoized: its own bookkeeping, each transaction's pair
// list, and the base58 decodes of each distinct pair's key and
// signature (most of it: math/big).
func TestVerifyFulfillmentsBatchAllocationCeiling(t *testing.T) {
	if raceEnabled || tripwireEnabled {
		t.Skip("allocation counts are not meaningful under the race detector or the tripwire")
	}
	ts := admissionBatch(t)
	for workers, ceiling := range map[int]float64{1: 773, 2: 777} {
		allocs := testing.AllocsPerRun(5, func() {
			forget(ts)
			VerifyFulfillmentsBatch(ts, workers)
		})
		if allocs > ceiling {
			t.Errorf("workers=%d: %.0f allocs per 64-transaction batch, ceiling %.0f", workers, allocs, ceiling)
		}
	}
}
