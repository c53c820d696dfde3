package txn

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"smartchaindb/internal/keys"
)

// --- canonical encoder: differential against encoding/json ----------

// randomDoc builds a JSON-safe document exercising nesting, arrays,
// every scalar class, awkward floats, and strings that hit every
// escaping branch.
func randomDoc(rng *rand.Rand, depth int) map[string]any {
	doc := make(map[string]any)
	n := 1 + rng.Intn(6)
	for i := 0; i < n; i++ {
		doc[randomKey(rng)] = randomValue(rng, depth)
	}
	return doc
}

func randomKey(rng *rand.Rand) string {
	keys := []string{"a", "B", "zz", "key_1", "ключ", "k<&>", "line\nbreak", "", "\x00ctl", "emoji🙂"}
	return keys[rng.Intn(len(keys))] + fmt.Sprint(rng.Intn(4))
}

func randomValue(rng *rand.Rand, depth int) any {
	if depth > 0 && rng.Float64() < 0.3 {
		if rng.Float64() < 0.5 {
			return randomDoc(rng, depth-1)
		}
		n := rng.Intn(4)
		arr := make([]any, n)
		for i := range arr {
			arr[i] = randomValue(rng, depth-1)
		}
		return arr
	}
	switch rng.Intn(6) {
	case 0:
		return nil
	case 1:
		return rng.Float64() < 0.5
	case 2:
		return randomString(rng)
	case 3: // awkward floats: huge, tiny, negative zero boundary, integral
		floats := []float64{0, 1, -1, 3.14, 1e-7, 2e-7, 1e21, 9.99e20, -1e-9,
			math.MaxFloat64, math.SmallestNonzeroFloat64, 1e6, 123456789.123}
		return floats[rng.Intn(len(floats))]
	case 4:
		return float64(rng.Int63n(1 << 53))
	default:
		return randomString(rng)
	}
}

func randomString(rng *rand.Rand) string {
	parts := []string{"plain", "with \"quotes\"", "back\\slash", "<script>&amp;", "tab\tnl\n",
		"\u2028sep\u2029", "high\uffff", "bad:\xff\xfe", "nul\x00", "ünïcødé", "🙂🙃"}
	out := ""
	for i := 0; i < 1+rng.Intn(3); i++ {
		out += parts[rng.Intn(len(parts))]
	}
	return out
}

// TestCanonicalizeMatchesEncodingJSON pins the hand-rolled encoder to
// json.Marshal byte for byte — both sort map keys, so the outputs must
// be identical, including HTML escaping, invalid-UTF-8 replacement,
// and float formatting.
func TestCanonicalizeMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 500; i++ {
		doc := randomDoc(rng, 3)
		want, err := json.Marshal(doc)
		if err != nil {
			t.Fatalf("doc %d: json.Marshal: %v", i, err)
		}
		got := CanonicalizeDoc(doc)
		if !bytes.Equal(got, want) {
			t.Fatalf("doc %d:\ncanonical: %s\njson:      %s", i, got, want)
		}
		// The append path must agree with the one-shot path and respect
		// an existing prefix.
		buf := AppendCanonicalDoc([]byte("prefix:"), doc)
		if !bytes.Equal(buf, append([]byte("prefix:"), want...)) {
			t.Fatalf("doc %d: append path diverged", i)
		}
	}
}

func TestCanonicalizeFloatPanicsOnNaN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("canonicalize(NaN) did not panic")
		}
	}()
	CanonicalizeDoc(map[string]any{"x": math.NaN()})
}

// --- canonical-bytes cache ------------------------------------------

func signedTransfer(t *testing.T, seed int64) (*Transaction, *keys.KeyPair) {
	t.Helper()
	kp := keys.DeterministicKeyPair(seed)
	tr := NewTransfer("a1",
		[]Spend{
			{Ref: OutputRef{TxID: "a1", Index: 0}, Owners: []string{kp.PublicBase58()}},
			{Ref: OutputRef{TxID: "a1", Index: 1}, Owners: []string{kp.PublicBase58()}},
		},
		[]*Output{{PublicKeys: []string{kp.PublicBase58()}, Amount: 2}}, nil)
	if err := Sign(tr, kp); err != nil {
		t.Fatalf("sign: %v", err)
	}
	return tr, kp
}

// TestCachedEncodingsStable: repeated calls return identical bytes and
// the memo actually serves them (same backing array on the second hit).
func TestCachedEncodingsStable(t *testing.T) {
	tr, _ := signedTransfer(t, 21)
	p1, p2 := tr.SigningPayload(), tr.SigningPayload()
	if !bytes.Equal(p1, p2) {
		t.Fatal("payload changed between calls")
	}
	c1, c2 := tr.MarshalCanonical(), tr.MarshalCanonical()
	if !bytes.Equal(c1, c2) {
		t.Fatal("canonical changed between calls")
	}
	if &c1[0] != &c2[0] {
		t.Fatal("second MarshalCanonical did not come from the memo")
	}
}

// TestSignInvalidatesMemo: the validate tests' pattern — mutate a
// signed transaction, re-Sign — must produce the new payload, not the
// memoized old one.
func TestSignInvalidatesMemo(t *testing.T) {
	tr, kp := signedTransfer(t, 22)
	oldID := tr.ID
	old := append([]byte(nil), tr.SigningPayload()...)
	tr.Outputs[0].Amount = 7
	if err := Sign(tr, kp); err != nil {
		t.Fatalf("re-sign: %v", err)
	}
	if bytes.Equal(tr.SigningPayload(), old) {
		t.Fatal("re-sign served the stale memoized payload")
	}
	if tr.ID == oldID {
		t.Fatal("re-sign kept the stale ID")
	}
	if err := VerifyFulfillments(tr); err != nil {
		t.Fatalf("re-signed tx fails verification: %v", err)
	}
}

// TestInvalidateAfterInPlaceMutation: Sign is the reset after an
// in-place edit — it drops the memo before anything else, so even a
// re-sign that fails (no key for the owner) leaves no verified verdict
// behind, and verification fails closed on the tampered content.
func TestInvalidateAfterInPlaceMutation(t *testing.T) {
	tr, _ := signedTransfer(t, 23)
	if err := VerifyFulfillments(tr); err != nil {
		t.Fatalf("pristine: %v", err)
	}
	tr.Outputs[0].Amount = 99
	if err := Sign(tr, keys.DeterministicKeyPair(230)); err == nil {
		t.Fatal("re-sign without the owner's key succeeded")
	}
	if err := VerifyFulfillments(tr); err == nil {
		t.Fatal("tampered tx verified after a re-sign dropped the memo")
	}
}

// TestCloneStartsCold: the tamper-detection pattern (clone, mutate,
// verify) must keep failing closed — a clone shares no memo with its
// source, even a verified one — while the source keeps its verdict.
func TestCloneStartsCold(t *testing.T) {
	tr, _ := signedTransfer(t, 24)
	if err := VerifyFulfillments(tr); err != nil {
		t.Fatalf("pristine: %v", err)
	}
	c := tr.Clone()
	if c.memo.Load() != nil {
		t.Fatal("Clone copied the memo cell")
	}
	c.Outputs[0].Amount = 99
	if err := VerifyFulfillments(c); err == nil {
		t.Fatal("mutated clone inherited the verified memo")
	}
	if err := VerifyFulfillments(tr); err != nil || tr.Outputs[0].Amount == 99 {
		t.Fatalf("editing the clone reached the source: %v", err)
	}
}

// TestVerifiedMemoSkipsRecheck: a second VerifyFulfillments on a
// verified transaction is served by the memo: it makes no ed25519
// check.
func TestVerifiedMemoSkipsRecheck(t *testing.T) {
	tr, _ := signedTransfer(t, 25)
	if err := VerifyFulfillments(tr); err != nil {
		t.Fatalf("first: %v", err)
	}
	if !tr.sigVerified() {
		t.Fatal("verdict not memoized")
	}
	checks := countChecks(t)
	if err := VerifyFulfillments(tr); err != nil {
		t.Fatalf("second: %v", err)
	}
	if *checks != 0 {
		t.Fatalf("the memoized verdict made %d ed25519 checks", *checks)
	}
}

// --- batched fulfillment verification -------------------------------

// batchCase builds transactions covering every branch of an input's
// check.
func batchCase(t *testing.T) []*Transaction {
	t.Helper()
	a := keys.DeterministicKeyPair(31)
	b := keys.DeterministicKeyPair(32)
	c := keys.DeterministicKeyPair(33)

	var ts []*Transaction
	// Valid multi-input single-sig (dedup target).
	tr1, _ := signedTransfer(t, 34)
	ts = append(ts, tr1)
	// Valid multisig (2 owners).
	m := NewTransfer("a2",
		[]Spend{{Ref: OutputRef{TxID: "a2", Index: 0}, Owners: []string{a.PublicBase58(), b.PublicBase58()}}},
		[]*Output{{PublicKeys: []string{c.PublicBase58()}, Amount: 1}}, nil)
	if err := Sign(m, a, b); err != nil {
		t.Fatalf("sign multisig: %v", err)
	}
	ts = append(ts, m)
	// Tampered payload (ID mismatch).
	bad := tr1.Clone()
	bad.Outputs[0].Amount = 42
	ts = append(ts, bad)
	// Wrong signer: clone a valid tx and splice in a signature by c.
	forged := tr1.Clone()
	forged.Inputs[0].Fulfillment = c.Sign(forged.SigningPayload())
	forged.Inputs[1].Fulfillment = forged.Inputs[0].Fulfillment
	ts = append(ts, forged)
	// Multisig missing one owner's signature.
	half := m.Clone()
	halfPayload := half.SigningPayload()
	half.Inputs[0].Fulfillment = keys.SignMulti(halfPayload, 2, a).String()
	ts = append(ts, half)
	// Single signature but multiple owners.
	multiOwner := tr1.Clone()
	multiOwner.Inputs[0].OwnersBefore = []string{a.PublicBase58(), b.PublicBase58()}
	ts = append(ts, multiOwner)
	// Missing fulfillment (the last of four failing transactions that
	// share tr1's ID: the batch reports the first one's error).
	miss := tr1.Clone()
	miss.Inputs[1].Fulfillment = ""
	ts = append(ts, miss)
	return ts
}

// TestVerifyFulfillmentsBatchDifferential pins the per-transaction
// verifier and the batch to the reference over every branch of an
// input's check (CheckVerifyDifferential: same verdicts, same error
// strings, same accounting, at 1, 2 and 8 workers), and checks that
// the batch memoizes its successes as the per-transaction path does.
func TestVerifyFulfillmentsBatchDifferential(t *testing.T) {
	base := batchCase(t)
	if st := CheckVerifyDifferential(t, base); st.Sig.DedupHits == 0 {
		t.Fatalf("no dedup hits on a multi-input batch: %+v", st)
	}
	fresh := cold(base)
	errs, _ := VerifyFulfillmentsBatch(fresh, 4)
	for _, tx := range fresh {
		if _, bad := errs[tx.ID]; bad {
			continue
		}
		if !tx.sigVerified() {
			t.Fatalf("passing tx %.8s not memoized", tx.ID)
		}
	}
}

// TestVerifyFulfillmentsBatchReusesVerdicts: already-verified
// transactions are skipped wholesale.
func TestVerifyFulfillmentsBatchReusesVerdicts(t *testing.T) {
	tr, _ := signedTransfer(t, 41)
	if err := VerifyFulfillments(tr); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	errs, stats := VerifyFulfillmentsBatch([]*Transaction{tr}, 2)
	if len(errs) != 0 {
		t.Fatalf("errs = %v", errs)
	}
	if stats.Reused != 1 || stats.Sig.Tasks != 0 {
		t.Fatalf("stats = %+v, want 1 reused / 0 tasks", stats)
	}
}

// TestMemoConcurrentReaders hammers one transaction's memo from many
// goroutines — payload reads, canonical reads, the shared document,
// the spend keys, the footprint and verification racing to publish
// each value first — and checks every reader saw the same bytes. Run
// under -race, this pins the publication.
func TestMemoConcurrentReaders(t *testing.T) {
	signed, _ := signedTransfer(t, 27)
	want := append([]byte(nil), signed.SigningPayload()...)
	tr := signed.Clone() // start everyone from a cold memo
	var docs [8]map[string]any
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				switch (g + i) % 6 {
				case 0:
					if !bytes.Equal(tr.SigningPayload(), want) {
						t.Error("payload diverged")
						return
					}
				case 1:
					tr.MarshalCanonical()
				case 2:
					docs[g] = tr.SharedDoc()
				case 3:
					if got := tr.Footprint().Spends; len(got) != 2 || got[1] != "utxo:a1:1" {
						t.Errorf("spend keys diverged: %v", got)
						return
					}
				case 4:
					if fp := tr.Footprint(); len(fp.Writes) != 3 || fp.Writes[0] != tr.ID || fp.Writes[2] != "utxo:a1:1" || len(fp.Reads) != 3 {
						t.Errorf("footprint diverged: %v %v", fp.Writes, fp.Reads)
						return
					}
				default:
					if err := VerifyFulfillments(tr); err != nil {
						t.Errorf("verify: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	// However the first builds raced, one document won and everyone
	// shares it.
	for g, doc := range docs {
		if !sameMap(doc, tr.SharedDoc()) {
			t.Errorf("goroutine %d holds a document of its own", g)
		}
	}

	// The first ask, raced head to head on cold clones: every racer
	// gets the one value published first.
	for round := range 64 {
		c := signed.Clone()
		start := make(chan struct{})
		var got [4]struct {
			doc     map[string]any
			payload []byte
			writes  []string
		}
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				got[g].doc = c.SharedDoc()
				got[g].payload = c.SigningPayload()
				got[g].writes = c.Footprint().Writes
			}()
		}
		close(start)
		wg.Wait()
		for g := range got {
			if !sameMap(got[g].doc, got[0].doc) || &got[g].payload[0] != &got[0].payload[0] || &got[g].writes[0] != &got[0].writes[0] {
				t.Fatalf("round %d: racer %d holds a value of its own", round, g)
			}
		}
	}
}

// --- the shared document and the spend keys --------------------------

func sameMap(a, b map[string]any) bool {
	return reflect.ValueOf(a).Pointer() == reflect.ValueOf(b).Pointer()
}

// TestSharedDocIsOneDocument: SharedDoc builds the document once and
// serves that one map until Sign or SetID resets it; ToDoc keeps
// handing out private documents, storing the document displaces no
// memoized encoding, and both reset points drop the document instead
// of editing it.
func TestSharedDocIsOneDocument(t *testing.T) {
	tr, kp := signedTransfer(t, 28)
	unstamped := tr.Clone() // cold, so its ID may still change
	unstamped.ID = "unstamped"
	canonical := tr.MarshalCanonical()
	doc := tr.SharedDoc()
	if !sameMap(doc, tr.SharedDoc()) {
		t.Fatal("the second SharedDoc built another document")
	}
	if &tr.MarshalCanonical()[0] != &canonical[0] {
		t.Fatal("storing the document displaced the memoized canonical bytes")
	}
	private := tr.ToDoc()
	if !reflect.DeepEqual(private, doc) {
		t.Fatalf("SharedDoc %v differs from ToDoc %v", doc, private)
	}
	private["outputs"].([]any)[0].(map[string]any)["amount"] = 99.0
	private["seq"] = 1.0
	if sameMap(private, doc) || !reflect.DeepEqual(doc, tr.ToDoc()) {
		t.Fatal("ToDoc handed out the shared document")
	}

	// Each reset point leaves the old document as it was and serves a
	// new one that reads the transaction as it now is.
	before := tr.ToDoc()
	for name, c := range map[string]struct {
		tx     *Transaction
		mutate func(tx *Transaction)
	}{
		"Sign": {tr, func(tx *Transaction) {
			tx.Outputs[0].Amount++
			if err := Sign(tx, kp); err != nil {
				t.Fatal(err)
			}
		}},
		// A document built before the ID is stamped must not outlive
		// the stamping.
		"SetID": {unstamped, func(tx *Transaction) { tx.SetID() }},
	} {
		old := c.tx.SharedDoc()
		oldCopy := cloneMap(old)
		c.mutate(c.tx)
		if !reflect.DeepEqual(old, oldCopy) {
			t.Fatalf("%s edited the shared document in place", name)
		}
		if got := c.tx.SharedDoc(); sameMap(got, old) || !reflect.DeepEqual(got, c.tx.ToDoc()) || got["id"] != c.tx.ID {
			t.Fatalf("%s left a stale document behind: %v", name, got)
		}
	}
	if reflect.DeepEqual(before, tr.ToDoc()) {
		t.Fatal("the mutation did not land")
	}
	if unstamped.ID == "unstamped" {
		t.Fatal("SetID stamped nothing")
	}
}

// TestSpendKeysAreBuiltOnce: one key string per spent output, the same
// strings on every call, a slice of the footprint's writes. The
// footprint covers the ID, so SetID drops the spend keys with it and
// the next ask builds equal ones; Sign drops them too. A transaction
// that spends nothing has none.
func TestSpendKeysAreBuiltOnce(t *testing.T) {
	tr, kp := signedTransfer(t, 29)
	fp := tr.Footprint()
	keys := fp.Spends
	refs := tr.SpentRefs()
	if len(keys) != len(refs) {
		t.Fatalf("%d spend keys for %d spent outputs", len(keys), len(refs))
	}
	for i, ref := range refs {
		if keys[i] != SpendKeyPrefix+ref.String() {
			t.Errorf("spend key %d = %q, want %q", i, keys[i], SpendKeyPrefix+ref.String())
		}
	}
	if &keys[0] != &fp.Writes[1] || cap(keys) != len(keys) {
		t.Fatal("the spend keys are not the writes after the ID")
	}
	if again := tr.Footprint().Spends; &again[0] != &keys[0] {
		t.Fatal("the second ask built the spend keys again")
	}
	if n := testing.AllocsPerRun(100, func() { _ = tr.Footprint().Spends }); n != 0 {
		t.Errorf("warm spend keys allocate %v times", n)
	}
	doc := tr.SharedDoc() // something for SetID to drop
	tr.SetID()
	if sameMap(doc, tr.SharedDoc()) {
		t.Fatal("SetID kept the document")
	}
	if again := tr.Footprint().Spends; &again[0] == &keys[0] || !slices.Equal(again, keys) {
		t.Fatalf("after SetID: %v (the old slice reads %v), want equal keys built again", again, keys)
	}
	tr.Inputs[0].Fulfills.Index = 7
	if err := Sign(tr, kp); err != nil {
		t.Fatal(err)
	}
	if got := tr.Footprint().Spends; got[0] != "utxo:a1:7" || keys[0] != "utxo:a1:0" {
		t.Fatalf("after Sign: %v (the old slice reads %v)", got, keys)
	}
	create := NewCreate("pk", nil, 1, nil)
	if create.Footprint().Spends != nil {
		t.Fatal("a transaction that spends nothing has spend keys")
	}
}

// TestSpentKeyIsTheSpendKeysSuffix: SpentKey(i) is the UTXO key of the
// output input i spends, the tail of that input's spend key (the same
// bytes, no new string), past an input that spends nothing; it is ""
// for that input.
func TestSpentKeyIsTheSpendKeysSuffix(t *testing.T) {
	signed, _ := signedTransfer(t, 31)
	tr := signed.Clone()
	tr.Inputs = append([]*Input{{OwnersBefore: []string{"pk"}}}, tr.Inputs...)
	spends := tr.Footprint().Spends
	if tr.SpentKey(0) != "" {
		t.Fatalf("SpentKey(0) = %q for an input that spends nothing", tr.SpentKey(0))
	}
	for i := 1; i < len(tr.Inputs); i++ {
		got := tr.SpentKey(i)
		if got != tr.Inputs[i].Fulfills.String() || unsafe.StringData(got) != unsafe.StringData(spends[i-1][len(SpendKeyPrefix):]) {
			t.Errorf("SpentKey(%d) = %q, want the tail of %q", i, got, spends[i-1])
		}
	}
	if n := testing.AllocsPerRun(100, func() { tr.SpentKey(2) }); n != 0 {
		t.Errorf("SpentKey allocates %v times", n)
	}
}

// TestFootprintKeysShareTheTransactionsStrings: the footprint's
// transaction keys are the ID strings the transaction holds and its
// spend keys are the ones Spends lists, so the memo retains slices,
// not new strings; only an auction-state key is built. It covers the
// ID, so SetID drops it.
func TestFootprintKeysShareTheTransactionsStrings(t *testing.T) {
	signed, _ := signedTransfer(t, 30)
	tr := signed.Clone() // cold, so it may still be edited
	tr.Refs = []string{"rfq"}
	same := func(a, b string) bool { return unsafe.StringData(a) == unsafe.StringData(b) }
	fp := tr.Footprint()
	w, r, spends := fp.Writes, fp.Reads, fp.Spends
	if len(w) != 4 || !same(w[0], tr.ID) || !same(w[1], spends[0]) || !same(w[2], spends[1]) || w[3] != RefKeyPrefix+"rfq" {
		t.Fatalf("writes %v: not the transaction's own strings", w)
	}
	if len(r) != 4 || !same(r[0], tr.Inputs[0].Fulfills.TxID) || !same(r[2], tr.Refs[0]) {
		t.Fatalf("reads %v: not the transaction's own strings", r)
	}
	if w2 := tr.Footprint().Writes; &w2[0] != &w[0] {
		t.Fatal("the second Footprint derived the footprint again")
	}
	u := signed.Clone()
	u.ID = "unstamped"
	u.Footprint()
	u.SetID()
	if w := u.Footprint().Writes; w[0] != u.ID || u.ID == "unstamped" {
		t.Fatalf("after SetID the footprint writes %q, the transaction is %q", w[0], u.ID)
	}
}

// --- allocation regression ------------------------------------------

// TestAppendCanonicalDocZeroAlloc pins the steady-state append path at
// zero allocations: warm pool, pre-sized buffer.
func TestAppendCanonicalDocZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector disables sync.Pool reuse; allocation count is meaningless")
	}
	doc := map[string]any{
		"operation": "TRANSFER",
		"amount":    float64(3),
		"nested":    map[string]any{"a": "x", "b": float64(2)},
		"list":      []any{"p", "q", float64(1)},
	}
	buf := AppendCanonicalDoc(nil, doc)
	buf = buf[:0]
	allocs := testing.AllocsPerRun(200, func() {
		buf = AppendCanonicalDoc(buf[:0], doc)
	})
	if allocs != 0 {
		t.Fatalf("AppendCanonicalDoc allocations = %v, want 0", allocs)
	}
}

// TestCachedSigningPayloadZeroAlloc pins the cache hit at zero
// allocations — the property that lets screen→verify→fingerprint share
// one encode.
func TestCachedSigningPayloadZeroAlloc(t *testing.T) {
	if tripwireEnabled {
		t.Skip("the tripwire encodes the transaction again on every memo hit")
	}
	tr, _ := signedTransfer(t, 51)
	tr.SigningPayload() // populate
	allocs := testing.AllocsPerRun(200, func() {
		tr.SigningPayload()
	})
	if allocs != 0 {
		t.Fatalf("cached SigningPayload allocations = %v, want 0", allocs)
	}
	tr.MarshalCanonical()
	allocs = testing.AllocsPerRun(200, func() {
		tr.MarshalCanonical()
	})
	if allocs != 0 {
		t.Fatalf("cached MarshalCanonical allocations = %v, want 0", allocs)
	}
}
