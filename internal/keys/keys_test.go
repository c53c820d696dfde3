package keys

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestBase58RoundTrip(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{0},
		{0, 0, 0},
		{0, 0, 1},
		{255},
		{1, 2, 3, 4, 5},
		bytes.Repeat([]byte{0xff}, 64),
	}
	for _, c := range cases {
		enc := Base58Encode(c)
		dec, err := Base58Decode(enc)
		if err != nil {
			t.Fatalf("decode(%q): %v", enc, err)
		}
		if !bytes.Equal(dec, c) {
			t.Errorf("round trip %v -> %q -> %v", c, enc, dec)
		}
	}
}

func TestBase58RoundTripProperty(t *testing.T) {
	f := func(b []byte) bool {
		dec, err := Base58Decode(Base58Encode(b))
		return err == nil && bytes.Equal(dec, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBase58LeadingZeros(t *testing.T) {
	enc := Base58Encode([]byte{0, 0, 7})
	if !strings.HasPrefix(enc, "11") {
		t.Errorf("leading zeros not preserved: %q", enc)
	}
}

func TestBase58RejectsBadChars(t *testing.T) {
	for _, bad := range []string{"0", "O", "I", "l", "abc!"} {
		if _, err := Base58Decode(bad); err == nil {
			t.Errorf("Base58Decode(%q) should fail", bad)
		}
	}
}

func TestSignVerify(t *testing.T) {
	kp := MustGenerate()
	msg := []byte("a transaction payload")
	sig := kp.Sign(msg)
	if !Verify(sig, kp.PublicBase58(), msg) {
		t.Fatal("signature should verify")
	}
	if Verify(sig, kp.PublicBase58(), []byte("tampered")) {
		t.Error("tampered message should not verify")
	}
	other := MustGenerate()
	if Verify(sig, other.PublicBase58(), msg) {
		t.Error("wrong key should not verify")
	}
}

func TestVerifyGarbageInputs(t *testing.T) {
	kp := MustGenerate()
	if Verify("not-base58-!!", kp.PublicBase58(), []byte("m")) {
		t.Error("garbage signature should not verify")
	}
	if Verify(kp.Sign([]byte("m")), "short", []byte("m")) {
		t.Error("garbage public key should not verify")
	}
}

func TestDeterministicKeyPair(t *testing.T) {
	a := DeterministicKeyPair(42)
	b := DeterministicKeyPair(42)
	c := DeterministicKeyPair(43)
	if a.PublicBase58() != b.PublicBase58() {
		t.Error("same seed should give same key")
	}
	if a.PublicBase58() == c.PublicBase58() {
		t.Error("different seeds should give different keys")
	}
}

func TestDecodePublicKeyErrors(t *testing.T) {
	if _, err := DecodePublicKey("!!!"); err == nil {
		t.Error("bad base58 should fail")
	}
	if _, err := DecodePublicKey(Base58Encode([]byte{1, 2, 3})); err == nil {
		t.Error("wrong length should fail")
	}
}

// meetsThreshold is the threshold rule a multisig fulfillment must
// meet (txn's fulfillment verifier applies it, beside requiring every
// previous owner's signature): at least Threshold entries verify.
func meetsThreshold(ms *MultiSig, msg []byte) bool {
	valid := 0
	for pub, sig := range ms.Sigs {
		if Verify(sig, pub, msg) {
			valid++
		}
	}
	return valid >= ms.Threshold
}

func TestMultiSigThreshold(t *testing.T) {
	msg := []byte("escrow release")
	a, b, c := MustGenerate(), MustGenerate(), MustGenerate()
	ms := SignMulti(msg, 2, a, b, c)
	if !meetsThreshold(ms, msg) {
		t.Fatal("3 valid sigs should satisfy threshold 2")
	}
	// Remove one signature: still satisfied.
	delete(ms.Sigs, c.PublicBase58())
	if !meetsThreshold(ms, msg) {
		t.Fatal("2 valid sigs should satisfy threshold 2")
	}
	// Remove another: no longer satisfied.
	delete(ms.Sigs, b.PublicBase58())
	if meetsThreshold(ms, msg) {
		t.Fatal("1 valid sig should not satisfy threshold 2")
	}
}

func TestMultiSigDefaultThresholdAll(t *testing.T) {
	msg := []byte("m")
	a, b := MustGenerate(), MustGenerate()
	ms := SignMulti(msg, 0, a, b)
	if ms.Threshold != 2 {
		t.Fatalf("default threshold = %d, want 2", ms.Threshold)
	}
	if !meetsThreshold(ms, msg) {
		t.Fatal("all-signers multisig should verify")
	}
}

func TestMultiSigRejectsInvalidSignature(t *testing.T) {
	msg := []byte("m")
	a, b := MustGenerate(), MustGenerate()
	ms := SignMulti(msg, 2, a, b)
	// Corrupt b's signature by signing a different message.
	ms.Sigs[b.PublicBase58()] = b.Sign([]byte("other"))
	if meetsThreshold(ms, msg) {
		t.Fatal("threshold 2 with one bad signature should fail")
	}
}

func TestMultiSigWireRoundTrip(t *testing.T) {
	msg := []byte("wire")
	a, b := MustGenerate(), MustGenerate()
	ms := SignMulti(msg, 2, a, b)
	parsed, err := ParseMultiSig(ms.String())
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if !meetsThreshold(parsed, msg) {
		t.Error("parsed multisig should still verify")
	}
	if parsed.String() != ms.String() {
		t.Error("wire form should be canonical")
	}
}

func TestParseMultiSigErrors(t *testing.T) {
	for _, bad := range []string{"", "ms:", "ms:x:", "ms:0:a=b", "nope", "ms:2:noequals"} {
		if _, err := ParseMultiSig(bad); err == nil {
			t.Errorf("ParseMultiSig(%q) should fail", bad)
		}
	}
}

func TestReservedRegistry(t *testing.T) {
	r := NewReservedWithDefaults(7)
	esc := r.Escrow()
	if !r.IsReserved(esc.PublicBase58()) {
		t.Error("escrow key should be reserved")
	}
	admin, ok := r.Lookup(RoleAdmin)
	if !ok || !r.IsReserved(admin.PublicBase58()) {
		t.Error("admin key should be reserved")
	}
	user := MustGenerate()
	if r.IsReserved(user.PublicBase58()) {
		t.Error("fresh user key should not be reserved")
	}
}

func TestReservedReRegisterReplaces(t *testing.T) {
	r := NewReserved()
	first := DeterministicKeyPair(1)
	second := DeterministicKeyPair(2)
	r.Register(RoleEscrow, first)
	r.Register(RoleEscrow, second)
	if r.IsReserved(first.PublicBase58()) {
		t.Error("replaced key should no longer be reserved")
	}
	if !r.IsReserved(second.PublicBase58()) {
		t.Error("new key should be reserved")
	}
}

func TestReservedDeterministicAcrossNodes(t *testing.T) {
	a := NewReservedWithDefaults(99)
	b := NewReservedWithDefaults(99)
	if a.Escrow().PublicBase58() != b.Escrow().PublicBase58() {
		t.Error("two nodes with same seed must agree on escrow address")
	}
}
