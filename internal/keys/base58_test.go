package keys

import (
	"bytes"
	"math/big"
	"strings"
	"testing"
)

// refBase58Decode is the math/big decoder Base58Decode replaced: one
// big.Int multiply and add per digit. It is the reference the limb
// decoder is held to.
func refBase58Decode(s string) ([]byte, error) {
	if len(s) == 0 {
		return []byte{}, nil
	}
	zeros := 0
	for zeros < len(s) && s[zeros] == base58Alphabet[0] {
		zeros++
	}
	n := new(big.Int)
	radix := big.NewInt(58)
	for i := zeros; i < len(s); i++ {
		d := base58Index[s[i]]
		if d < 0 {
			return nil, ErrBadBase58
		}
		n.Mul(n, radix)
		n.Add(n, big.NewInt(int64(d)))
	}
	body := n.Bytes()
	out := make([]byte, zeros+len(body))
	copy(out[zeros:], body)
	return out, nil
}

// checkBase58Decode fails t unless Base58Decode and the reference give
// the same bytes and the same error on s.
func checkBase58Decode(t *testing.T, s string) {
	t.Helper()
	got, gotErr := Base58Decode(s)
	want, wantErr := refBase58Decode(s)
	if gotErr != wantErr || !bytes.Equal(got, want) || (got == nil) != (want == nil) {
		t.Fatalf("Base58Decode(%q) = %x, %v; reference %x, %v", s, got, gotErr, want, wantErr)
	}
}

func base58Seeds() []string {
	kp := DeterministicKeyPair(58)
	sig := kp.Sign([]byte("payload"))
	return []string{
		"", "1", "11", "111112", "2", "z", "zzzzz", "zzzzzz", "21", "1z",
		"0", "O", "I", "l", "abc!", "11!", "1\x00", "\xff",
		kp.PublicBase58(), sig, "1111" + sig, sig + "0",
		strings.Repeat("z", 90), strings.Repeat("z", 200), strings.Repeat("1", 70) + "2",
		Base58Encode(bytes.Repeat([]byte{0xff}, 64)),
		Base58Encode(append(make([]byte, 5), bytes.Repeat([]byte{0x80}, 33)...)),
	}
}

// TestBase58DecodeMatchesReference: the limb decoder and the math/big
// one agree on hand-picked strings (leading '1's, bad characters before
// and after them, a key, a signature, lengths across the limb buffer)
// and on the encodings of every length up to 100 bytes of a few fills.
func TestBase58DecodeMatchesReference(t *testing.T) {
	for _, s := range base58Seeds() {
		checkBase58Decode(t, s)
	}
	for n := 0; n <= 100; n++ {
		for _, fill := range []byte{0, 1, 0x7f, 0xff} {
			b := bytes.Repeat([]byte{fill}, n)
			if n > 0 {
				b[n-1] = 0x42
			}
			checkBase58Decode(t, Base58Encode(b))
		}
	}
}

// TestBase58DecodeAllocations pins the decoder at one allocation, its
// result, for a public key and a signature.
func TestBase58DecodeAllocations(t *testing.T) {
	kp := DeterministicKeyPair(59)
	for _, s := range []string{kp.PublicBase58(), kp.Sign([]byte("m"))} {
		if got := testing.AllocsPerRun(100, func() { _, _ = Base58Decode(s) }); got > 1 {
			t.Errorf("Base58Decode of %d chars allocates %v times, want 1", len(s), got)
		}
	}
}

// FuzzBase58: on any string, Base58Decode gives the reference's bytes
// and error, and what it decodes encodes back to the string.
func FuzzBase58(f *testing.F) {
	for _, s := range base58Seeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		checkBase58Decode(t, s)
		if b, err := Base58Decode(s); err == nil && Base58Encode(b) != s {
			t.Fatalf("Base58Encode(Base58Decode(%q)) = %q", s, Base58Encode(b))
		}
	})
}

var base58Sink []byte

// BenchmarkBase58Decode decodes a public key and a signature per
// iteration.
func BenchmarkBase58Decode(b *testing.B) {
	kp := DeterministicKeyPair(60)
	pub, sig := kp.PublicBase58(), kp.Sign([]byte("m"))
	b.ReportAllocs()
	for b.Loop() {
		base58Sink, _ = Base58Decode(pub)
		base58Sink, _ = Base58Decode(sig)
	}
}
