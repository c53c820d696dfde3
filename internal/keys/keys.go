// Package keys implements the cryptographic account layer of
// SmartchainDB: ed25519 key pairs identified by base58-encoded public
// keys, message signing and verification, k-of-n multi-signatures, and
// the registry of reserved system accounts (PBPK-Res in the paper's
// formal model) such as the marketplace ESCROW account.
package keys

import (
	"crypto/ed25519"
	"crypto/rand"
	"fmt"
	mathrand "math/rand"
)

// KeyPair is an account/owner in the formal model: a public-private key
// pair <pb, pk>. The public key doubles as the account address.
type KeyPair struct {
	Public  ed25519.PublicKey
	Private ed25519.PrivateKey
}

// Generate creates a new key pair from crypto/rand.
func Generate() (*KeyPair, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("keys: generate: %w", err)
	}
	return &KeyPair{Public: pub, Private: priv}, nil
}

// MustGenerate is Generate for tests and examples; it panics on failure,
// which can only happen if the system entropy source is broken.
func MustGenerate() *KeyPair {
	kp, err := Generate()
	if err != nil {
		// invariant: must-constructor for tests and examples; only a broken entropy source fails, and Generate returns that.
		panic(err)
	}
	return kp
}

// DeterministicKeyPair derives a key pair from a 64-bit seed. It is used
// by workload generators and simulations that need reproducible account
// populations; it must never be used for real accounts.
func DeterministicKeyPair(seed int64) *KeyPair {
	rng := mathrand.New(mathrand.NewSource(seed))
	pub, priv, err := ed25519.GenerateKey(rng)
	if err != nil {
		// invariant: ed25519.GenerateKey only fails if the reader
		// fails; a math/rand source cannot.
		panic(err)
	}
	return &KeyPair{Public: pub, Private: priv}
}

// PublicBase58 returns the base58 account address for the pair.
func (k *KeyPair) PublicBase58() string { return EncodePublicKey(k.Public) }

// Sign signs msg with the private key, returning a base58 signature
// string (an element of the set S of digital signatures).
func (k *KeyPair) Sign(msg []byte) string {
	return Base58Encode(ed25519.Sign(k.Private, msg))
}

// EncodePublicKey renders a raw ed25519 public key as base58.
func EncodePublicKey(pub ed25519.PublicKey) string { return Base58Encode(pub) }

// DecodePublicKey parses a base58 account address back into a public key.
func DecodePublicKey(s string) (ed25519.PublicKey, error) {
	b, err := Base58Decode(s)
	if err != nil {
		return nil, fmt.Errorf("keys: decode public key: %w", err)
	}
	if len(b) != ed25519.PublicKeySize {
		return nil, fmt.Errorf("keys: public key is %d bytes, want %d", len(b), ed25519.PublicKeySize)
	}
	return ed25519.PublicKey(b), nil
}

// Verify implements the formal model's verify(s, pb, m): it reports
// whether signature sig (base58) over msg was produced by the private
// key matching the base58 public key pub.
func Verify(sig, pub string, msg []byte) bool {
	pk, err := DecodePublicKey(pub)
	if err != nil {
		return false
	}
	raw, err := Base58Decode(sig)
	if err != nil || len(raw) != ed25519.SignatureSize {
		return false
	}
	return ed25519.Verify(pk, msg, raw)
}
