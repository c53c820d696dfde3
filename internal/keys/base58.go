package keys

import (
	"errors"
	"math/big"
	"math/bits"
)

// base58Alphabet is the Bitcoin base58 alphabet, also used by BigchainDB
// for public keys, signatures, and transaction identifiers.
const base58Alphabet = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"

var base58Index [256]int8

func init() {
	for i := range base58Index {
		base58Index[i] = -1
	}
	for i := 0; i < len(base58Alphabet); i++ {
		base58Index[base58Alphabet[i]] = int8(i)
	}
}

// Base58Encode encodes b in base58 using the Bitcoin alphabet. Leading
// zero bytes are preserved as leading '1' characters.
func Base58Encode(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	zeros := 0
	for zeros < len(b) && b[zeros] == 0 {
		zeros++
	}
	n := new(big.Int).SetBytes(b)
	radix := big.NewInt(58)
	mod := new(big.Int)
	// Upper bound on encoded length: log(256)/log(58) ≈ 1.37 chars per byte.
	out := make([]byte, 0, len(b)*138/100+1)
	for n.Sign() > 0 {
		n.DivMod(n, radix, mod)
		out = append(out, base58Alphabet[mod.Int64()])
	}
	for i := 0; i < zeros; i++ {
		out = append(out, base58Alphabet[0])
	}
	// Digits were produced least-significant first.
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return string(out)
}

// ErrBadBase58 reports a character outside the base58 alphabet.
var ErrBadBase58 = errors.New("keys: invalid base58 character")

// Base58Decode decodes a base58 string produced by Base58Encode. The
// value below the leading '1's is accumulated five digits at a time
// (58^5 < 2^32) into 32-bit limbs on the stack, so a key or a signature
// decodes with the one allocation of its result.
func Base58Decode(s string) ([]byte, error) {
	zeros := 0
	for zeros < len(s) && s[zeros] == base58Alphabet[0] {
		zeros++
	}
	// Little-endian limbs of the value; 20 hold a 64-byte signature.
	var small [20]uint32
	limbs := small[:0]
	if n := (len(s)-zeros)*733/1000/4 + 1; n > len(small) {
		limbs = make([]uint32, 0, n)
	}
	for i := zeros; i < len(s); {
		mul, carry := uint64(1), uint64(0)
		for k := 0; k < 5 && i < len(s); k, i = k+1, i+1 {
			d := base58Index[s[i]]
			if d < 0 {
				return nil, ErrBadBase58
			}
			mul *= 58
			carry = carry*58 + uint64(d)
		}
		for j := range limbs {
			carry += uint64(limbs[j]) * mul
			limbs[j] = uint32(carry)
			carry >>= 32
		}
		if carry != 0 {
			limbs = append(limbs, uint32(carry))
		}
	}
	body := 0
	if len(limbs) > 0 {
		body = 4*(len(limbs)-1) + (bits.Len32(limbs[len(limbs)-1])+7)/8
	}
	out := make([]byte, zeros+body)
	for j, k := 0, len(out)-1; k >= zeros; j++ {
		for v, b := limbs[j], 0; b < 4 && k >= zeros; v, b, k = v>>8, b+1, k-1 {
			out[k] = byte(v)
		}
	}
	return out, nil
}
