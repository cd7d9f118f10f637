// Package fingerprint implements the 128-bit content hash used for
// Merkle subtree fingerprinting: FNV-1a extended to 128 bits, computed
// incrementally over length-prefixed fields so distinct field sequences
// can never collide by concatenation ambiguity.
//
// FNV-128a is chosen over a cryptographic hash deliberately: the
// matcher never trusts a fingerprint alone — equal fingerprints are
// re-verified structurally before any wholesale match commits (see
// internal/match prune pass) — so the hash only needs to make spurious
// candidate probes rare, not impossible. 128 bits keeps the birthday
// bound negligible for any realistic corpus (~2^64 subtrees for a 50%
// collision chance) while hashing at a few ns/byte with zero
// dependencies.
//
// The implementation matches the reference FNV-128a algorithm
// (stdlib hash/fnv New128a) byte for byte; a unit test pins that
// equivalence, so fingerprints are stable across processes, platforms,
// and releases — the property the version store's log relies on when a
// replay checks each version against the fingerprint it recorded, and
// that keeps `ladiff -hash` output comparable between runs. No cache is
// keyed by a fingerprint: the serving tier's diff cache is keyed by
// SHA-256 digests of request bytes.
package fingerprint

import (
	"fmt"
	"math/bits"
)

// FP is a 128-bit fingerprint. The zero value is reserved as "absent":
// FNV-128a can only produce it by astronomically unlikely accident, and
// no tree node ever legitimately carries it because hashing always
// starts from the non-zero offset basis.
type FP struct {
	Hi, Lo uint64
}

// IsZero reports whether f is the absent fingerprint.
func (f FP) IsZero() bool { return f.Hi == 0 && f.Lo == 0 }

// String renders the fingerprint as 32 lowercase hex digits,
// big-endian, the form printed by `ladiff -hash`.
func (f FP) String() string { return fmt.Sprintf("%016x%016x", f.Hi, f.Lo) }

// FNV-128a parameters. The prime is 2^88 + 2^8 + 0x3b; the offset
// basis is the standard 128-bit FNV basis.
const (
	primeHi  = 0x0000000001000000
	primeLo  = 0x000000000000013B
	offsetHi = 0x6C62272E07BB0142
	offsetLo = 0x62B821756295C58D
)

// Hasher accumulates an FNV-128a hash. The zero Hasher is NOT valid;
// construct with New.
type Hasher struct {
	hi, lo uint64
}

// New returns a Hasher initialized to the FNV-128a offset basis.
func New() Hasher { return Hasher{hi: offsetHi, lo: offsetLo} }

// mulPrime multiplies the 128-bit state by the FNV prime mod 2^128.
// Because primeHi has only bit 24 set, hi·primeHi wraps out of the low
// 128 bits entirely and the full product reduces to three terms.
func mulPrime(hi, lo uint64) (uint64, uint64) {
	carry, newLo := bits.Mul64(lo, primeLo)
	newHi := hi*primeLo + lo*primeHi + carry
	return newHi, newLo
}

func (h *Hasher) writeByte(b byte) {
	h.lo ^= uint64(b)
	h.hi, h.lo = mulPrime(h.hi, h.lo)
}

// WriteString hashes the raw bytes of s. The state lives in locals for
// the duration of the loop — the dominant cost of fingerprinting a
// tree is this loop over its text, and keeping the 128-bit state in
// registers rather than round-tripping through the struct roughly
// halves it.
func (h *Hasher) WriteString(s string) {
	hi, lo := h.hi, h.lo
	for i := 0; i < len(s); i++ {
		lo ^= uint64(s[i])
		carry, newLo := bits.Mul64(lo, primeLo)
		hi = hi*primeLo + lo*primeHi + carry
		lo = newLo
	}
	h.hi, h.lo = hi, lo
}

// WriteBytes hashes the raw bytes of p.
func (h *Hasher) WriteBytes(p []byte) {
	hi, lo := h.hi, h.lo
	for _, b := range p {
		lo ^= uint64(b)
		carry, newLo := bits.Mul64(lo, primeLo)
		hi = hi*primeLo + lo*primeHi + carry
		lo = newLo
	}
	h.hi, h.lo = hi, lo
}

// WriteUvarint hashes x in LEB128 varint form. Used as a length prefix
// so that adjacent variable-length fields hash unambiguously.
func (h *Hasher) WriteUvarint(x uint64) {
	for x >= 0x80 {
		h.writeByte(byte(x) | 0x80)
		x >>= 7
	}
	h.writeByte(byte(x))
}

// WriteFP hashes a child fingerprint as 16 big-endian bytes.
func (h *Hasher) WriteFP(f FP) {
	for shift := 56; shift >= 0; shift -= 8 {
		h.writeByte(byte(f.Hi >> shift))
	}
	for shift := 56; shift >= 0; shift -= 8 {
		h.writeByte(byte(f.Lo >> shift))
	}
}

// Sum returns the current hash value. The Hasher remains usable.
func (h *Hasher) Sum() FP { return FP{Hi: h.hi, Lo: h.lo} }
