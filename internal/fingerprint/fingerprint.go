// Package fingerprint derives compact cache keys from configuration
// values. It replaces per-request JSON marshalling with a streaming
// SHA-256 over a canonical binary encoding: every writer method appends a
// fixed-width (or length-prefixed) representation to a pooled scratch
// buffer that is hashed in one pass, so fingerprinting allocates nothing
// in steady state.
//
// Domain types expose `Fingerprint(h *fingerprint.Hasher)` methods that
// write every field feeding the simulation; composite types call their
// children in declaration order. Because each scalar occupies a fixed
// width and variable-width values are length-prefixed, two distinct field
// sequences cannot encode to the same byte stream.
//
// Keys whose encodings share a long fixed prefix need not hash it again:
// Freeze saves the SHA-256 state after the prefix (a Prefix), and
// SumAfter resumes that state in the Hasher's pooled digest and hashes
// only the suffix. The result is bit-identical to Sum over the whole
// encoding.
package fingerprint

import (
	"bytes"
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"hash"
	"math"
	"sync"
)

// Key is the 32-byte fingerprint used as a cache key. It is comparable
// and therefore usable as a map key without further encoding.
type Key [sha256.Size]byte

// Compare orders keys lexicographically, returning -1, 0, or +1. The
// order carries no semantic meaning — it exists so key sequences can be
// sorted deterministically (the sweep planner clusters requests whose
// substrate component keys share a prefix).
func (k Key) Compare(o Key) int { return bytes.Compare(k[:], o[:]) }

// Hasher accumulates a canonical encoding into a scratch buffer. Obtain
// one with New, write fields, call Sum (or SumAfter), and Release it back
// to the pool.
type Hasher struct {
	buf []byte

	// The resumable digest behind SumAfter, created on its first use and
	// kept with the Hasher in the pool, and the scratch its Sum appends
	// to, so a resumed key allocates nothing.
	digest hash.Hash
	sum    [sha256.Size]byte
}

var pool = sync.Pool{
	New: func() any { return &Hasher{buf: make([]byte, 0, 1024)} },
}

// New returns an empty Hasher from the pool.
func New() *Hasher {
	h := pool.Get().(*Hasher)
	h.buf = h.buf[:0]
	return h
}

// Release returns the Hasher to the pool. The Hasher must not be used
// afterwards.
func (h *Hasher) Release() { pool.Put(h) }

// Reset clears the accumulated encoding so one pooled Hasher can derive
// several keys (Sum, Reset, write, Sum, ...) without pool round trips.
func (h *Hasher) Reset() { h.buf = h.buf[:0] }

// Sum hashes the accumulated encoding.
func (h *Hasher) Sum() Key { return sha256.Sum256(h.buf) }

// Prefix is the SHA-256 state after absorbing an encoding prefix, saved
// with encoding.BinaryMarshaler. It is immutable and safe to share. The
// zero Prefix is the empty prefix.
type Prefix struct{ state []byte }

// Freeze saves the state of hashing the accumulated encoding, so keys
// whose encodings begin with it can be derived with SumAfter.
func (h *Hasher) Freeze() Prefix {
	d := sha256.New()
	d.Write(h.buf)
	state, err := d.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		panic("fingerprint: " + err.Error())
	}
	return Prefix{state: state}
}

// SumAfter hashes p's prefix followed by the accumulated encoding: the
// key Sum returns for a Hasher written with the prefix first. Only the
// accumulated suffix is hashed.
func (h *Hasher) SumAfter(p Prefix) Key {
	if h.digest == nil {
		h.digest = sha256.New()
	}
	if p.state == nil {
		h.digest.Reset()
	} else if err := h.digest.(encoding.BinaryUnmarshaler).UnmarshalBinary(p.state); err != nil {
		panic("fingerprint: " + err.Error())
	}
	h.digest.Write(h.buf)
	var k Key
	copy(k[:], h.digest.Sum(h.sum[:0]))
	return k
}

// Uint64 appends a fixed-width unsigned integer.
func (h *Hasher) Uint64(v uint64) {
	h.buf = binary.LittleEndian.AppendUint64(h.buf, v)
}

// Int appends a fixed-width signed integer.
func (h *Hasher) Int(v int) { h.Uint64(uint64(v)) }

// Float appends the IEEE-754 bit pattern of v. Distinct bit patterns
// (including negative zero vs zero) fingerprint differently, matching the
// bit-exact memoization contract.
func (h *Hasher) Float(v float64) { h.Uint64(math.Float64bits(v)) }

// Bytes appends a length-prefixed byte string — used to fold an already
// derived Key into a composite fingerprint (the Engine's live-window
// keys chain the configuration key with the stream identity and epoch).
func (h *Hasher) Bytes(b []byte) {
	h.Int(len(b))
	h.buf = append(h.buf, b...)
}

// String appends a length-prefixed string, so concatenation ambiguity
// ("ab"+"c" vs "a"+"bc") cannot produce colliding encodings.
func (h *Hasher) String(s string) {
	h.Int(len(s))
	h.buf = append(h.buf, s...)
}

// Len appends a collection length, delimiting variable-size sections.
func (h *Hasher) Len(n int) { h.Int(n) }
