// Package bloom implements the per-tile source-vertex Bloom filters GraphH
// uses to skip inactive tiles (§III-C-4 of the paper): each tile keeps a
// small in-memory filter over its source-vertex set so that, when only a few
// vertices changed in the previous superstep, a worker can decide without
// touching the disk whether loading the tile could possibly produce updates.
//
// The filter never yields false negatives, so skipping is always safe: a
// skipped tile provably contains no updated source vertex.
package bloom

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/wordcodec"
)

// Filter is a classic k-hash Bloom filter over uint32 keys. The zero value
// is unusable; construct with New or Decode.
type Filter struct {
	bits    []uint64
	numBits uint64
	k       uint32
	n       uint64 // number of inserted keys (approximate set size)
}

// New creates a filter sized for expectedKeys insertions at the given target
// false-positive rate (e.g. 0.01). expectedKeys may be zero, in which case a
// minimal filter is allocated.
func New(expectedKeys int, fpRate float64) *Filter {
	if expectedKeys < 1 {
		expectedKeys = 1
	}
	if fpRate <= 0 || fpRate >= 1 {
		fpRate = 0.01
	}
	// Optimal sizing: m = -n ln p / (ln 2)^2, k = m/n ln 2.
	m := uint64(math.Ceil(-float64(expectedKeys) * math.Log(fpRate) / (math.Ln2 * math.Ln2)))
	if m < 64 {
		m = 64
	}
	k := uint32(math.Round(float64(m) / float64(expectedKeys) * math.Ln2))
	if k < 1 {
		k = 1
	}
	if k > 16 {
		k = 16
	}
	words := (m + 63) / 64
	return &Filter{bits: make([]uint64, words), numBits: words * 64, k: k}
}

// hash2 derives two independent 64-bit hashes of the key; the k probe
// positions use the Kirsch-Mitzenmacher double-hashing construction
// h_i = h1 + i*h2.
func hash2(key uint32) (uint64, uint64) {
	x := uint64(key) + 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	h1 := x
	x ^= 0xd6e8feb86659fd93
	x ^= x >> 32
	x *= 0xd6e8feb86659fd93
	x ^= x >> 32
	h2 := x | 1 // ensure odd so probes cover the table
	return h1, h2
}

// Add inserts key into the filter.
func (f *Filter) Add(key uint32) {
	h1, h2 := hash2(key)
	for i := uint32(0); i < f.k; i++ {
		pos := (h1 + uint64(i)*h2) % f.numBits
		f.bits[pos/64] |= 1 << (pos % 64)
	}
	f.n++
}

// Contains reports whether key may be in the set. False positives are
// possible at roughly the configured rate; false negatives are not.
func (f *Filter) Contains(key uint32) bool {
	h1, h2 := hash2(key)
	for i := uint32(0); i < f.k; i++ {
		pos := (h1 + uint64(i)*h2) % f.numBits
		if f.bits[pos/64]&(1<<(pos%64)) == 0 {
			return false
		}
	}
	return true
}

// ContainsAny reports whether any of the keys may be in the set. It is the
// tile-skipping predicate from Algorithm 5 line 9: keys are the vertices
// updated in the previous superstep.
func (f *Filter) ContainsAny(keys []uint32) bool {
	for _, k := range keys {
		if f.Contains(k) {
			return true
		}
	}
	return false
}

// Clone returns a deep copy of the filter that owns its bit array.
func (f *Filter) Clone() *Filter {
	c := new(Filter)
	f.CopyInto(c)
	return c
}

// CopyInto makes dst a deep copy of f, reusing dst's bit array when its
// capacity suffices.
func (f *Filter) CopyInto(dst *Filter) {
	*dst = Filter{bits: append(dst.bits[:0], f.bits...), numBits: f.numBits, k: f.k, n: f.n}
}

// SizeBytes returns the in-memory footprint of the bit array.
func (f *Filter) SizeBytes() int { return len(f.bits) * 8 }

// ApproxCount returns the number of Add calls.
func (f *Filter) ApproxCount() uint64 { return f.n }

// EstimatedFPRate returns the expected false-positive probability given the
// current fill: (1 - e^{-kn/m})^k.
func (f *Filter) EstimatedFPRate() float64 {
	if f.n == 0 {
		return 0
	}
	return math.Pow(1-math.Exp(-float64(f.k)*float64(f.n)/float64(f.numBits)), float64(f.k))
}

// EncodedSize returns the exact length of the filter's binary form.
func (f *Filter) EncodedSize() int { return 20 + len(f.bits)*8 }

// AppendEncode appends the filter's compact binary form to dst and returns
// the extended slice.
func (f *Filter) AppendEncode(dst []byte) []byte {
	off := len(dst)
	dst = append(dst, make([]byte, f.EncodedSize())...)
	buf := dst[off:]
	binary.LittleEndian.PutUint64(buf[0:], f.numBits)
	binary.LittleEndian.PutUint32(buf[8:], f.k)
	binary.LittleEndian.PutUint64(buf[12:], f.n)
	wordcodec.PutUint64s(buf[20:], f.bits)
	return dst
}

// Encode serializes the filter to a compact binary form suitable for storing
// in a tile header.
func (f *Filter) Encode() []byte {
	return f.AppendEncode(make([]byte, 0, f.EncodedSize()))
}

// Decode reconstructs a filter produced by Encode.
func Decode(data []byte) (*Filter, error) {
	f := new(Filter)
	if err := DecodeInto(f, data); err != nil {
		return nil, err
	}
	return f, nil
}

// DecodeInto reconstructs a filter produced by Encode into f, reusing f's
// bit array when its capacity suffices so repeated decodes into the same
// filter are allocation-free. On error f is left unchanged.
func DecodeInto(f *Filter, data []byte) error {
	if len(data) < 20 {
		return fmt.Errorf("bloom: encoded filter too short (%d bytes)", len(data))
	}
	numBits := binary.LittleEndian.Uint64(data[0:])
	k := binary.LittleEndian.Uint32(data[8:])
	n := binary.LittleEndian.Uint64(data[12:])
	if numBits == 0 || numBits%64 != 0 || k == 0 || k > 16 {
		return fmt.Errorf("bloom: corrupt filter header (bits=%d k=%d)", numBits, k)
	}
	words := int(numBits / 64)
	if len(data) != 20+words*8 {
		return fmt.Errorf("bloom: encoded filter length %d, want %d", len(data), 20+words*8)
	}
	f.numBits, f.k, f.n = numBits, k, n
	if cap(f.bits) < words {
		f.bits = make([]uint64, words)
	} else {
		f.bits = f.bits[:words]
	}
	wordcodec.Uint64s(f.bits, data[20:])
	return nil
}
