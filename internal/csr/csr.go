// Package csr implements GraphH's tile data structure: the "enhanced CSR"
// representation of §III-B-2. A tile owns all in-edges of a contiguous
// target-vertex range and stores them as three arrays — row (per-target
// offsets), col (global source ids) and val (edge values, omitted for
// unweighted graphs) — plus a Bloom filter over its source vertices used for
// inactive-tile skipping (§III-C-4).
//
// Tiles serialize to a checksummed binary form; that is the unit persisted
// to the DFS by the pre-processing engine, fetched to local disk by compute
// servers, and held (possibly compressed) by the edge cache.
package csr

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"

	"repro/internal/bloom"
	"repro/internal/wordcodec"
)

// Tile holds the in-edges of the target-vertex range [TargetLo, TargetHi).
type Tile struct {
	// ID is the tile's index in the global tile sequence; MPE assigns tile
	// i to server i mod N (§III-C-1).
	ID uint32
	// TargetLo and TargetHi delimit the half-open target-vertex range.
	TargetLo, TargetHi uint32
	// NumVertices is |V| of the whole graph; source ids are < NumVertices.
	NumVertices uint32
	// Row has TargetHi-TargetLo+1 entries; the in-edges of local target t
	// (global id TargetLo+t) occupy Col[Row[t]:Row[t+1]].
	Row []uint32
	// Col holds global source vertex ids in target-major order.
	Col []uint32
	// Val holds edge values parallel to Col; nil for unweighted graphs,
	// in which case every edge value is 1 (§III-B-2).
	Val []float32
	// Filter is the Bloom filter over the distinct source vertices in Col.
	Filter *bloom.Filter

	// backing is DecodeInto's combined row+col storage: both arrays are
	// adjacent in the encoded body, so one bulk copy fills them, and reuse
	// settles at the largest tile seen instead of reallocating whenever
	// shapes alternate. Tiles built field-by-field leave it nil.
	backing []uint32
}

// Clone returns a deep copy of the tile that owns all of its storage —
// required before retaining a tile that was decoded into reusable scratch.
func (t *Tile) Clone() *Tile { return t.CopyInto(new(Tile)) }

// CopyInto makes dst a deep copy of t that owns all of its storage, reusing
// dst's arrays and filter when their capacity suffices — Clone for callers
// that recycle tiles, so a steady stream of copies allocates nothing. It
// returns dst.
func (t *Tile) CopyInto(dst *Tile) *Tile {
	dst.ID, dst.TargetLo, dst.TargetHi, dst.NumVertices = t.ID, t.TargetLo, t.TargetHi, t.NumVertices
	nr, ne := len(t.Row), len(t.Col)
	if cap(dst.backing) < nr+ne {
		dst.backing = make([]uint32, nr+ne)
	}
	dst.backing = dst.backing[:nr+ne]
	copy(dst.backing, t.Row)
	copy(dst.backing[nr:], t.Col)
	dst.Row = dst.backing[:nr:nr]
	dst.Col = dst.backing[nr : nr+ne : nr+ne]
	if t.Val != nil {
		if dst.Val == nil {
			dst.Val = make([]float32, 0, len(t.Val)) // non-nil even when empty: weighted
		}
		dst.Val = append(dst.Val[:0], t.Val...)
	} else {
		dst.Val = nil
	}
	if t.Filter != nil {
		if dst.Filter == nil {
			dst.Filter = new(bloom.Filter)
		}
		t.Filter.CopyInto(dst.Filter)
	} else {
		dst.Filter = nil
	}
	return dst
}

// NumTargets returns the number of target vertices covered by the tile.
func (t *Tile) NumTargets() uint32 { return t.TargetHi - t.TargetLo }

// NumEdges returns the number of edges stored in the tile.
func (t *Tile) NumEdges() int { return len(t.Col) }

// Weighted reports whether the tile carries explicit edge values.
func (t *Tile) Weighted() bool { return t.Val != nil }

// InEdges returns the source ids and edge values of the in-edges of the
// global target vertex v, which must lie in [TargetLo, TargetHi). The value
// slice is nil for unweighted tiles. Returned slices alias tile storage.
func (t *Tile) InEdges(v uint32) (sources []uint32, values []float32) {
	local := v - t.TargetLo
	lo, hi := t.Row[local], t.Row[local+1]
	sources = t.Col[lo:hi]
	if t.Val != nil {
		values = t.Val[lo:hi]
	}
	return sources, values
}

// SizeBytes returns the in-memory footprint of the tile arrays, the quantity
// the edge cache budgets against (§IV-B).
func (t *Tile) SizeBytes() int64 {
	n := int64(len(t.Row))*4 + int64(len(t.Col))*4
	if t.Val != nil {
		n += int64(len(t.Val)) * 4
	}
	return n
}

// BuildFilter (re)builds the tile's source-vertex Bloom filter at the given
// false-positive rate.
func (t *Tile) BuildFilter(fpRate float64) {
	// Deduplicate sources first so the filter is sized for the distinct set:
	// radix-sort a copy and skip repeats, which beats a map by a wide margin
	// at tile sizes and allocates nothing beyond two scratch slices.
	sorted := make([]uint32, len(t.Col))
	copy(sorted, t.Col)
	radixSortUint32(sorted)
	distinct := 0
	for i, s := range sorted {
		if i == 0 || s != sorted[i-1] {
			distinct++
		}
	}
	f := bloom.New(distinct, fpRate)
	for i, s := range sorted {
		if i == 0 || s != sorted[i-1] {
			f.Add(s)
		}
	}
	t.Filter = f
}

// radixSortUint32 sorts a in place with a 4-pass LSD byte radix sort,
// skipping passes whose byte is constant across the keys (always the high
// bytes for tiles over small vertex ranges). Far faster than a comparison
// sort on the uniform-ish source ids of a tile.
func radixSortUint32(a []uint32) {
	// Below this size the counting passes dominate; fall back.
	if len(a) < 512 {
		slices.Sort(a)
		return
	}
	var counts [4][256]int
	for _, v := range a {
		counts[0][byte(v)]++
		counts[1][byte(v>>8)]++
		counts[2][byte(v>>16)]++
		counts[3][byte(v>>24)]++
	}
	scratch := make([]uint32, len(a))
	src, dst := a, scratch
	for pass := 0; pass < 4; pass++ {
		c := &counts[pass]
		shift := 8 * pass
		uniform := c[byte(src[0]>>shift)] == len(a)
		if uniform {
			continue
		}
		var offs [256]int
		sum := 0
		for i, n := range c {
			offs[i] = sum
			sum += n
		}
		for _, v := range src {
			b := byte(v >> shift)
			dst[offs[b]] = v
			offs[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &a[0] {
		copy(a, src)
	}
}

// Validate checks the structural invariants of the tile.
func (t *Tile) Validate() error {
	if t.TargetHi < t.TargetLo || t.TargetHi > t.NumVertices {
		return fmt.Errorf("csr: tile %d has bad target range [%d,%d) over %d vertices",
			t.ID, t.TargetLo, t.TargetHi, t.NumVertices)
	}
	if len(t.Row) != int(t.NumTargets())+1 {
		return fmt.Errorf("csr: tile %d row array has %d entries, want %d",
			t.ID, len(t.Row), t.NumTargets()+1)
	}
	if len(t.Row) > 0 {
		if t.Row[0] != 0 {
			return fmt.Errorf("csr: tile %d row[0] = %d, want 0", t.ID, t.Row[0])
		}
		for i := 1; i < len(t.Row); i++ {
			if t.Row[i] < t.Row[i-1] {
				return fmt.Errorf("csr: tile %d row not monotone at %d", t.ID, i)
			}
		}
		if int(t.Row[len(t.Row)-1]) != len(t.Col) {
			return fmt.Errorf("csr: tile %d row end %d != %d edges",
				t.ID, t.Row[len(t.Row)-1], len(t.Col))
		}
	}
	for i, s := range t.Col {
		if s >= t.NumVertices {
			return fmt.Errorf("csr: tile %d col[%d] = %d out of range", t.ID, i, s)
		}
	}
	if t.Val != nil && len(t.Val) != len(t.Col) {
		return fmt.Errorf("csr: tile %d val length %d != col length %d",
			t.ID, len(t.Val), len(t.Col))
	}
	return nil
}

const (
	tileMagic    = uint32(0x47485449) // "GHTI"
	flagWeighted = 1 << 0
	flagFilter   = 1 << 1
)

// EncodedSize returns the exact length of the tile's binary form.
func (t *Tile) EncodedSize() int {
	size := 32 + len(t.Row)*4 + len(t.Col)*4 + 4
	if t.Filter != nil {
		size += t.Filter.EncodedSize()
	}
	if t.Val != nil {
		size += len(t.Val) * 4
	}
	return size
}

// AppendEncode appends the tile's binary on-disk form to dst and returns the
// extended slice: a fixed header, optional Bloom filter, the row/col/val
// arrays, and a trailing CRC-32 over everything before it. The arrays are
// written with bulk word conversion, so encoding cost is a handful of
// memmoves plus the checksum.
func (t *Tile) AppendEncode(dst []byte) []byte {
	start := len(dst)
	dst = slices.Grow(dst, t.EncodedSize())

	var hdr [32]byte
	binary.LittleEndian.PutUint32(hdr[0:], tileMagic)
	binary.LittleEndian.PutUint32(hdr[4:], t.ID)
	binary.LittleEndian.PutUint32(hdr[8:], t.TargetLo)
	binary.LittleEndian.PutUint32(hdr[12:], t.TargetHi)
	binary.LittleEndian.PutUint32(hdr[16:], t.NumVertices)
	binary.LittleEndian.PutUint32(hdr[20:], uint32(len(t.Col)))
	var flags uint32
	if t.Val != nil {
		flags |= flagWeighted
	}
	var filterLen int
	if t.Filter != nil {
		flags |= flagFilter
		filterLen = t.Filter.EncodedSize()
	}
	binary.LittleEndian.PutUint32(hdr[24:], flags)
	binary.LittleEndian.PutUint32(hdr[28:], uint32(filterLen))
	dst = append(dst, hdr[:]...)
	if t.Filter != nil {
		dst = t.Filter.AppendEncode(dst)
	}

	off := len(dst)
	arrays := len(t.Row)*4 + len(t.Col)*4
	if t.Val != nil {
		arrays += len(t.Val) * 4
	}
	dst = dst[:off+arrays]
	wordcodec.PutUint32s(dst[off:], t.Row)
	off += len(t.Row) * 4
	wordcodec.PutUint32s(dst[off:], t.Col)
	off += len(t.Col) * 4
	if t.Val != nil {
		wordcodec.PutFloat32s(dst[off:], t.Val)
	}

	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(dst[start:]))
	return append(dst, crc[:]...)
}

// Encode serializes the tile to its binary on-disk form.
func (t *Tile) Encode() []byte {
	return t.AppendEncode(make([]byte, 0, t.EncodedSize()))
}

// Decode parses a tile encoded by Encode, verifying the checksum and all
// structural invariants. It returns a descriptive error on any corruption.
func Decode(data []byte) (*Tile, error) {
	t := new(Tile)
	if err := DecodeInto(t, data); err != nil {
		return nil, err
	}
	return t, nil
}

// DecodeInto parses a tile encoded by Encode into t, verifying the checksum
// and all structural invariants. It reuses t's row/col/val arrays and Bloom
// filter storage when their capacity suffices, so refilling the same Tile —
// the edge-cache miss path — is allocation-free in steady state. The decoded
// tile owns its memory; it never aliases data. On error the tile's contents
// are unspecified and must not be used.
func DecodeInto(t *Tile, data []byte) error {
	if len(data) < 36 {
		return fmt.Errorf("csr: encoded tile too short (%d bytes)", len(data))
	}
	body, crcBytes := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(crcBytes); got != want {
		return fmt.Errorf("csr: tile checksum mismatch (got %#x want %#x)", got, want)
	}
	if m := binary.LittleEndian.Uint32(body[0:]); m != tileMagic {
		return fmt.Errorf("csr: bad tile magic %#x", m)
	}
	t.ID = binary.LittleEndian.Uint32(body[4:])
	t.TargetLo = binary.LittleEndian.Uint32(body[8:])
	t.TargetHi = binary.LittleEndian.Uint32(body[12:])
	t.NumVertices = binary.LittleEndian.Uint32(body[16:])
	numEdges := binary.LittleEndian.Uint32(body[20:])
	flags := binary.LittleEndian.Uint32(body[24:])
	filterLen := binary.LittleEndian.Uint32(body[28:])
	if t.TargetHi < t.TargetLo {
		return fmt.Errorf("csr: inverted target range [%d,%d)", t.TargetLo, t.TargetHi)
	}
	numRow := uint64(t.TargetHi-t.TargetLo) + 1
	want := uint64(32) + uint64(filterLen) + numRow*4 + uint64(numEdges)*4
	if flags&flagWeighted != 0 {
		want += uint64(numEdges) * 4
	}
	if uint64(len(body)) != want {
		return fmt.Errorf("csr: tile body %d bytes, want %d", len(body), want)
	}
	off := 32
	if flags&flagFilter != 0 {
		if t.Filter == nil {
			t.Filter = new(bloom.Filter)
		}
		if err := bloom.DecodeInto(t.Filter, body[off:off+int(filterLen)]); err != nil {
			return fmt.Errorf("csr: tile filter: %w", err)
		}
	} else {
		t.Filter = nil
	}
	off += int(filterLen)
	nr, ne := int(numRow), int(numEdges)
	if cap(t.backing) < nr+ne {
		t.backing = make([]uint32, nr+ne)
	} else {
		t.backing = t.backing[:nr+ne]
	}
	wordcodec.Uint32s(t.backing, body[off:])
	// Capped subslices keep hypothetical appends from crossing the boundary.
	t.Row = t.backing[:nr:nr]
	t.Col = t.backing[nr : nr+ne : nr+ne]
	off += (nr + ne) * 4
	if flags&flagWeighted != 0 {
		t.Val = growFloat32(t.Val, ne)
		wordcodec.Float32s(t.Val, body[off:])
	} else {
		t.Val = nil
	}
	return t.Validate()
}

// growFloat32 resizes s to n elements, reusing its backing array if possible.
func growFloat32(s []float32, n int) []float32 {
	if cap(s) < n {
		return make([]float32, n)
	}
	return s[:n]
}
