package csr

import (
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/racedetect"
)

// TestDecodeIntoReuse drives one Tile through decodes of different shapes —
// weighted after unweighted, shrinking and growing, with and without filter
// — and checks each result independently.
func TestDecodeIntoReuse(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 7))
	var dst Tile
	shapes := []struct {
		lo, hi, nv uint32
		weighted   bool
		filtered   bool
	}{
		{0, 40, 80, true, true},
		{5, 10, 20, false, false}, // shrink, drop weights and filter
		{0, 200, 400, true, false},
		{3, 3, 10, false, true}, // empty target range
		{0, 100, 150, false, true},
	}
	for i, sh := range shapes {
		want := buildTile(rng, uint32(i), sh.lo, sh.hi, sh.nv, sh.weighted)
		if sh.filtered {
			want.BuildFilter(0.01)
		}
		enc := want.Encode()
		if err := DecodeInto(&dst, enc); err != nil {
			t.Fatalf("shape %d: %v", i, err)
		}
		if dst.ID != want.ID || dst.TargetLo != want.TargetLo || dst.TargetHi != want.TargetHi {
			t.Fatalf("shape %d: header mismatch %+v", i, dst)
		}
		if dst.NumEdges() != want.NumEdges() {
			t.Fatalf("shape %d: %d edges, want %d", i, dst.NumEdges(), want.NumEdges())
		}
		for j := range want.Col {
			if dst.Col[j] != want.Col[j] {
				t.Fatalf("shape %d: col[%d] mismatch", i, j)
			}
		}
		if sh.weighted {
			for j := range want.Val {
				if dst.Val[j] != want.Val[j] {
					t.Fatalf("shape %d: val[%d] mismatch", i, j)
				}
			}
		} else if dst.Val != nil {
			t.Fatalf("shape %d: phantom values", i)
		}
		if sh.filtered {
			if dst.Filter == nil {
				t.Fatalf("shape %d: filter lost", i)
			}
			for _, s := range want.Col {
				if !dst.Filter.Contains(s) {
					t.Fatalf("shape %d: filter missing source %d", i, s)
				}
			}
		} else if dst.Filter != nil {
			t.Fatalf("shape %d: phantom filter", i)
		}
	}
}

// TestDecodeIntoDoesNotAliasInput corrupts the encoded buffer after decoding
// and checks the tile is unaffected — DecodeInto must copy, not alias.
func TestDecodeIntoDoesNotAliasInput(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	want := buildTile(rng, 1, 0, 30, 60, true)
	enc := want.Encode()
	var dst Tile
	if err := DecodeInto(&dst, enc); err != nil {
		t.Fatal(err)
	}
	for i := range enc {
		enc[i] = 0xEE
	}
	for j := range want.Col {
		if dst.Col[j] != want.Col[j] {
			t.Fatalf("col[%d] changed after input corruption: decode aliased input", j)
		}
	}
}

// TestDecodeIntoAllocs pins the steady-state cache-miss refill path to zero
// allocations: once a Tile has been through one decode of each shape, later
// decodes reuse all of its storage.
func TestDecodeIntoAllocs(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	tl := buildBigTile(1<<14, true)
	tl.BuildFilter(0.01)
	enc := tl.Encode()
	var dst Tile
	if err := DecodeInto(&dst, enc); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := DecodeInto(&dst, enc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("DecodeInto allocates %.1f times per warm call, want 0", allocs)
	}
}

// TestAppendEncodeAllocs pins warm-buffer encoding to zero allocations.
func TestAppendEncodeAllocs(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	tl := buildBigTile(1<<14, true)
	tl.BuildFilter(0.01)
	buf := tl.Encode()
	allocs := testing.AllocsPerRun(20, func() {
		buf = tl.AppendEncode(buf[:0])
	})
	if allocs != 0 {
		t.Errorf("AppendEncode allocates %.1f times per warm call, want 0", allocs)
	}
}

// TestDecodeIntoRejectsCorruption runs the corrupt-input table against the
// reusable-decode path, including a pre-populated destination tile, to make
// sure buffer reuse does not weaken validation.
func TestDecodeIntoRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 13))
	good := buildTile(rng, 2, 0, 25, 50, true)
	good.BuildFilter(0.01)
	enc := good.Encode()

	cases := map[string]func([]byte) []byte{
		"empty":            func(e []byte) []byte { return nil },
		"short":            func(e []byte) []byte { return e[:20] },
		"truncated tail":   func(e []byte) []byte { return e[:len(e)-8] },
		"crc flip":         func(e []byte) []byte { e[len(e)-1] ^= 0xFF; return e },
		"magic flip":       func(e []byte) []byte { e[0] ^= 0xFF; return e },
		"header bit":       func(e []byte) []byte { e[9] ^= 0x10; return e },
		"filter byte":      func(e []byte) []byte { e[40] ^= 0x01; return e },
		"mid-payload bit":  func(e []byte) []byte { e[len(e)/2] ^= 0x80; return e },
		"extension":        func(e []byte) []byte { return append(e, 0) },
		"zeroed checksum":  func(e []byte) []byte { copy(e[len(e)-4:], []byte{0, 0, 0, 0}); return e },
		"swapped sections": func(e []byte) []byte { e[33], e[len(e)-9] = e[len(e)-9], e[33]; return e },
	}
	for name, corrupt := range cases {
		bad := corrupt(append([]byte(nil), enc...))
		var dst Tile
		// Pre-populate dst so a failed decode has stale storage to misuse.
		if err := DecodeInto(&dst, enc); err != nil {
			t.Fatal(err)
		}
		if err := DecodeInto(&dst, bad); err == nil {
			t.Errorf("%s: corruption not detected", name)
		}
	}
}

// TestRadixSortUint32 checks the radix sort against the standard sort on
// assorted shapes, including sizes below the fallback threshold, constant
// high bytes, and full-range values.
func TestRadixSortUint32(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 17))
	for _, tc := range []struct {
		n   int
		gen func() uint32
	}{
		{0, rng.Uint32},
		{1, rng.Uint32},
		{100, rng.Uint32},
		{511, rng.Uint32},
		{512, rng.Uint32},
		{5000, rng.Uint32},
		{5000, func() uint32 { return rng.Uint32N(300) }}, // constant high bytes
		{5000, func() uint32 { return rng.Uint32N(7) }},   // heavy duplicates
		{5000, func() uint32 { return rng.Uint32() | 1 }}, // all four passes live
		{4096, func() uint32 { return 42 }},               // fully uniform
	} {
		a := make([]uint32, tc.n)
		for i := range a {
			a[i] = tc.gen()
		}
		want := make([]uint32, len(a))
		copy(want, a)
		slices.Sort(want)
		radixSortUint32(a)
		for i := range a {
			if a[i] != want[i] {
				t.Fatalf("n=%d: radix sort diverges from slices.Sort at %d", tc.n, i)
			}
		}
	}
}

// FuzzDecode feeds arbitrary bytes and mutated valid encodings through both
// decode paths; they must never panic, must agree on acceptance, and any
// accepted tile must re-encode to a decodable form.
func FuzzDecode(f *testing.F) {
	rng := rand.New(rand.NewPCG(21, 21))
	for _, weighted := range []bool{false, true} {
		tl := buildTile(rng, 9, 2, 34, 70, weighted)
		tl.BuildFilter(0.05)
		f.Add(tl.Encode())
	}
	f.Add([]byte{})
	f.Add(make([]byte, 36))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Decode(data)
		var dst Tile
		errInto := DecodeInto(&dst, data)
		if (err == nil) != (errInto == nil) {
			t.Fatalf("Decode err=%v but DecodeInto err=%v", err, errInto)
		}
		if err != nil {
			return
		}
		if vErr := got.Validate(); vErr != nil {
			t.Fatalf("accepted tile fails validation: %v", vErr)
		}
		if _, err := Decode(got.Encode()); err != nil {
			t.Fatalf("re-encoded tile rejected: %v", err)
		}
	})
}

// TestCopyInto drives one destination through copies of different shapes —
// weighted and not, growing and shrinking, with and without filter — and
// checks each copy encodes identically to its source and shares none of its
// storage. A warm copy of a same-sized tile allocates nothing.
func TestCopyInto(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	var dst Tile
	for i, shape := range []struct {
		hi       uint32
		weighted bool
		filter   bool
	}{{40, false, true}, {90, true, true}, {10, true, false}, {60, false, false}, {90, true, true}} {
		src := buildTile(rng, uint32(i), 0, shape.hi, 500, shape.weighted)
		if shape.filter {
			src.BuildFilter(0.01)
		}
		want := src.Encode()
		got := src.CopyInto(&dst)
		if got != &dst || !slices.Equal(dst.Encode(), want) {
			t.Fatalf("shape %d: copy encodes differently from its source", i)
		}
		if dst.Weighted() != shape.weighted || (dst.Filter != nil) != shape.filter {
			t.Fatalf("shape %d: weighted=%v filter=%v", i, dst.Weighted(), dst.Filter != nil)
		}
		if len(src.Col) > 0 {
			src.Col[0]++ // the copy owns its storage
			if dst.Col[0] == src.Col[0] {
				t.Fatalf("shape %d: copy aliases the source's edges", i)
			}
		}
	}
	if racedetect.Enabled {
		return
	}
	src := buildBigTile(1<<12, true)
	src.BuildFilter(0.01)
	src.CopyInto(&dst)
	if allocs := testing.AllocsPerRun(20, func() { src.CopyInto(&dst) }); allocs != 0 {
		t.Errorf("warm CopyInto allocates %.1f times, want 0", allocs)
	}
}
