package compress

import (
	"bytes"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestRoundTripAllModes(t *testing.T) {
	payloads := map[string][]byte{
		"empty":      nil,
		"tiny":       []byte("x"),
		"text":       bytes.Repeat([]byte("graph processing "), 1000),
		"binaryruns": bytes.Repeat([]byte{0, 0, 0, 1}, 5000),
		"random":     randomBytes(20_000, 5),
	}
	for _, m := range Modes {
		for name, src := range payloads {
			enc, err := m.Compress(src)
			if err != nil {
				t.Fatalf("%s/%s compress: %v", m, name, err)
			}
			dec, err := m.Decompress(enc)
			if err != nil {
				t.Fatalf("%s/%s decompress: %v", m, name, err)
			}
			if !bytes.Equal(dec, src) {
				t.Fatalf("%s/%s round trip mismatch (%d -> %d -> %d)", m, name, len(src), len(enc), len(dec))
			}
		}
	}
}

func randomBytes(n int, seed uint64) []byte {
	rng := rand.New(rand.NewPCG(seed, seed))
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Uint32())
	}
	return b
}

func TestCompressionOrdering(t *testing.T) {
	// On compressible data the paper's ordering must hold:
	// raw ≥ snappy ≥ zlib-1 ≥ zlib-3 (Table V).
	src := bytes.Repeat([]byte("0123456789abcdef edge "), 5000)
	var sizes [4]int
	for i, m := range Modes {
		enc, err := m.Compress(src)
		if err != nil {
			t.Fatal(err)
		}
		sizes[i] = len(enc)
	}
	if !(sizes[0] >= sizes[1] && sizes[1] >= sizes[2] && sizes[2] >= sizes[3]) {
		t.Fatalf("compression sizes not monotone: %v", sizes)
	}
}

func TestModeNames(t *testing.T) {
	want := []string{"raw", "snappy", "zlib-1", "zlib-3"}
	for i, m := range Modes {
		if m.String() != want[i] {
			t.Errorf("mode %d name %q, want %q", i, m.String(), want[i])
		}
		back, err := ModeByName(m.String())
		if err != nil || back != m {
			t.Errorf("ModeByName(%q) = %v, %v", m.String(), back, err)
		}
		if m.CacheModeNumber() != i+1 {
			t.Errorf("cache mode number of %s = %d, want %d", m, m.CacheModeNumber(), i+1)
		}
	}
	if _, err := ModeByName("lz4"); err == nil {
		t.Fatal("unknown codec accepted")
	}
}

func TestExpectedRatios(t *testing.T) {
	// The γ values from §IV-B.
	want := map[Mode]float64{None: 1, Snappy: 2, Zlib1: 4, Zlib3: 5}
	for m, r := range want {
		if m.ExpectedRatio() != r {
			t.Errorf("γ(%s) = %g, want %g", m, m.ExpectedRatio(), r)
		}
	}
}

func TestSelectCacheMode(t *testing.T) {
	cases := []struct {
		tiles, cap int64
		want       Mode
	}{
		{tiles: 100, cap: 100, want: None},  // fits raw
		{tiles: 100, cap: 60, want: Snappy}, // fits at γ=2
		{tiles: 100, cap: 30, want: Zlib1},  // fits at γ=4
		{tiles: 100, cap: 21, want: Zlib3},  // fits at γ=5
		{tiles: 100, cap: 10, want: None},   // nothing fits → tiles stay raw
		{tiles: 100, cap: 0, want: None},    // no cache → raw
		{tiles: 0, cap: 1, want: None},      // empty input fits anywhere
	}
	for _, c := range cases {
		if got := SelectCacheMode(c.tiles, c.cap); got != c.want {
			t.Errorf("SelectCacheMode(%d, %d) = %s, want %s", c.tiles, c.cap, got, c.want)
		}
	}
}

// TestSelectCacheModeBy pins the selection over measured ratios: the
// decision follows the supplied γ̂, not the planning figures, and a
// zlib-3 that cannot fit ends the search before any cheaper codec is
// measured.
func TestSelectCacheModeBy(t *testing.T) {
	// Poorly compressible tiles (the benchmark's RMAT graphs measure about
	// 1.2, 1.7 and 1.8): at a 25% budget nothing fits.
	poor := map[Mode]float64{Snappy: 1.21, Zlib1: 1.72, Zlib3: 1.80}
	var asked []Mode
	ratio := func(m Mode) float64 {
		asked = append(asked, m)
		return poor[m]
	}
	if got := SelectCacheModeBy(100, 25, ratio); got != None {
		t.Fatalf("poor ratios at 25%% chose %s, want raw", got)
	}
	if len(asked) != 1 || asked[0] != Zlib3 {
		t.Fatalf("measured %v, want only zlib-3", asked)
	}
	// The same tiles at a 60% budget: snappy misses (100/1.21 > 60), zlib-1
	// fits.
	if got := SelectCacheModeBy(100, 60, func(m Mode) float64 { return poor[m] }); got != Zlib1 {
		t.Fatalf("poor ratios at 60%% chose %s, want zlib-1", got)
	}
	// Raw fits: nothing is measured.
	asked = asked[:0]
	if got := SelectCacheModeBy(100, 100, ratio); got != None || len(asked) != 0 {
		t.Fatalf("raw fit chose %s after measuring %v", got, asked)
	}
}

// TestMeasureRatio checks γ̂ on data with a known shape: incompressible
// bytes measure at or below 1 for every codec, long runs far above it, and
// raw is exactly 1.
func TestMeasureRatio(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	noise := make([]byte, 32<<10)
	for i := range noise {
		noise[i] = byte(rng.Uint32())
	}
	runs := bytes.Repeat([]byte("graphh-tile "), 4096)
	for _, m := range Modes {
		r, err := m.MeasureRatio([][]byte{noise})
		if err != nil {
			t.Fatal(err)
		}
		if r > 1.001 {
			t.Errorf("%s: random bytes measured %.3f, want ≤ 1", m, r)
		}
		r, err = m.MeasureRatio([][]byte{runs, runs[:1000]})
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case m == None && r != 1:
			t.Errorf("raw measured %.3f, want 1", r)
		case m != None && r < 10:
			t.Errorf("%s: repeated text measured %.3f, want ≥ 10", m, r)
		}
	}
	if r, err := Zlib3.MeasureRatio(nil); err != nil || r != 1 {
		t.Fatalf("empty sample = %v, %v; want 1", r, err)
	}
}

func TestDecompressCorrupt(t *testing.T) {
	for _, m := range []Mode{Snappy, Zlib1, Zlib3} {
		if _, err := m.Decompress([]byte("definitely not compressed")); err == nil {
			t.Errorf("%s accepted garbage", m)
		}
	}
}

// TestZlibFramingErrors covers the zlib framing checks: a damaged
// checksum, a truncated stream, a preset-dictionary flag and a bad header
// all fail instead of returning wrong bytes.
func TestZlibFramingErrors(t *testing.T) {
	src := bytes.Repeat([]byte("tile bytes "), 500)
	for _, m := range []Mode{Zlib1, Zlib3} {
		enc, err := m.Compress(src)
		if err != nil {
			t.Fatal(err)
		}
		damage := func(f func(b []byte) []byte) []byte {
			return f(append([]byte(nil), enc...))
		}
		cases := map[string][]byte{
			"checksum":  damage(func(b []byte) []byte { b[len(b)-1] ^= 1; return b }),
			"truncated": damage(func(b []byte) []byte { return b[:len(b)/2] }),
			"dict": damage(func(b []byte) []byte {
				flg := b[1]&0xc0 | 0x20 // FDICT set, FCHECK recomputed below
				b[1] = flg + byte((31-(uint16(b[0])<<8|uint16(flg))%31)%31)
				return b
			}),
			"header": damage(func(b []byte) []byte { b[0] = 0x79; return b }),
			"short":  enc[:5],
		}
		for name, data := range cases {
			if out, err := m.Decompress(data); err == nil {
				t.Errorf("%s/%s: accepted, got %d bytes", m, name, len(out))
			}
		}
	}
}

func TestInvalidMode(t *testing.T) {
	bad := Mode(99)
	if bad.Valid() {
		t.Fatal("mode 99 claims validity")
	}
	if _, err := bad.Compress([]byte("x")); err == nil {
		t.Fatal("invalid mode compressed")
	}
	if _, err := bad.Decompress([]byte("x")); err == nil {
		t.Fatal("invalid mode decompressed")
	}
}

func TestCompressCopiesInput(t *testing.T) {
	src := []byte("mutable")
	enc, err := None.Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	src[0] = 'X'
	if enc[0] == 'X' {
		t.Fatal("raw mode aliases its input")
	}
}

func TestPropertyRoundTrip(t *testing.T) {
	prop := func(data []byte, modeIdx uint8) bool {
		m := Modes[int(modeIdx)%len(Modes)]
		enc, err := m.Compress(data)
		if err != nil {
			return false
		}
		dec, err := m.Decompress(enc)
		return err == nil && bytes.Equal(dec, data)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
