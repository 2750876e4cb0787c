package core

import (
	"bytes"
	"testing"

	"repro/internal/compress"
)

// TestRatioSample pins the sample's shape: evenly spaced whole tiles up to
// ratioSampleBytes, a lone oversized first candidate cut to the bound, and
// each codec measured at most once.
func TestRatioSample(t *testing.T) {
	tile := func(n int) []byte { return bytes.Repeat([]byte{1, 2, 3, 4, 5, 6, 7}, n/7) }

	rs := newRatioSample(16) // stride 2: candidates 0, 2, 4, ...
	for i := 0; i < 16; i++ {
		rs.offer(i, tile(100<<10))
	}
	if len(rs.tiles) != 2 || rs.bytes > ratioSampleBytes {
		t.Fatalf("sampled %d tiles, %d bytes; want 2 whole tiles within %d", len(rs.tiles), rs.bytes, ratioSampleBytes)
	}

	big := newRatioSample(3)
	big.offer(0, tile(1<<20))
	big.offer(1, tile(10))
	if len(big.tiles) != 1 || big.bytes != ratioSampleBytes {
		t.Fatalf("oversized first tile: %d tiles, %d bytes; want one cut to %d", len(big.tiles), big.bytes, ratioSampleBytes)
	}

	if got := rs.ratio(compress.None); got != 1 {
		t.Fatalf("raw ratio %v, want 1", got)
	}
	g := rs.ratio(compress.Zlib3)
	if g < 10 {
		t.Fatalf("zlib-3 ratio %.1f on a repeating pattern, want ≥ 10", g)
	}
	rs.tiles = nil // a second lookup must not measure again
	if again := rs.ratio(compress.Zlib3); again != g || rs.err != nil {
		t.Fatalf("second lookup %v (err %v), want the memoized %v", again, rs.err, g)
	}
}
