package core

import (
	"bytes"
	"cmp"

	"repro/internal/compress"
)

// Measured cache planning. The paper's mode rule (§IV-B) divides the tile
// bytes by fixed per-codec ratios γᵢ; on skewed graphs real tiles compress
// far less (RMAT tiles: about 1.2, 1.7 and 1.8 for snappy, zlib-1 and
// zlib-3, against the planned 2, 4 and 5), so the fixed figures pick a
// codec whose cache cannot hold what was promised. Each server therefore
// measures γ̂ on a small deterministic sample of its own encoded tiles.

const (
	// ratioSampleBytes bounds the sample γ̂ is measured on, per server.
	ratioSampleBytes = 256 << 10
	// ratioSampleTiles is the number of evenly spaced candidate tiles.
	ratioSampleTiles = 8
)

// ratioSample collects the sample while setup ingests the tiles — whole
// tiles at evenly spaced positions of the assignment, as long as they fit
// ratioSampleBytes; a first candidate larger than the bound is cut to it —
// and measures each codec's γ̂ on it at most once.
type ratioSample struct {
	stride int
	tiles  [][]byte
	bytes  int

	gamma [compress.Zlib3 + 1]float64 // by mode; 0 = not measured yet
	err   error                       // the first failed measurement
}

func newRatioSample(numTiles int) *ratioSample {
	return &ratioSample{stride: max(1, (numTiles+ratioSampleTiles-1)/ratioSampleTiles)}
}

// offer sees the idx-th ingested tile; enc is copied if sampled.
func (rs *ratioSample) offer(idx int, enc []byte) {
	if idx%rs.stride != 0 {
		return
	}
	switch {
	case rs.bytes+len(enc) <= ratioSampleBytes:
	case len(rs.tiles) == 0:
		enc = enc[:ratioSampleBytes]
	default:
		return
	}
	rs.tiles = append(rs.tiles, bytes.Clone(enc))
	rs.bytes += len(enc)
}

// ratio returns the codec's γ̂ on the sample — the lookup
// compress.SelectCacheModeBy calls, zlib-3 first and the others only when
// the choice needs them. A failed measurement is recorded in err and
// answers with the planning ratio.
func (rs *ratioSample) ratio(m compress.Mode) float64 {
	if m == compress.None {
		return 1
	}
	if rs.gamma[m] == 0 {
		g, err := m.MeasureRatio(rs.tiles)
		if err != nil {
			rs.err = cmp.Or(rs.err, err)
			g = m.ExpectedRatio()
		}
		rs.gamma[m] = g
	}
	return rs.gamma[m]
}
