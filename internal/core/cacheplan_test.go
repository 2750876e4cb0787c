package core_test

// End-to-end pins for cache planning on measured compression ratios: the
// mode, the eviction policy, the residency tier and the prefetch depth all
// follow the ratio γ̂ the servers measure on their own tiles, not the
// paper's planning figures, and results stay bit-identical either way.

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/compress"
	. "repro/internal/core"
	"repro/internal/graph"
	"repro/internal/tile"
)

// quarterBudget returns a config whose per-server cache holds a quarter of
// the server's share of the tiles.
func quarterBudget(t *testing.T, p *tile.Partition, servers int) Config {
	cfg := DefaultConfig(servers)
	cfg.WorkDir = t.TempDir()
	cfg.MaxSupersteps = 8
	cfg.CacheCapacity = p.TotalTileBytes() / int64(servers) / 4
	return cfg
}

// singleServerValues is the PageRank oracle: one server, unlimited cache,
// cfg's superstep bound.
func singleServerValues(t *testing.T, p *tile.Partition, cfg Config) []float64 {
	ref := DefaultConfig(1)
	ref.MaxSupersteps = cfg.MaxSupersteps
	return serialValues(t, p, ref, apps.PageRank{})
}

// TestMeasuredRatioKeepsPoorTilesRaw: RMAT tiles compress far below the
// paper's planning ratios, so at a 25% budget no codec fits and the servers
// keep tiles raw, hide the misses with the sweep-ahead prefetcher and
// report the zlib-3 ratio that fell short. Under the planning ratios the
// same budget would have picked a compressed mode.
func TestMeasuredRatioKeepsPoorTilesRaw(t *testing.T) {
	el := graph.GenerateRMAT(graph.DefaultRMAT(), 4000, 80_000, 7)
	p, err := tile.Split(el, tile.Options{TileSize: el.NumEdges()/16 + 1})
	if err != nil {
		t.Fatal(err)
	}
	const servers = 2
	cfg := quarterBudget(t, p, servers)
	if got := compress.SelectCacheMode(p.TotalTileBytes()/servers, cfg.CacheCapacity); got == compress.None {
		t.Fatal("planning ratios keep tiles raw at 25%; the test needs a compressed pick")
	}
	res, err := New(cfg).Run(Input{Partition: p}, apps.PageRank{})
	if err != nil {
		t.Fatal(err)
	}
	for _, sv := range res.Servers {
		t.Logf("server %d: zlib-3 measured %.2f, prefetch issued %d", sv.Server, sv.CacheRatio, sv.PrefetchIssued)
		if sv.CacheMode != compress.None {
			t.Errorf("server %d picked %s, want raw", sv.Server, sv.CacheMode)
		}
		if sv.CacheRatio <= 1 || sv.CacheRatio >= 4 {
			t.Errorf("server %d reports zlib-3 ratio %.2f, want a measured RMAT ratio in (1, 4)", sv.Server, sv.CacheRatio)
		}
		if sv.PrefetchIssued == 0 || sv.PrefetchHits == 0 {
			t.Errorf("server %d prefetched nothing (issued %d, hits %d)", sv.Server, sv.PrefetchIssued, sv.PrefetchHits)
		}
	}
	wantExact(t, res.Values, singleServerValues(t, p, cfg), "raw at 25%")
}

// TestMeasuredRatioKeepsCompressedModeWhenItFits: a lattice whose sources
// run in sequence compresses well, so at the same 25% budget a measured
// ratio fits, the paper's compressed mode stays, and the compressed tiles
// fit the cache whole, so no prefetcher runs.
func TestMeasuredRatioKeepsCompressedModeWhenItFits(t *testing.T) {
	const n, degree = 6000, 12
	el := &graph.EdgeList{NumVertices: n}
	for v := uint32(0); v < n; v++ {
		for d := uint32(1); d <= degree; d++ {
			el.Edges = append(el.Edges, graph.Edge{Src: (v + d) % n, Dst: v})
		}
	}
	// No Bloom filters: their bits are incompressible by design.
	p, err := tile.Split(el, tile.Options{TileSize: len(el.Edges)/16 + 1, BloomFPRate: -1})
	if err != nil {
		t.Fatal(err)
	}
	const servers = 2
	cfg := quarterBudget(t, p, servers)
	res, err := New(cfg).Run(Input{Partition: p}, apps.PageRank{})
	if err != nil {
		t.Fatal(err)
	}
	for _, sv := range res.Servers {
		t.Logf("server %d: %s at measured ratio %.2f", sv.Server, sv.CacheMode, sv.CacheRatio)
		if sv.CacheMode == compress.None {
			t.Errorf("server %d kept tiles raw although ratio %.2f fits 25%%", sv.Server, sv.CacheRatio)
		}
		if sv.CacheRatio < 4 {
			t.Errorf("server %d measured ratio %.2f, want ≥ 4 for a fitting mode", sv.Server, sv.CacheRatio)
		}
		if sv.PrefetchIssued != 0 {
			t.Errorf("server %d prefetched %d tiles with the working set cached", sv.Server, sv.PrefetchIssued)
		}
	}
	wantExact(t, res.Values, singleServerValues(t, p, cfg), "compressed at 25%")
}
