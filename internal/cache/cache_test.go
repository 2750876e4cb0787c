package cache

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"

	"repro/internal/compress"
	"repro/internal/csr"
	"repro/internal/graph"
	"repro/internal/racedetect"
	"repro/internal/tile"
)

// makeTiles builds a deterministic tile set for cache tests.
func makeTiles(t *testing.T, numTiles int) []*csr.Tile {
	t.Helper()
	el := graph.GenerateRMAT(graph.DefaultRMAT(), 2000, 20_000, 77)
	p, err := tile.Split(el, tile.Options{TileSize: el.NumEdges()/numTiles + 1})
	if err != nil {
		t.Fatal(err)
	}
	return p.Tiles
}

func TestHitAndMiss(t *testing.T) {
	tiles := makeTiles(t, 4)
	c, err := New(1<<30, compress.None)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(0); ok {
		t.Fatal("hit on empty cache")
	}
	if err := c.Put(0, tiles[0]); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(0)
	if !ok {
		t.Fatal("miss after put")
	}
	if got.NumEdges() != tiles[0].NumEdges() {
		t.Fatal("cache returned wrong tile")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Entries != 1 {
		t.Fatalf("stats %+v", s)
	}
	if s.HitRatio() != 0.5 {
		t.Fatalf("hit ratio %g, want 0.5", s.HitRatio())
	}
}

func TestCompressedModesRoundTrip(t *testing.T) {
	tiles := makeTiles(t, 3)
	for _, mode := range compress.Modes {
		c, err := New(1<<30, mode)
		if err != nil {
			t.Fatal(err)
		}
		for i, tl := range tiles {
			if err := c.Put(i, tl); err != nil {
				t.Fatal(err)
			}
		}
		for i, want := range tiles {
			got, ok := c.Get(i)
			if !ok {
				t.Fatalf("%s: miss on tile %d", mode, i)
			}
			if got.NumEdges() != want.NumEdges() || got.TargetLo != want.TargetLo {
				t.Fatalf("%s: tile %d corrupted", mode, i)
			}
			for j := range want.Col {
				if got.Col[j] != want.Col[j] {
					t.Fatalf("%s: tile %d col[%d] mismatch", mode, i, j)
				}
			}
		}
		if mode != compress.None {
			if c.Stats().DecompressTime <= 0 {
				t.Errorf("%s: decompression time not accounted", mode)
			}
		}
	}
}

func TestCompressedModeUsesLessMemory(t *testing.T) {
	tiles := makeTiles(t, 2)
	raw, _ := New(1<<30, compress.None)
	zl, _ := New(1<<30, compress.Zlib3)
	for i, tl := range tiles {
		raw.Put(i, tl)
		zl.Put(i, tl)
	}
	rb, zb := raw.Stats().BytesCached, zl.Stats().BytesCached
	if zb >= rb {
		t.Fatalf("zlib-3 cache (%dB) not smaller than raw (%dB)", zb, rb)
	}
}

func TestLRUEviction(t *testing.T) {
	tiles := makeTiles(t, 6)
	// Capacity that holds any two of the first three tiles but not all
	// three, so inserting the third forces exactly one eviction.
	capacity := tiles[0].SizeBytes() + tiles[1].SizeBytes() + tiles[2].SizeBytes() - 1
	c, err := NewLRU(capacity, compress.None)
	if err != nil {
		t.Fatal(err)
	}
	c.Put(0, tiles[0])
	c.Put(1, tiles[1])
	if _, ok := c.Get(0); !ok { // touch 0 so 1 becomes LRU
		t.Fatal("tile 0 should be cached")
	}
	c.Put(2, tiles[2]) // must evict tile 1
	if _, ok := c.Get(1); ok {
		t.Fatal("LRU victim still cached")
	}
	if _, ok := c.Get(0); !ok {
		t.Fatal("recently used tile evicted")
	}
	if c.Stats().Evictions == 0 {
		t.Fatal("eviction not counted")
	}
	if got := c.Stats().BytesCached; got > capacity {
		t.Fatalf("cache over capacity: %d > %d", got, capacity)
	}
}

func TestOversizeTileNotCached(t *testing.T) {
	tiles := makeTiles(t, 2)
	c, err := New(10, compress.None) // tiny capacity
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(0, tiles[0]); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(0); ok {
		t.Fatal("oversize tile cached")
	}
}

func TestZeroCapacity(t *testing.T) {
	tiles := makeTiles(t, 2)
	c, err := New(0, compress.Snappy)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(0, tiles[0]); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(0); ok {
		t.Fatal("zero-capacity cache stored a tile")
	}
}

func TestPutReplaces(t *testing.T) {
	tiles := makeTiles(t, 3)
	c, _ := New(1<<30, compress.None)
	c.Put(0, tiles[0])
	c.Put(0, tiles[1]) // same id, different tile
	got, ok := c.Get(0)
	if !ok || got.TargetLo != tiles[1].TargetLo {
		t.Fatal("replacement did not take effect")
	}
	if s := c.Stats(); s.Entries != 1 {
		t.Fatalf("duplicate entries after replace: %+v", s)
	}
}

func TestGetOrLoad(t *testing.T) {
	tiles := makeTiles(t, 2)
	c, _ := New(1<<30, compress.Snappy)
	loads := 0
	loader := func() (*csr.Tile, error) {
		loads++
		return tiles[0], nil
	}
	for i := 0; i < 3; i++ {
		got, err := c.GetOrLoad(0, loader)
		if err != nil {
			t.Fatal(err)
		}
		if got.NumEdges() != tiles[0].NumEdges() {
			t.Fatal("wrong tile from GetOrLoad")
		}
	}
	if loads != 1 {
		t.Fatalf("loader called %d times, want 1", loads)
	}
	// Loader errors propagate.
	_, err := c.GetOrLoad(9, func() (*csr.Tile, error) {
		return nil, fmt.Errorf("disk exploded")
	})
	if err == nil {
		t.Fatal("loader error swallowed")
	}
}

func TestNewAutoSelectsByCapacity(t *testing.T) {
	// Plenty of room: raw. Tight: compressed.
	big, err := NewAuto(1000, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if big.Mode() != compress.None {
		t.Fatalf("ample capacity chose %s", big.Mode())
	}
	tight, err := NewAuto(10_000, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if tight.Mode() != compress.Zlib1 {
		t.Fatalf("tight capacity chose %s, want zlib-1", tight.Mode())
	}
}

func TestInvalidMode(t *testing.T) {
	if _, err := New(100, compress.Mode(42)); err == nil {
		t.Fatal("invalid mode accepted")
	}
	if _, err := NewWithPolicy(100, compress.None, Policy(7)); err == nil {
		t.Fatal("invalid policy accepted")
	}
}

func TestAdmitNoEvictKeepsStableSet(t *testing.T) {
	// The paper's policy: under cyclic access, the first tiles to fit stay
	// cached and the hit ratio settles at the cached fraction instead of
	// thrashing to zero as LRU would.
	tiles := makeTiles(t, 4)
	capacity := tiles[0].SizeBytes() + tiles[1].SizeBytes() + 1
	paper, err := New(capacity, compress.None)
	if err != nil {
		t.Fatal(err)
	}
	lru, err := NewLRU(capacity, compress.None)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 10; round++ {
		for id, tl := range tiles {
			if _, ok := paper.Get(id); !ok {
				paper.Put(id, tl)
			}
			if _, ok := lru.Get(id); !ok {
				lru.Put(id, tl)
			}
		}
	}
	ps, ls := paper.Stats(), lru.Stats()
	if ps.Evictions != 0 {
		t.Fatalf("paper policy evicted %d entries", ps.Evictions)
	}
	// ~2 of 4 tiles cached → hit ratio near 0.5 after warmup.
	if ps.HitRatio() < 0.3 {
		t.Fatalf("paper policy hit ratio %.2f, want ≥0.3", ps.HitRatio())
	}
	// Cyclic access at this capacity thrashes LRU to (near) zero hits.
	if ls.HitRatio() > ps.HitRatio() {
		t.Fatalf("LRU (%.2f) beat no-evict (%.2f) on cyclic access", ls.HitRatio(), ps.HitRatio())
	}
}

func TestConcurrentAccess(t *testing.T) {
	tiles := makeTiles(t, 8)
	c, _ := New(tiles[0].SizeBytes()*4, compress.Snappy)
	var wg sync.WaitGroup
	rng := rand.New(rand.NewPCG(1, 2))
	ids := make([]int, 64)
	for i := range ids {
		ids[i] = int(rng.Uint32N(8))
	}
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, id := range ids {
				if _, ok := c.Get(id); !ok {
					c.Put(id, tiles[id])
				}
			}
		}(w)
	}
	wg.Wait()
	s := c.Stats()
	if s.Hits+s.Misses == 0 {
		t.Fatal("no accesses recorded")
	}
}

func TestResetStats(t *testing.T) {
	tiles := makeTiles(t, 2)
	c, _ := New(1<<30, compress.None)
	c.Put(0, tiles[0])
	c.Get(0)
	c.Get(5)
	c.ResetStats()
	s := c.Stats()
	if s.Hits != 0 || s.Misses != 0 {
		t.Fatalf("stats not reset: %+v", s)
	}
	if s.Entries != 1 {
		t.Fatal("reset dropped contents")
	}
}

// TestDeclinedPutSkipsCompression: a nearly full zlib-3 cache must decline
// a miss without compressing it. The room left (30% of the tile's size)
// clears the codec's planning estimate (size/5) but not the ratio the
// cache's own first admission measured (about 1.8 on RMAT tiles), so the
// decline happens before any work and allocates nothing.
func TestDeclinedPutSkipsCompression(t *testing.T) {
	tiles := makeTiles(t, 4)
	first, err := compress.Zlib3.Compress(tiles[0].Encode())
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(int64(len(first))+tiles[1].SizeBytes()*3/10, compress.Zlib3)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(0, tiles[0]); err != nil || !c.Contains(0) {
		t.Fatalf("first tile not admitted (err %v)", err)
	}
	put := func() {
		if err := c.Put(1, tiles[1]); err != nil {
			t.Fatal(err)
		}
	}
	put()
	if c.Contains(1) {
		t.Fatal("tile admitted past capacity")
	}
	if racedetect.Enabled {
		return
	}
	if allocs := testing.AllocsPerRun(20, put); allocs != 0 {
		t.Errorf("declined Put allocates %.1f times, want 0 (compressed before declining)", allocs)
	}
}

// TestSetExpectedRatio: before its first compression the cache estimates
// entry sizes with the ratio it was given; with none, the codec's planning
// ratio.
func TestSetExpectedRatio(t *testing.T) {
	tiles := makeTiles(t, 4)
	size := tiles[0].SizeBytes()
	for _, tc := range []struct {
		hint       float64
		compressed bool
	}{{0, true}, {1.2, false}} {
		c, err := New(size/3, compress.Zlib3) // room for size/5, not size/1.2
		if err != nil {
			t.Fatal(err)
		}
		c.SetExpectedRatio(tc.hint)
		if err := c.Put(0, tiles[0]); err != nil {
			t.Fatal(err)
		}
		// With the planning ratio the tile is compressed (and then
		// declined); with the measured hint it is declined unseen.
		if got := c.seenStored > 0; got != tc.compressed {
			t.Errorf("hint %.1f: compressed = %v, want %v", tc.hint, got, tc.compressed)
		}
	}
}
