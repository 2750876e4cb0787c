package cache

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/csr"
	"repro/internal/racedetect"
)

func shareTile(t *testing.T, id int) *csr.Tile {
	t.Helper()
	return &csr.Tile{
		ID: uint32(id), TargetLo: 0, TargetHi: 2, NumVertices: 8,
		Row: []uint32{0, 1, 1}, Col: []uint32{3},
	}
}

// shareTileBytes is shareTile's SizeBytes: three row offsets, one edge.
const shareTileBytes = 16

func TestShareWindowOfferTake(t *testing.T) {
	w := NewShareWindow(4 * shareTileBytes)
	tl := shareTile(t, 1)
	const slotA, slotB = 1 << 0, 1 << 1

	if !w.Offer(1, tl, slotA|slotB) {
		t.Fatal("offer declined with free capacity")
	}
	tl.Col[0] = 5 // the window holds a copy: the offerer may reuse its scratch
	var dst csr.Tile
	got, ok := w.Take(1, slotA, &dst)
	if !ok || got != &dst || got.ID != 1 || !slices.Equal(got.Col, []uint32{3}) {
		t.Fatalf("take A = (%+v,%v), want a copy of tile 1 in dst", got, ok)
	}
	// Second take by the same slot misses: the bit was cleared.
	if _, ok := w.Take(1, slotA, &dst); ok {
		t.Fatal("double take by one slot succeeded")
	}
	if w.Len() != 1 {
		t.Fatalf("len = %d, want 1 (slot B pending)", w.Len())
	}
	if _, ok := w.Take(1, slotB, &dst); !ok {
		t.Fatal("take B missed")
	}
	if w.Len() != 0 {
		t.Fatalf("len = %d, want 0 after last consumer", w.Len())
	}
	if s := w.Stats(); s.Hits != 2 || s.Offers != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestShareWindowNonBlockingWhenFull(t *testing.T) {
	w := NewShareWindow(2 * shareTileBytes)
	for id := 0; id < 2; id++ {
		if !w.Offer(id, shareTile(t, id), 1) {
			t.Fatalf("offer %d declined", id)
		}
	}
	// Full: the offer is skipped, never blocked.
	if w.Offer(2, shareTile(t, 2), 1) {
		t.Fatal("offer accepted past capacity")
	}
	if s := w.Stats(); s.Skips != 1 {
		t.Fatalf("skips = %d, want 1", s.Skips)
	}
	// Duplicate ids are skipped too.
	if w.Offer(0, shareTile(t, 0), 1) {
		t.Fatal("duplicate offer accepted")
	}
	// Empty masks never pin capacity.
	w.Take(0, 1, new(csr.Tile))
	if w.Offer(3, shareTile(t, 3), 0) {
		t.Fatal("empty-mask offer accepted")
	}
}

func TestShareWindowDropConsumer(t *testing.T) {
	w := NewShareWindow(8 * shareTileBytes)
	const slotA, slotB = 1 << 2, 1 << 3
	w.Offer(1, shareTile(t, 1), slotA|slotB)
	w.Offer(2, shareTile(t, 2), slotA)
	// Job A exits: its pending refs vanish; entry 2 (A-only) is dropped.
	w.DropConsumer(slotA)
	if w.Len() != 1 {
		t.Fatalf("len = %d, want 1", w.Len())
	}
	if _, ok := w.Take(1, slotA, new(csr.Tile)); ok {
		t.Fatal("dropped consumer still took a tile")
	}
	if _, ok := w.Take(1, slotB, new(csr.Tile)); !ok {
		t.Fatal("surviving consumer lost its ref")
	}
	if w.Len() != 0 {
		t.Fatalf("len = %d, want 0", w.Len())
	}
}

// TestShareWindowConcurrent hammers the window from several goroutines so
// `make race` covers the locking.
func TestShareWindowConcurrent(t *testing.T) {
	w := NewShareWindow(16 * shareTileBytes)
	tiles := make([]*csr.Tile, 64)
	for i := range tiles {
		tiles[i] = shareTile(t, i)
	}
	var wg sync.WaitGroup
	for slot := 0; slot < 4; slot++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			bit := uint64(1) << slot
			others := uint64(0xF) &^ bit
			var dst csr.Tile
			for i, tl := range tiles {
				w.Offer(i, tl, others)
				if got, ok := w.Take(i, bit, &dst); ok && got.ID != uint32(i) {
					t.Errorf("slot %d took wrong tile for id %d", slot, i)
				}
			}
			w.DropConsumer(bit)
		}(slot)
	}
	wg.Wait()
}

// TestShareWindowByteBound: the bound is bytes, not tiles — one large tile
// can fill the window that would hold several small ones, and taking it
// frees exactly its bytes for the next offer.
func TestShareWindowByteBound(t *testing.T) {
	big := &csr.Tile{ID: 9, TargetLo: 0, TargetHi: 3, NumVertices: 8,
		Row: []uint32{0, 2, 4, 6}, Col: []uint32{1, 2, 3, 4, 5, 6}} // 40 bytes
	w := NewShareWindow(3 * shareTileBytes) // 48 bytes
	if !w.Offer(9, big, 1) {
		t.Fatal("big tile declined by an empty window it fits")
	}
	if w.Offer(1, shareTile(t, 1), 1) {
		t.Fatal("offer accepted past the byte bound")
	}
	if _, ok := w.Take(9, 1, new(csr.Tile)); !ok {
		t.Fatal("take missed")
	}
	for id := 0; id < 3; id++ {
		if !w.Offer(id, shareTile(t, id), 1) {
			t.Fatalf("small offer %d declined after the big tile left", id)
		}
	}
	if w.Offer(3, shareTile(t, 3), 1) {
		t.Fatal("fourth small tile accepted into a three-tile byte budget")
	}
	// Dropping the consumer frees every byte: a fresh three-tile budget
	// takes three tiles again. A zero budget takes none.
	w.DropConsumer(1)
	for id := 10; id < 13; id++ {
		if !w.Offer(id, shareTile(t, id), 1) {
			t.Fatalf("offer %d declined after the consumer left", id)
		}
	}
	w.DropConsumer(1)
	w.SetCapacity(0)
	if w.Offer(4, shareTile(t, 4), 1) || w.Len() != 0 {
		t.Fatalf("zero-capacity window holds %d entries", w.Len())
	}
}

// TestShareWindowSteadyStateAllocs: once the window has recycled entries of
// the right size, a stream of Offer/Take pairs allocates nothing — the
// copies land in recycled tile storage and in the taker's scratch.
func TestShareWindowSteadyStateAllocs(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	src := make([]*csr.Tile, 4)
	for i := range src {
		src[i] = &csr.Tile{ID: uint32(i), TargetLo: 0, TargetHi: 64, NumVertices: 1024,
			Row: make([]uint32, 65), Col: make([]uint32, 512), Val: make([]float32, 512)}
		src[i].BuildFilter(0.01)
	}
	w := NewShareWindow(2 * src[0].SizeBytes())
	var dst csr.Tile
	cycle := func() {
		for i, tl := range src {
			if !w.Offer(i, tl, 0b10) {
				t.Fatal("offer declined")
			}
			if _, ok := w.Take(i, 0b10, &dst); !ok {
				t.Fatal("take missed")
			}
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Errorf("steady Offer/Take allocates %.1f times per cycle, want 0", allocs)
	}
}
