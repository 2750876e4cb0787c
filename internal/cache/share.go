package cache

import (
	"sync"

	"repro/internal/csr"
)

// ShareWindow is the cross-job tile-sharing window of a multi-tenant
// session. Two jobs sweeping the same graph visit the same tiles in the
// same cyclic order; when a tile misses the shared cache (declined
// admission, streaming residency), the job that paid the disk read offers a
// copy here, tagged with a refcount bitmask naming the other in-flight
// jobs. Each of those jobs takes the tile once — clearing its bit — and the
// entry is dropped when the mask empties, so the window holds a tile only
// for the gap between the leading job's sweep and the laggards'.
//
// The window is bounded in bytes (the tiles' SizeBytes), not in tiles, so
// its footprint follows the memory budget whatever the tile size. Offer
// copies the tile into a recycled entry and Take copies it out into the
// taker's scratch, so a steady stream of shares allocates nothing and
// leaves no garbage behind.
//
// The window is strictly non-blocking: a full window skips the offer (the
// lagging job falls back to its own disk read), so no job ever waits on
// another job's pace — sharing degrades, it never deadlocks. Together with
// the cache's single-flight LoadInto (which already merges *concurrent*
// misses for the same tile), this is how two jobs pay one disk read for one
// shared sweep.
type ShareWindow struct {
	mu    sync.Mutex
	cap   int64
	bytes int64
	// live holds the resident entries; a window holds a handful of tiles,
	// so a linear scan beats a map and allocates nothing. free recycles
	// retired entries together with their tile storage.
	live []*shareEntry
	free []*shareEntry

	offers int64
	hits   int64
	skips  int64
}

type shareEntry struct {
	id   int
	tile csr.Tile
	size int64
	refs uint64 // bitmask of job slots that have not taken the tile yet
}

// NewShareWindow returns a window holding at most capBytes of tiles.
// A non-positive capacity yields a window that skips every offer.
func NewShareWindow(capBytes int64) *ShareWindow {
	return &ShareWindow{cap: capBytes}
}

// SetCapacity changes the byte bound. Resident entries stay until taken;
// only later offers see the new bound.
func (w *ShareWindow) SetCapacity(capBytes int64) {
	w.mu.Lock()
	w.cap = capBytes
	w.mu.Unlock()
}

// Offer publishes a copy of t for the consumer slots in mask (a bit per
// job slot, the offering job excluded); t itself is not retained, so it
// may be scratch. Returns whether the tile was retained. An empty mask, a
// duplicate id, or a tile that does not fit the remaining bytes skips the
// offer without copying anything.
func (w *ShareWindow) Offer(id int, t *csr.Tile, mask uint64) bool {
	if t == nil || mask == 0 {
		return false
	}
	size := t.SizeBytes()
	w.mu.Lock()
	defer w.mu.Unlock()
	w.offers++
	if w.findLocked(id) >= 0 {
		return false
	}
	if w.bytes+size > w.cap {
		w.skips++
		return false
	}
	var e *shareEntry
	if n := len(w.free); n > 0 {
		e = w.free[n-1]
		w.free = w.free[:n-1]
	} else {
		e = new(shareEntry)
	}
	e.id, e.size, e.refs = id, size, mask
	t.CopyInto(&e.tile)
	w.live = append(w.live, e)
	w.bytes += size
	return true
}

// Take copies the tile offered for id into dst if slot's bit is still set,
// clearing the bit, and returns dst; the last consumer retires the entry.
func (w *ShareWindow) Take(id int, slot uint64, dst *csr.Tile) (*csr.Tile, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	i := w.findLocked(id)
	if i < 0 || w.live[i].refs&slot == 0 {
		return nil, false
	}
	e := w.live[i]
	e.tile.CopyInto(dst)
	e.refs &^= slot
	if e.refs == 0 {
		w.retireLocked(i)
	}
	w.hits++
	return dst, true
}

// DropConsumer clears slot's bit from every resident entry — called when a
// job finishes so its unconsumed offers stop pinning window capacity.
func (w *ShareWindow) DropConsumer(slot uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i := len(w.live) - 1; i >= 0; i-- {
		if w.live[i].refs &^= slot; w.live[i].refs == 0 {
			w.retireLocked(i)
		}
	}
}

func (w *ShareWindow) findLocked(id int) int {
	for i, e := range w.live {
		if e.id == id {
			return i
		}
	}
	return -1
}

// retireLocked moves live[i] to the freelist (order of live is irrelevant).
func (w *ShareWindow) retireLocked(i int) {
	e := w.live[i]
	last := len(w.live) - 1
	w.live[i] = w.live[last]
	w.live[last] = nil
	w.live = w.live[:last]
	w.bytes -= e.size
	w.free = append(w.free, e)
}

// Len returns the number of resident entries.
func (w *ShareWindow) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.live)
}

// ShareStats is a snapshot of the window's counters.
type ShareStats struct {
	// Offers counts Offer calls; Skips the offers declined for capacity;
	// Hits the successful Takes (each one is a disk read a lagging job did
	// not pay).
	Offers, Skips, Hits int64
}

// Stats returns a snapshot of the window's counters.
func (w *ShareWindow) Stats() ShareStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return ShareStats{Offers: w.offers, Skips: w.skips, Hits: w.hits}
}
