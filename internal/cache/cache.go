// Package cache implements GraphH's edge cache system (§IV-B): a
// capacity-bounded in-memory tile cache built on the idle memory of each
// server, used to avoid re-reading tiles from local disk every superstep.
//
// The cache operates in one of the paper's four modes. Mode-1 keeps decoded
// tiles (no load overhead, largest footprint); modes 2–4 keep tiles
// compressed with snappy, zlib-1 or zlib-3 respectively, trading CPU
// decompression time for a higher hit ratio under the same capacity. The
// mode can be chosen automatically from the total tile size and capacity
// using the paper's rule (compress.SelectCacheMode).
//
// Three eviction policies are provided. AdmitNoEvict is the paper's: admit
// while room remains, never evict — Figure 7(b) shows it beating LRU
// because a BSP superstep sweeps tiles cyclically, the worst case for
// recency eviction. LRU is kept as that ablation baseline. Clock is a
// superstep-aware CLOCK/k-chance policy that fixes AdmitNoEvict's blind
// spot (a frozen resident set that cannot follow a shifting working set):
// the engine calls AdvanceEpoch at every superstep boundary, entries
// touched in the current epoch are protected, and entries untouched for k
// consecutive epochs become eviction victims.
//
// Invariants: the cache never stores an entry larger than its capacity and
// never exceeds capacity overall; entries returned in mode None alias cache
// storage and must not be mutated; a tile handed to Put in mode None
// transfers ownership to the cache. A full AdmitNoEvict cache "settles"
// (declines without doing admission work) until capacity is freed; a full
// Clock cache settles only until the next epoch.
package cache

import (
	"container/list"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/compress"
	"repro/internal/csr"
)

// Stats reports cache effectiveness, the metrics behind Figure 7.
// The json tags pin the wire schema nested under ServerStats.Cache in the
// graphhd daemon's JSON output; keep the lower_snake names stable.
type Stats struct {
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Evictions   int64 `json:"evictions"`
	BytesCached int64 `json:"bytes_cached"`
	Entries     int   `json:"entries"`
	// DecompressTime accumulates time spent decompressing and decoding on
	// hits — the overhead that makes zlib-3 slower than raw at equal hit
	// ratio (Figure 7a).
	DecompressTime time.Duration `json:"decompress_time_ns"`
}

// HitRatio returns hits/(hits+misses), or 0 before any access.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

type entry struct {
	id int
	// exactly one of tile/blob is set, depending on the cache mode
	tile *csr.Tile
	blob []byte
	size int64
	elem *list.Element
	// lastEpoch is the epoch (superstep) of the entry's last touch —
	// admission or hit. The Clock policy's reference test reads it; the
	// other policies ignore it.
	lastEpoch int64
}

// Policy selects the admission/eviction behaviour.
type Policy int

const (
	// AdmitNoEvict is the paper's policy (§IV-B): a loaded tile is "left in
	// the cache system if the cache system is not full"; nothing is ever
	// evicted. Under the cyclic tile access of a superstep loop this
	// yields a stable hit ratio equal to the cached fraction of tiles —
	// the behaviour Figure 7(b) plots — where LRU would thrash to zero.
	AdmitNoEvict Policy = iota
	// LRU evicts least-recently-used entries to admit new ones. Kept as the
	// Figure 7(b) ablation baseline: a superstep sweeps every tile exactly
	// once, so each tile's reuse distance equals the whole working set and
	// LRU always evicts the tile that will be needed soonest.
	LRU
	// Clock is the superstep-aware CLOCK/k-chance policy. The caller marks
	// superstep boundaries with AdvanceEpoch; an entry touched in the
	// current epoch is protected, and an entry untouched for k consecutive
	// epochs (k = DefaultChances, see SetChances) becomes an eviction
	// victim. Under a stable cyclic working set no entry ever ages out, so
	// Clock degenerates to AdmitNoEvict's stable resident set — but when
	// the working set shifts (tiles stop being accessed, e.g. Bloom
	// skipping prunes them), stale entries age out after k sweeps and the
	// freed room re-admits the live set.
	Clock
)

// Policies lists every eviction policy in declaration order.
var Policies = []Policy{AdmitNoEvict, LRU, Clock}

// String returns the policy name used in experiment output and CLI flags.
func (p Policy) String() string {
	switch p {
	case AdmitNoEvict:
		return "admit-no-evict"
	case LRU:
		return "lru"
	case Clock:
		return "clock"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// PolicyByName parses a policy name as printed by String.
func PolicyByName(name string) (Policy, error) {
	for _, p := range Policies {
		if p.String() == name {
			return p, nil
		}
	}
	return AdmitNoEvict, fmt.Errorf("cache: unknown policy %q", name)
}

// MarshalJSON encodes the policy as its String name — the stable wire form
// of ServerStats.CachePolicy in the graphhd daemon's JSON schema.
func (p Policy) MarshalJSON() ([]byte, error) { return json.Marshal(p.String()) }

// UnmarshalJSON parses the name form written by MarshalJSON.
func (p *Policy) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	pol, err := PolicyByName(name)
	if err != nil {
		return err
	}
	*p = pol
	return nil
}

// DefaultChances is the Clock policy's default k: an entry must go untouched
// for two consecutive epochs before it becomes a victim. One epoch of grace
// is the minimum that keeps entries not yet reached by the current sweep
// from being victimized at the sweep's start; two make the policy robust to
// a single skipped sweep (a Bloom-pruned superstep).
const DefaultChances = 2

// noEpoch marks "no decline recorded"; real epochs start at 0.
const noEpoch int64 = -1

// Cache is a bounded tile cache. It is safe for concurrent use by the
// workers of one server.
type Cache struct {
	capacity int64
	mode     compress.Mode
	policy   Policy

	// scratch recycles decompression buffers across Get calls so compressed
	// hits do not allocate a fresh body per access.
	scratch sync.Pool

	mu      sync.Mutex
	entries map[int]*entry
	// lru orders entries for victim selection. LRU: front = most recently
	// used, evict from the back. Clock: insertion order (front = newest
	// admission), swept back-to-front; hits do not reorder, so the ring is
	// deterministic for a deterministic access sequence.
	lru   *list.List
	bytes int64
	stats Stats
	// declined is set when an AdmitNoEvict insertion is turned away for
	// capacity: from then on the cache is effectively full for the cyclic
	// access pattern of a superstep loop, so miss paths can decode into
	// caller scratch instead of allocating tiles that will not be retained.
	// It is cleared whenever capacity frees up (entry removal), so a
	// shifted tile assignment re-opens admission — the re-admission fix.
	declined bool
	// epoch counts AdvanceEpoch calls — the superstep clock of the Clock
	// policy's reference test.
	epoch int64
	// chances is the Clock policy's k (DefaultChances unless overridden).
	chances int64
	// declinedEpoch/declinedSize record the last Clock admission declined
	// for want of victims: the epoch it happened in and the smallest size
	// refused. Within one epoch the victim set can only shrink (touches
	// protect, ages change only at epoch boundaries), so a failed eviction
	// scan settles admission-by-eviction for tiles at least that large
	// until the next epoch — later same-or-larger misses in the sweep skip
	// the scan and the compression work, while a smaller tile (which needs
	// less room) still gets its own scan.
	declinedEpoch int64
	declinedSize  int64
	// ratioHint is the compression ratio Put assumes before the cache has
	// compressed anything itself (SetExpectedRatio; 0 = the codec's
	// planning ratio). seenSize/seenStored total the tile sizes and blob
	// sizes of every compression Put has done since: their quotient, the
	// ratio this cache's own tiles actually compress at, replaces the hint
	// once known.
	ratioHint            float64
	seenSize, seenStored int64
	// flights single-flights concurrent LoadInto calls per tile id: the
	// first loader becomes the leader, later callers wait on flightCond and
	// reuse its result instead of issuing duplicate disk reads. Retired
	// flight records are recycled through flightFree so the steady state
	// allocates nothing.
	flights    map[int]*flight
	flightCond *sync.Cond
	flightFree []*flight
}

// flight is one in-progress tile load. Guarded by Cache.mu.
type flight struct {
	done    bool
	err     error
	shared  *csr.Tile // leader's tile for waiters to copy when it was not admitted
	waiters int
}

// New creates a cache with the given capacity in bytes and mode, using the
// paper's admit-without-eviction policy. A zero or negative capacity yields
// a cache that stores nothing (every access is a miss), modelling a server
// with no idle memory.
func New(capacityBytes int64, mode compress.Mode) (*Cache, error) {
	return NewWithPolicy(capacityBytes, mode, AdmitNoEvict)
}

// NewLRU creates a cache that evicts least-recently-used tiles when full.
func NewLRU(capacityBytes int64, mode compress.Mode) (*Cache, error) {
	return NewWithPolicy(capacityBytes, mode, LRU)
}

// NewClock creates a cache with the superstep-aware CLOCK/k-chance policy
// (k = DefaultChances). The owner must call AdvanceEpoch once per superstep
// for the aging machinery to act; without it Clock behaves like
// AdmitNoEvict.
func NewClock(capacityBytes int64, mode compress.Mode) (*Cache, error) {
	return NewWithPolicy(capacityBytes, mode, Clock)
}

// NewWithPolicy creates a cache with an explicit policy.
func NewWithPolicy(capacityBytes int64, mode compress.Mode, policy Policy) (*Cache, error) {
	if !mode.Valid() {
		return nil, fmt.Errorf("cache: invalid mode %d", int(mode))
	}
	if policy != AdmitNoEvict && policy != LRU && policy != Clock {
		return nil, fmt.Errorf("cache: invalid policy %d", int(policy))
	}
	c := &Cache{
		capacity:      capacityBytes,
		mode:          mode,
		policy:        policy,
		entries:       make(map[int]*entry),
		lru:           list.New(),
		chances:       DefaultChances,
		declinedEpoch: noEpoch,
		flights:       make(map[int]*flight),
	}
	c.flightCond = sync.NewCond(&c.mu)
	c.scratch.New = func() any { return new([]byte) }
	return c, nil
}

// NewAuto creates a cache whose mode is selected by the paper's rule from
// the total tile bytes that will compete for the capacity.
func NewAuto(totalTileBytes, capacityBytes int64) (*Cache, error) {
	return New(capacityBytes, compress.SelectCacheMode(totalTileBytes, capacityBytes))
}

// Mode returns the cache's codec mode.
func (c *Cache) Mode() compress.Mode { return c.mode }

// Capacity returns the configured capacity in bytes.
func (c *Cache) Capacity() int64 { return c.capacity }

// Policy returns the cache's eviction policy.
func (c *Cache) Policy() Policy { return c.policy }

// SetExpectedRatio sets the compression ratio the cache assumes before it
// has compressed a tile of its own — the engine passes the ratio it
// measured on a sample of its tiles. Non-positive values restore the
// codec's planning ratio. Call before use.
func (c *Cache) SetExpectedRatio(r float64) {
	c.mu.Lock()
	c.ratioHint = r
	c.mu.Unlock()
}

// expectedRatioLocked is the ratio Put's pre-compression size estimate
// divides by: what this cache has measured on its own compressions, the
// hint before that, and the codec's planning ratio without either.
func (c *Cache) expectedRatioLocked() float64 {
	switch {
	case c.seenStored > 0:
		return float64(c.seenSize) / float64(c.seenStored)
	case c.ratioHint > 0:
		return c.ratioHint
	}
	return c.mode.ExpectedRatio()
}

// SetChances overrides the Clock policy's k — the number of consecutive
// epochs an entry must go untouched before it becomes an eviction victim.
// Values below 1 are clamped to 1 (victimize anything untouched in the
// current epoch). Call before use; k is not synchronized with ongoing
// accesses.
func (c *Cache) SetChances(k int) {
	if k < 1 {
		k = 1
	}
	c.chances = int64(k)
}

// AdvanceEpoch marks a superstep boundary: one full cyclic sweep of the
// workers over their tiles has completed. The Clock policy keys its
// reference test on this counter — entries touched in the current epoch are
// protected, entries untouched for k epochs become victims — and a "cache
// full" decline settles admission only until the next epoch. A no-op for
// the other policies.
func (c *Cache) AdvanceEpoch() {
	c.mu.Lock()
	c.epoch++
	c.mu.Unlock()
}

// Remove drops the entry with the given id, reporting whether it was
// present. Freed capacity un-settles earlier admission declines, so callers
// whose tile assignment changes (rebalance, shard handoff) can evict the
// departed tiles and have the cache re-admit the remaining workload.
func (c *Cache) Remove(id int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[id]
	c.removeLocked(id)
	return ok
}

// Get returns the cached tile with the given id, or (nil, false) on a miss.
// For compressed modes the tile is decompressed and decoded on the fly;
// failures are treated as misses and the entry dropped.
func (c *Cache) Get(id int) (*csr.Tile, bool) {
	return c.GetInto(id, nil)
}

// GetInto is Get with a caller-owned destination tile: compressed hits are
// decoded into dst (reusing its arrays) instead of a fresh tile, making the
// hit path allocation-free in steady state. In mode None the cached tile
// itself is returned and dst is untouched, so callers must always use the
// returned tile. A nil dst decodes into a fresh tile.
func (c *Cache) GetInto(id int, dst *csr.Tile) (*csr.Tile, bool) {
	return c.getInto(id, dst, true)
}

// Contains reports whether id is resident right now, with no side effects:
// no hit/miss accounting and no recency touch. The prefetcher's peek at the
// resident set must not protect entries from aging out or skew the hit
// ratio the way a real access would.
func (c *Cache) Contains(id int) bool {
	c.mu.Lock()
	_, ok := c.entries[id]
	c.mu.Unlock()
	return ok
}

// getInto is the hit path; count selects whether the access lands in the
// hit/miss statistics (a single-flight waiter re-checking residency after
// its leader finished already counted its miss).
func (c *Cache) getInto(id int, dst *csr.Tile, count bool) (*csr.Tile, bool) {
	c.mu.Lock()
	e, ok := c.entries[id]
	if !ok {
		if count {
			c.stats.Misses++
		}
		c.mu.Unlock()
		return nil, false
	}
	if c.policy != Clock {
		// Clock keeps its ring in insertion order; the reference test below
		// carries all the recency information it needs.
		c.lru.MoveToFront(e.elem)
	}
	e.lastEpoch = c.epoch
	if count {
		c.stats.Hits++
	}
	tile, blob := e.tile, e.blob
	c.mu.Unlock()

	if tile != nil {
		return tile, true
	}
	if dst == nil {
		dst = new(csr.Tile)
	}
	start := time.Now()
	scratch := c.scratch.Get().(*[]byte)
	raw, err := c.mode.AppendDecompress((*scratch)[:0], blob)
	if err == nil {
		*scratch = raw
		err = csr.DecodeInto(dst, raw)
	}
	c.scratch.Put(scratch)
	if err == nil {
		c.mu.Lock()
		c.stats.DecompressTime += time.Since(start)
		c.mu.Unlock()
		return dst, true
	}
	// Corrupt cache entry: drop it and report a miss so the caller reloads
	// from disk.
	c.mu.Lock()
	if count {
		c.stats.Hits--
		c.stats.Misses++
	}
	c.removeLocked(id)
	c.mu.Unlock()
	return nil, false
}

// Put inserts a tile. In mode None the decoded tile is retained; in
// compressed modes its encoded form is compressed first. Tiles larger than
// the whole capacity are not cached. Put never evicts the entry it just
// inserted.
func (c *Cache) Put(id int, t *csr.Tile) error {
	if c.capacity <= 0 {
		return nil
	}
	if c.policy != LRU {
		// Skip the compression work when the expected entry size cannot be
		// admitted: once the cache fills, later misses must not keep paying
		// compression CPU for entries that will be declined. The estimate
		// divides by the ratio this cache's tiles have actually compressed
		// at (expectedRatioLocked) — a fixed planning ratio far above it
		// would compress every miss of a nearly full cache only to decline
		// it. For Clock the check consults the victim scan (an admission by
		// eviction is still worth compressing for) and a failed scan
		// settles declines for the rest of the epoch.
		size := t.SizeBytes()
		c.mu.Lock()
		expected := int64(float64(size) / c.expectedRatioLocked())
		skip := false
		if _, present := c.entries[id]; !present && c.bytes+expected > c.capacity {
			switch c.policy {
			case AdmitNoEvict:
				c.declined = true
				skip = true
			case Clock:
				skip = !c.clockAdmissibleLocked(expected)
			}
		}
		c.mu.Unlock()
		if skip {
			return nil
		}
	}
	var e *entry
	if c.mode == compress.None {
		e = &entry{id: id, tile: t, size: t.SizeBytes()}
	} else {
		enc := c.scratch.Get().(*[]byte)
		*enc = t.AppendEncode((*enc)[:0])
		blob, err := c.mode.AppendCompress(nil, *enc)
		c.scratch.Put(enc)
		if err != nil {
			return fmt.Errorf("cache: compressing tile %d: %w", id, err)
		}
		e = &entry{id: id, blob: blob, size: int64(len(blob))}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if e.blob != nil {
		c.seenSize += t.SizeBytes()
		c.seenStored += e.size
	}
	if e.size > c.capacity {
		return nil
	}
	c.removeLocked(id) // replacement: drop the old entry first
	if !c.ensureRoomLocked(e.size) {
		return nil
	}
	e.elem = c.lru.PushFront(e)
	e.lastEpoch = c.epoch // admissions count as a touch: protected this sweep
	c.entries[id] = e
	c.bytes += e.size
	return nil
}

// ensureRoomLocked makes room for size more bytes according to the policy,
// reporting whether the insertion may proceed.
func (c *Cache) ensureRoomLocked(size int64) bool {
	if c.bytes+size <= c.capacity {
		return true
	}
	switch c.policy {
	case AdmitNoEvict:
		c.declined = true
		return false // full: the paper's cache simply declines (§IV-B)
	case LRU:
		for c.bytes+size > c.capacity {
			back := c.lru.Back()
			if back == nil {
				break
			}
			c.removeLocked(back.Value.(*entry).id)
			c.stats.Evictions++
		}
		return c.bytes+size <= c.capacity
	case Clock:
		need := c.bytes + size - c.capacity
		if !c.clockAdmissibleLocked(size) {
			return false
		}
		c.clockEvictLocked(need)
		return c.bytes+size <= c.capacity
	}
	return false
}

// clockAdmissibleLocked reports whether a tile of the given size could be
// admitted right now: either it fits directly, or enough aged entries exist
// to evict (a dry scan — nothing is removed). A failed eviction scan
// settles declines for same-or-larger tiles until the next epoch, since
// within an epoch the victim set can only shrink; a smaller tile needs
// less room and still gets its own scan.
func (c *Cache) clockAdmissibleLocked(size int64) bool {
	if c.bytes+size <= c.capacity {
		return true
	}
	if c.declinedEpoch == c.epoch && size >= c.declinedSize {
		return false
	}
	need := c.bytes + size - c.capacity
	if c.clockVictimBytesLocked(need) >= need {
		return true
	}
	if c.declinedEpoch != c.epoch || size < c.declinedSize {
		c.declinedSize = size
	}
	c.declinedEpoch = c.epoch
	return false
}

// clockVictimBytesLocked sums the sizes of eviction victims — entries
// untouched for at least `chances` consecutive epochs — sweeping the ring
// oldest-admission-first and stopping as soon as `need` bytes are found.
func (c *Cache) clockVictimBytesLocked(need int64) int64 {
	var avail int64
	for el := c.lru.Back(); el != nil && avail < need; el = el.Prev() {
		if e := el.Value.(*entry); c.epoch-e.lastEpoch >= c.chances {
			avail += e.size
		}
	}
	return avail
}

// clockEvictLocked removes victims in the same sweep order until `need`
// bytes have been freed.
func (c *Cache) clockEvictLocked(need int64) {
	var freed int64
	for el := c.lru.Back(); el != nil && freed < need; {
		prev := el.Prev()
		if e := el.Value.(*entry); c.epoch-e.lastEpoch >= c.chances {
			freed += e.size
			c.removeLocked(e.id)
			c.stats.Evictions++
		}
		el = prev
	}
}

// GetOrLoad returns the cached tile or loads it with the supplied function,
// inserting the result — the worker fast path of §IV-B: "when a worker
// needs to load a tile, it firstly searches the cache system".
func (c *Cache) GetOrLoad(id int, load func() (*csr.Tile, error)) (*csr.Tile, error) {
	if t, ok := c.Get(id); ok {
		return t, nil
	}
	t, err := load()
	if err != nil {
		return nil, err
	}
	if err := c.Put(id, t); err != nil {
		return nil, err
	}
	return t, nil
}

// GetOrLoadInto is GetOrLoad with a caller-owned scratch tile. The load
// function receives the tile to decode into, or nil when it must allocate a
// fresh tile because the cache may retain the decoded form (mode None with
// room left). Once the cache has settled — every tile either cached or
// declined — misses decode into dst and the hot path stops allocating.
// Concurrent loads of the same id are single-flighted (see LoadInto).
func (c *Cache) GetOrLoadInto(id int, dst *csr.Tile, load func(dst *csr.Tile) (*csr.Tile, error)) (*csr.Tile, error) {
	if t, ok := c.GetInto(id, dst); ok {
		return t, nil
	}
	return c.LoadInto(id, dst, load)
}

// LoadInto is the post-miss half of GetOrLoadInto: it loads the tile and
// offers it for admission under the cache's policy. Callers that already
// took a miss through GetInto use it directly so the miss is not counted
// twice. Concurrent LoadInto calls for the same id are single-flighted: one
// caller becomes the leader and runs load, the rest wait and reuse its
// result — a demand load and a racing prefetch of the same tile never issue
// duplicate disk reads. A waiter resolves from the cache when the leader's
// tile was admitted, by copying the leader's tile into dst when it was not
// (the leader holds its tile until every waiter has copied it), and falls
// back to its own load only if the leader failed.
func (c *Cache) LoadInto(id int, dst *csr.Tile, load func(dst *csr.Tile) (*csr.Tile, error)) (*csr.Tile, error) {
	c.mu.Lock()
	for {
		f, ok := c.flights[id]
		if !ok {
			break
		}
		f.waiters++
		for !f.done {
			c.flightCond.Wait()
		}
		if f.shared != nil {
			// The leader keeps its tile unchanged until the last waiter
			// has copied it, then recycles the flight itself.
			c.mu.Unlock()
			if dst == nil {
				dst = new(csr.Tile)
			}
			f.shared.CopyInto(dst)
			c.mu.Lock()
			if f.waiters--; f.waiters == 0 {
				c.flightCond.Broadcast()
			}
			c.mu.Unlock()
			return dst, nil
		}
		f.waiters--
		err := f.err
		if f.waiters == 0 {
			c.recycleFlightLocked(f)
		}
		c.mu.Unlock()
		if err == nil {
			if t, ok := c.getInto(id, dst, false); ok {
				return t, nil
			}
		}
		// The leader failed, or its admitted entry was evicted before we
		// got to it: take the lock back and load ourselves (possibly as a
		// waiter again, if yet another leader is already in flight).
		c.mu.Lock()
	}
	f := c.newFlightLocked()
	c.flights[id] = f
	c.mu.Unlock()

	t, err := c.loadMissInto(id, dst, load)

	c.mu.Lock()
	delete(c.flights, id)
	f.done = true
	f.err = err
	if err == nil && f.waiters > 0 {
		if _, resident := c.entries[id]; !resident {
			// The tile was declined (or the cache stores blobs): waiters
			// cannot re-fetch it from the cache, so they copy t — which
			// may be the leader's scratch, so the leader waits for them.
			f.shared = t
		}
	}
	if f.waiters > 0 {
		c.flightCond.Broadcast()
	}
	for f.shared != nil && f.waiters > 0 {
		c.flightCond.Wait()
	}
	if f.waiters == 0 {
		c.recycleFlightLocked(f)
	}
	c.mu.Unlock()
	return t, err
}

// newFlightLocked takes a flight record off the freelist (or allocates the
// first few); recycleFlightLocked returns one once its last user is done.
func (c *Cache) newFlightLocked() *flight {
	if n := len(c.flightFree); n > 0 {
		f := c.flightFree[n-1]
		c.flightFree = c.flightFree[:n-1]
		*f = flight{}
		return f
	}
	return new(flight)
}

func (c *Cache) recycleFlightLocked(f *flight) {
	f.shared = nil
	f.err = nil
	c.flightFree = append(c.flightFree, f)
}

// loadMissInto runs the load function with the right destination for the
// cache's mode and policy and offers the result for admission.
func (c *Cache) loadMissInto(id int, dst *csr.Tile, load func(dst *csr.Tile) (*csr.Tile, error)) (*csr.Tile, error) {
	into, scratchDecoded := dst, false
	if c.mode == compress.None && c.capacity > 0 {
		// In mode None, Put retains the decoded tile itself, so it must own
		// its memory.
		switch c.policy {
		case AdmitNoEvict:
			// Before the first decline, decode fresh so the cache can take
			// the tile directly; after it, decode into caller scratch (the
			// common full-cache steady state) and clone below only in the
			// rare case a smaller tile still fits.
			c.mu.Lock()
			settled := c.declined
			c.mu.Unlock()
			if settled {
				scratchDecoded = true
			} else {
				into = nil
			}
		case Clock:
			// Clock admissions can happen at any point of the run (entries
			// age out whenever the working set shifts), so the cache never
			// settles into taking ownership of every decoded tile. Always
			// decode into caller scratch and deep-copy only tiles actually
			// admitted: zero copies — and zero allocations — in the steady
			// state where the resident set is stable and misses decline.
			scratchDecoded = true
		default:
			// LRU admits every tile, evicting others to fit, so it must own
			// the decoded memory.
			into = nil
		}
	}
	t, err := load(into)
	if err != nil {
		return nil, err
	}
	if scratchDecoded {
		if err := c.AdmitLoaded(id, t); err != nil {
			return nil, err
		}
		return t, nil
	}
	// Compressed modes store a blob, never the tile, so inserting a
	// scratch-backed tile is safe there.
	if err := c.Put(id, t); err != nil {
		return nil, err
	}
	return t, nil
}

// AdmitLoaded offers a tile that was loaded outside the cache — a
// prefetcher's staged tile, or a scratch-decoded demand miss — for
// admission at exactly demand-miss parity (§IV-B, per-insertion): a tile
// that fits is admitted even after earlier declines; under Clock, "fits"
// extends to admission by evicting aged entries, never hotter residents.
// The tile itself is never retained: mode None admissions deep-copy, and
// compressed modes encode — so a prefetched tile can keep flowing through
// pooled scratch regardless of the admission outcome. Declines settle the
// cache the same way a demand-miss decline does.
func (c *Cache) AdmitLoaded(id int, t *csr.Tile) error {
	if c.capacity <= 0 {
		return nil
	}
	if c.mode != compress.None {
		// Put compresses t into a blob and does not retain t.
		return c.Put(id, t)
	}
	size := t.SizeBytes()
	c.mu.Lock()
	_, present := c.entries[id]
	admit := !present && size <= c.capacity
	if admit {
		switch c.policy {
		case Clock:
			admit = c.clockAdmissibleLocked(size)
		case AdmitNoEvict:
			admit = c.bytes+size <= c.capacity
			if !admit {
				c.declined = true
			}
		default:
			// LRU always admits, evicting from the cold end to fit.
		}
	}
	c.mu.Unlock()
	if !admit {
		return nil
	}
	// Pay for the deep copy only when the tile will actually be kept.
	return c.Put(id, t.Clone())
}

func (c *Cache) removeLocked(id int) {
	e, ok := c.entries[id]
	if !ok {
		return
	}
	c.bytes -= e.size
	c.lru.Remove(e.elem)
	delete(c.entries, id)
	// Freed capacity un-settles earlier declines: the next insertion must be
	// reconsidered instead of being turned away by stale full-cache state
	// (the ROADMAP re-admission fix).
	c.declined = false
	c.declinedEpoch = noEpoch
}

// Stats returns a snapshot of the cache statistics.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.BytesCached = c.bytes
	s.Entries = len(c.entries)
	return s
}

// ResetStats zeroes hit/miss/eviction counters, keeping contents.
func (c *Cache) ResetStats() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats = Stats{}
}
