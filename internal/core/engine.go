package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/compress"
	"repro/internal/costmodel"
	"repro/internal/csr"
	"repro/internal/disk"
	"repro/internal/spe"
	"repro/internal/tile"
)

// Config describes an engine deployment: the simulated cluster shape, the
// storage model and the paper's optimization knobs.
type Config struct {
	// NumServers is N, the cluster size. Default 1.
	NumServers int
	// WorkersPerServer is T, the per-server worker pool (the OpenMP thread
	// count in the paper). Default: GOMAXPROCS/N, at least 1.
	WorkersPerServer int
	// Transport selects the cluster substrate (default in-process).
	Transport cluster.TransportKind
	// NetBandwidth throttles each server's outbound NIC when positive.
	NetBandwidth int64
	// Disk models each server's local tile store.
	Disk disk.Config
	// WorkDir hosts the per-server local tile stores. Empty means a fresh
	// directory under os.TempDir, removed after the run.
	WorkDir string
	// CacheCapacity is the per-server edge cache budget in bytes:
	// 0 = unlimited (cache everything), negative = cache disabled.
	CacheCapacity int64
	// CacheAuto enables the paper's automatic mode selection (§IV-B);
	// otherwise CacheMode is used as-is.
	CacheAuto bool
	// CacheMode is the fixed cache codec when CacheAuto is false.
	CacheMode compress.Mode
	// CachePolicyAuto picks the eviction policy from the costmodel: CLOCK
	// when the capacity cannot hold the expected cached working set (so
	// eviction decisions matter), the paper's AdmitNoEvict otherwise.
	CachePolicyAuto bool
	// CachePolicy is the fixed eviction policy when CachePolicyAuto is
	// false.
	CachePolicy cache.Policy
	// PrefetchDepth sizes the sweep-ahead tile prefetcher: how many tiles
	// past the current sweep position may be staged by background batched
	// reads. 0 (default) sizes it automatically from the expected miss
	// ratio (costmodel.PrefetchDepth — off when the cache holds the whole
	// working set); a negative value disables prefetching entirely.
	// Prefetching only changes where tile bytes come from; results are
	// bit-identical either way.
	PrefetchDepth int
	// Residency selects the tile residency tier. ResidencyAuto (default)
	// picks via costmodel.SelectResidency: cached while the budget earns a
	// useful hit ratio, streaming (GraphD-style — tiles flow through pooled
	// scratch, no cache churn) when the budget is ≤ 1/8 of the working set
	// or the cache is disabled.
	Residency ResidencyMode
	// MsgCodec compresses update broadcasts (§IV-C); the paper's default
	// is snappy (set by DefaultConfig). Sessions treat it as the per-job
	// default; JobOptions.MsgCodec overrides it for one Submit.
	MsgCodec compress.Mode
	// Comm selects hybrid/dense/sparse wire encoding (default hybrid).
	Comm comm.ModeChoice
	// SparsityThreshold overrides the 0.8 hybrid switch point if positive.
	SparsityThreshold float64
	// Replication selects All-in-All (default) or On-Demand (§IV-A).
	Replication ReplicationPolicy
	// MaxSupersteps bounds the superstep loop. Default 100. Sessions treat
	// it as the per-job default; JobOptions.MaxSupersteps overrides it for
	// one Submit.
	MaxSupersteps int
	// BloomSkip enables inactive-tile skipping (§III-C-4).
	BloomSkip bool
	// BloomCheckLimit is the largest updated-vertex count for which tile
	// filters are consulted; above it every tile is loaded. Default 1024.
	BloomCheckLimit int
	// Lockstep disables the pipelined communication subsystem: workers
	// broadcast synchronously under one per-server mutex and foreign
	// batches are received in one blocking sweep after compute — the
	// pre-pipeline behaviour, kept as the ablation baseline (see PERF.md).
	// Sessions treat it as the per-job default; JobOptions.Lockstep can
	// additionally force one Submit onto the baseline.
	Lockstep bool
	// SendQueueCap bounds each destination's asynchronous send queue in the
	// pipelined subsystem; full queues backpressure workers. 0 (default)
	// sizes the queues adaptively: start at 32, double on observed send
	// stalls, shrink after a sustained quiet spell (costmodel.AdaptQueueCap).
	// A positive value is a static override.
	SendQueueCap int
	// Rebalance enables the superstep-boundary tile rebalancer (see
	// rebalance.go and docs/ARCHITECTURE.md): per-tile compute timings feed
	// a straggler detector on rank 0, and victim tiles migrate off a slow
	// server between supersteps. RebalanceOff is the zero value;
	// DefaultConfig selects RebalanceAuto. Requires a multi-server cluster
	// and All-in-All replication; silently off otherwise. Results are
	// bit-identical either way.
	Rebalance RebalanceMode
	// RebalanceRatio is the straggler trigger: rebalance when a server's
	// measured step cost exceeds ratio × the cluster mean. 0 means
	// costmodel.DefaultStragglerRatio.
	RebalanceRatio float64
	// RebalanceMinStep suppresses rebalancing while the straggler's step
	// cost is below it (short steps are timing noise). 0 means 1ms;
	// negative means no floor.
	RebalanceMinStep time.Duration
	// RebalancePlanHook, when non-nil, replaces the costmodel planner on
	// the coordinator: it receives every server's per-tile costs and
	// returns the migration plan verbatim. Deterministic migrations for
	// tests and experiments.
	RebalancePlanHook func(step int, costs [][]costmodel.TileCost) []costmodel.Move
	// Assignment overrides stage-two tile placement (nil = round-robin
	// tile.Assign) — skewed placements for straggler experiments. It must
	// pass tile.Assignment.Validate (full coverage, each server's list in
	// ascending tile order). This is the initial table only: the
	// rebalancer may move tiles afterwards.
	Assignment *tile.Assignment
	// DiskFailureHook, when non-nil, is installed on every server's local
	// tile store — failure injection for tests (see disk.Store).
	DiskFailureHook func(server int, op, name string) error
	// CheckpointEvery, when positive, writes a consistent checkpoint of
	// the vertex state every that-many supersteps, enabling crash recovery
	// (see checkpoint.go and recovery.go). Requires All-in-All replication
	// and disables the dynamic rebalancer for checkpointed jobs (a crash
	// mid-migration could lose the only copy of a moving tile). Sessions
	// treat it as the per-job default; JobOptions.CheckpointEvery
	// overrides it for one Submit. costmodel.CheckpointEverySteps computes
	// Young's-formula guidance for this knob.
	CheckpointEvery int
	// MaxConcurrentJobs, when > 1, turns the session multi-tenant: up to
	// that many Submits run interleaved over the shared tile stores and
	// caches, each tagged with a per-job ID so their wire traffic, barriers
	// and checkpoints never alias (see docs/ARCHITECTURE.md, "Multi-tenant
	// scheduling"). Admission beyond the level queues (MaxQueuedJobs);
	// fairness at step edges is weighted round-robin (JobOptions.Weight).
	// Values ≤ 1 select the classic serial session; the level is capped at
	// costmodel.MaxJobSlots. Multi-tenant sessions run without the
	// sweep-ahead prefetcher and the dynamic rebalancer (both assume one
	// sweep owns the disk and the ownership table); concurrent jobs instead
	// share tile reads through the cache's single-flight loads and the
	// cross-job share window.
	MaxConcurrentJobs int
	// MaxQueuedJobs bounds how many Submits may wait for admission when
	// MaxConcurrentJobs jobs are already running; further Submits fail fast
	// with ErrJobQueueFull. 0 picks costmodel.JobQueueBound.
	MaxQueuedJobs int
	// FailureTimeout, when positive, arms the cluster's failure detector:
	// a server whose barrier vote or update traffic stalls for this long
	// is declared dead by the survivors. Without it, only self-declared
	// crashes are detected — a hung server blocks the job forever.
	FailureTimeout time.Duration
	// Faults scripts deterministic failures into the session — server
	// kills, disk-op errors, dropped or duplicated wire frames (see
	// fault.go). nil injects nothing.
	Faults *FaultPlan
}

// ResidencyMode selects how tile data lives in memory during a superstep
// sweep (see costmodel.Residency for the crossover model).
type ResidencyMode int

const (
	// ResidencyAuto lets the costmodel pick per session from the expected
	// cached working set and the cache capacity.
	ResidencyAuto ResidencyMode = iota
	// ResidencyCached forces the edge-cache tier: resident tiles hit,
	// misses load with policy-controlled admission.
	ResidencyCached
	// ResidencyStreaming forces the GraphD-style streaming tier: every
	// tile streams through pooled scratch each sweep and the edge cache is
	// bypassed. The right regime when the budget is far below the working
	// set — the cache's churn and admission work buy almost no hits there.
	ResidencyStreaming
)

// String returns the tier name used in stats output and CLI flags.
func (r ResidencyMode) String() string {
	switch r {
	case ResidencyAuto:
		return "auto"
	case ResidencyCached:
		return "cached"
	case ResidencyStreaming:
		return "streaming"
	default:
		return fmt.Sprintf("residency(%d)", int(r))
	}
}

// MarshalJSON encodes the tier as its String name — the stable wire form
// of ServerStats.Residency in the graphhd daemon's JSON schema.
func (r ResidencyMode) MarshalJSON() ([]byte, error) { return json.Marshal(r.String()) }

// UnmarshalJSON parses the name form written by MarshalJSON.
func (r *ResidencyMode) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	mode, err := ResidencyByName(name)
	if err != nil {
		return err
	}
	*r = mode
	return nil
}

// ResidencyByName parses a residency name ("auto", "cached", "streaming")
// as printed by ResidencyMode.String.
func ResidencyByName(name string) (ResidencyMode, error) {
	switch name {
	case "auto":
		return ResidencyAuto, nil
	case "cached":
		return ResidencyCached, nil
	case "streaming":
		return ResidencyStreaming, nil
	default:
		return 0, fmt.Errorf("core: unknown residency %q (want auto, cached or streaming)", name)
	}
}

// DefaultConfig returns the paper's default engine configuration for an
// N-server cluster: hybrid communication with snappy message compression,
// automatic cache-mode selection with unlimited capacity, All-in-All
// replication and Bloom tile skipping.
func DefaultConfig(numServers int) Config {
	return Config{
		NumServers:      numServers,
		MsgCodec:        compress.Snappy,
		CacheAuto:       true,
		CachePolicyAuto: true,
		BloomSkip:       true,
		Rebalance:       RebalanceAuto,
	}
}

func (c Config) normalized() Config {
	if c.NumServers <= 0 {
		c.NumServers = 1
	}
	if c.WorkersPerServer <= 0 {
		c.WorkersPerServer = runtime.GOMAXPROCS(0) / c.NumServers
		if c.WorkersPerServer < 1 {
			c.WorkersPerServer = 1
		}
	}
	if c.MaxSupersteps <= 0 {
		c.MaxSupersteps = 100
	}
	if c.BloomCheckLimit <= 0 {
		c.BloomCheckLimit = 1024
	}
	if c.CheckpointEvery < 0 {
		c.CheckpointEvery = 0
	}
	if c.CheckpointEvery > 255 {
		// The step byte framing update batches disambiguates stale frames
		// only while replay never reaches 256 steps; cap the interval there
		// (a 255-step checkpoint interval is already past any useful
		// Young's-formula answer).
		c.CheckpointEvery = 255
	}
	c.MaxConcurrentJobs = costmodel.ClampConcurrency(c.MaxConcurrentJobs)
	if c.MaxQueuedJobs <= 0 {
		c.MaxQueuedJobs = costmodel.JobQueueBound(c.MaxConcurrentJobs)
	}
	return c
}

// Input names the engine's data source: either an in-memory partition or a
// manifest of SPE output persisted in the DFS.
type Input struct {
	// Partition supplies pre-partitioned tiles directly (testing and
	// single-process pipelines).
	Partition *tile.Partition
	// SPE and Manifest locate tiles in the DFS (the production pipeline of
	// Figure 3: raw graph → SPE → tiles → MPE).
	SPE      *spe.Engine
	Manifest *spe.Manifest
}

// Engine is the MPE. One Engine value can run many programs.
type Engine struct {
	cfg Config
}

// New creates an engine with the given configuration.
func New(cfg Config) *Engine { return &Engine{cfg: cfg.normalized()} }

// tileMeta is the in-memory descriptor a server keeps per assigned tile;
// the tile body itself lives on local disk and in the edge cache.
type tileMeta struct {
	id       int
	blob     string // precomputed store name, hot-path reads avoid Sprintf
	lo, hi   uint32
	encBytes int64
	filter   interface {
		ContainsAny([]uint32) bool
		SizeBytes() int
	}
}

// Run executes the program on the input until convergence or MaxSupersteps.
// It is the one-shot convenience path: a session is opened, the program
// submitted once with the Config's per-job defaults, and the session closed
// again. Callers running several programs over the same input should hold a
// Session instead and amortize the setup.
func (e *Engine) Run(in Input, prog Program) (*Result, error) {
	se, err := Open(in, e.cfg)
	if err != nil {
		return nil, err
	}
	defer se.Close()
	return se.Submit(context.Background(), prog, JobOptions{})
}

// atomicMax lock-freely raises *dst to v if v is larger.
func atomicMax(dst *int64, v int64) {
	for {
		cur := atomic.LoadInt64(dst)
		if v <= cur || atomic.CompareAndSwapInt64(dst, cur, v) {
			return
		}
	}
}

// prepareInput normalizes the two input kinds into a graph descriptor, the
// tile count, and a fetch function that returns encoded tile bytes.
func prepareInput(in Input) (*Graph, int, func(i int) ([]byte, error), error) {
	switch {
	case in.Partition != nil:
		p := in.Partition
		g := &Graph{
			NumVertices: p.NumVertices,
			NumEdges:    p.NumEdges,
			OutDeg:      p.OutDeg,
			InDeg:       p.InDeg,
			Weighted:    p.Weighted,
		}
		// Pre-encode each tile once, guarded per tile rather than by one
		// global lock, so the servers' setup fetches encode concurrently.
		encoded := make([][]byte, p.NumTiles())
		onces := make([]sync.Once, p.NumTiles())
		fetch := func(i int) ([]byte, error) {
			onces[i].Do(func() { encoded[i] = p.Tiles[i].Encode() })
			return encoded[i], nil
		}
		return g, p.NumTiles(), fetch, nil
	case in.SPE != nil && in.Manifest != nil:
		m := in.Manifest
		in2, out, err := in.SPE.FetchDegrees(m)
		if err != nil {
			return nil, 0, nil, err
		}
		g := &Graph{
			NumVertices: m.NumVertices,
			NumEdges:    m.NumEdges,
			OutDeg:      out,
			InDeg:       in2,
			Weighted:    m.Weighted,
		}
		d := in.SPE.DFS
		fetch := func(i int) ([]byte, error) { return d.ReadFile(m.TilePaths[i]) }
		return g, m.NumTiles(), fetch, nil
	default:
		return nil, 0, nil, fmt.Errorf("core: input needs either Partition or SPE+Manifest")
	}
}

// nodeShared is the state every job runner on one server shares — and, in
// a serial session, the holder of the server's death flag. One value per
// simulated server, created by Open before the cluster boots.
type nodeShared struct {
	// dead marks a killed or fenced server: its job loop (and, in a
	// multi-tenant session, every runner spawned on it) becomes a zombie.
	dead atomic.Bool

	// Zombie-job ledger for elastic membership: every job this dead node
	// consumed without running (and every job a runner exited from via
	// errServerKilled) is recorded here, so the join controller knows which
	// in-flight jobs need a replacement runner when the node is readmitted.
	// zMu also fences the dead-flag flip: the controller claims the ledger
	// and clears dead under the same lock runJob's zombie check holds, so a
	// job is either claimed for respawn or runs on the normal path — never
	// both, never neither.
	zMu     sync.Mutex
	zombies map[*job]bool

	// joinBlock counts in-flight jobs that cannot absorb a membership grow
	// (no checkpointing, or not All-in-All): while it is non-zero, join
	// requests stay queued instead of being admitted. The counter is
	// session-wide; every nodeShared aliases the same value. Lock-free reads
	// of it are fast-path only — the authoritative check happens inside
	// admit, under the session's job-registry lock.
	joinBlock *atomic.Int32

	// admit performs the runner-side join admission (Session.admitJoin):
	// DeclareJoined under the job registry's lock, so an admission either
	// lands before a racing Submit publishes its job or observes the job's
	// raised joinBlock and defers. Session-wide, like joinBlock.
	admit func(rank int) bool

	// joins counts this node's readmissions (elastic membership), a
	// session-lifetime counter like the I/O totals. It lives here rather
	// than on the server because in a multi-tenant session the per-job
	// runner clones must all observe the node's cumulative count.
	joins atomic.Int64

	// Quiesce gate for elastic membership: counts the goroutines that may
	// still be touching this node's per-job server state — the serial job
	// loop's runJob call, its pipelined receive goroutine (deliberately
	// unjoined on hard-error exits), and replacement runners. The join
	// controller waits for the count to drain before reusing the struct
	// for a replacement, giving the dying runner's writes a happens-before
	// edge to the rejoined runner's reads. A hand-rolled gate rather than
	// a sync.WaitGroup: enters may race waits at count zero (a new job can
	// start while a revive drains the old one), which WaitGroup forbids.
	qMu    sync.Mutex
	qCount int
	qZero  chan struct{}

	// Multi-tenant plumbing, nil in serial sessions. The router pointer is
	// atomic because a rejoined node gets a fresh router (the old one's done
	// channel is permanently closed) while zombie runners may still read it.
	gate      *stepGate                   // WRR turnstile at superstep edges
	share     *cache.ShareWindow          // cross-job tile sharing
	router    atomic.Pointer[frameRouter] // inbox demultiplexer
	sched     *jobScheduler               // session-level admission (slot masks)
	recoverMu sync.Mutex                  // serializes tile reconciliation across runners
}

// quiesceEnter registers a goroutine that touches this node's per-job
// server state; pair with quiesceExit.
func (sh *nodeShared) quiesceEnter() {
	sh.qMu.Lock()
	if sh.qCount == 0 {
		sh.qZero = make(chan struct{})
	}
	sh.qCount++
	sh.qMu.Unlock()
}

func (sh *nodeShared) quiesceExit() {
	sh.qMu.Lock()
	sh.qCount--
	if sh.qCount == 0 {
		close(sh.qZero)
	}
	sh.qMu.Unlock()
}

// quiesceWait blocks until every registered goroutine has exited. The join
// controller calls it on a dead node before spawning replacement runners:
// a crash-killed runner's receive goroutine unwinds on its own schedule
// (transport error or membership interrupt), and until it does, it still
// owns the node's receive scratch and transport inbox.
func (sh *nodeShared) quiesceWait() {
	sh.qMu.Lock()
	if sh.qCount == 0 {
		sh.qMu.Unlock()
		return
	}
	ch := sh.qZero
	sh.qMu.Unlock()
	<-ch
}

// server is the per-node execution state of one session: the long-lived
// tile store, cache, metadata and scratch buffers, plus the per-job fields
// runJob re-points at every Submit. In a multi-tenant session a server
// value is additionally cloned per admitted job (jobRunner): the clones
// share the session-lifetime state and diverge in everything per-job.
type server struct {
	cfg   Config
	node  *cluster.Node
	graph *Graph
	fetch func(i int) ([]byte, error)
	tiles []int
	total int
	work  string

	// Session-lifetime state: persisted tiles, cache contents and scratch
	// capacity all survive across jobs (that is the point of a session).
	store      *disk.Store
	cache      *cache.Cache
	metas      []*tileMeta
	members    []uint32 // OnDemand replica members; nil under AllInAll
	bloomBytes int64
	state      *vertexState

	// Per-job state, reset by runJob: the program, its context and
	// effective knobs, and the result being filled.
	prog     Program
	ctx      context.Context
	maxSteps int
	lockstep bool
	msgCodec compress.Mode
	progress func(StepStats)
	result   *Result
	jobsRun  int

	// Steady-state scratch, sized once in setup so the superstep loop
	// allocates O(changed vertices), not O(edges):
	// one workerScratch per worker, one update buffer and outcome slot per
	// tile, one reused batch for decoding received broadcasts, and one
	// staging slice per peer for updates received mid-compute.
	scratch   []*workerScratch
	outs      []tileOut
	updBufs   [][]comm.Update
	recvBatch comm.Batch
	staged    [][]comm.Update

	// sender is the pipelined broadcast subsystem (nil single-node or in
	// Lockstep mode); bmu serializes lockstep broadcasts, matching the
	// one-NIC-per-server model the async queues preserve per destination.
	sender *cluster.Sender
	bmu    sync.Mutex

	// Adaptive send-queue sizing state: the current per-destination
	// capacity, whether the engine may resize it (SendQueueCap == 0), the
	// stall counter at the last adjustment, and how many consecutive
	// adjustments saw zero stalls.
	queueCap      int
	adaptiveQueue bool
	lastStalls    int64
	quietSteps    int

	// rebal is the dynamic tile rebalancer (nil when off); tilesIn/Out
	// count migrations this server received/donated during the current job.
	rebal    *rebalancer
	tilesIn  int
	tilesOut int

	// pf is the sweep-ahead tile prefetcher (nil when off); pfDepth its
	// window; residency the resolved tile-residency tier. All three are
	// session-lifetime — the prefetcher's reader workers and staged-tile
	// pools stay warm across jobs.
	pf        *prefetcher
	pfDepth   int
	residency ResidencyMode
	// cacheRatio is the measured compression ratio behind the cache-mode
	// choice (ServerStats.CacheRatio); 0 when nothing was measured.
	cacheRatio float64

	// Fault tolerance. workRoot is the session work directory (recovery
	// reads dead peers' tile blobs from their subdirectories); baseOwner
	// and curOwner are this server's copies of the tile→server ownership
	// tables (base: as if every server were alive; cur: after
	// reassignment); ownedCnt[p] is how many tiles server p currently
	// owns — the per-sender expected-batch count of the counted receive
	// protocol; recvdFrom and seenTiles are per-step receive tallies (a
	// distinct-tile bitset defeats duplicated frames); faults is the
	// compiled fault plan; shared.dead marks a killed or fenced server (its
	// job loop becomes a zombie).
	workRoot  string
	baseOwner []int
	curOwner  []int
	ownedCnt  []int
	recvdFrom []int
	seenTiles []uint64
	faults    *compiledFaults
	shared    *nodeShared

	// Multi-tenant runner identity, zero on serial servers: the job's wire
	// tag, its share-window slot bit, its WRR weight, its mailbox from the
	// frame router, this runner's privately acknowledged membership epoch,
	// and the count of tiles taken from the share window instead of disk.
	multi      bool
	jobID      uint32
	slotBit    uint64
	jobWeight  int
	rtr        *frameRouter // the router this runner registered with
	mailbox    *jobMailbox
	ackedEpoch uint64
	shareHits  int64

	// Per-job checkpoint/recovery state: the effective interval, the blob
	// encode buffer, the retained checkpoint steps, the marker-exchange
	// scratch, and the stats counters fillServerStats snapshots.
	ckptEvery    int
	ckptBuf      []byte
	ckptSteps    []int
	markerBuf    []byte
	markerSeen   []bool
	ckptCount    int
	ckptBytes    int64
	tilesAdopted int
	recoveries   int
	recoveryTime time.Duration
	// needCkpt marks a rejoined runner that holds no consistent state for
	// the job and must be streamed the restore checkpoint by a donor.
	needCkpt bool
}

// runJob executes one submitted program on this server: per-job state is
// reset (vertex values, halt votes, migration counters, send queues), the
// superstep loop runs against the warm tile store and cache, and on
// success the result is collected and the per-server statistics filled.
// The returned error is nil for both success and cancellation — a
// cancelled job leaves the session healthy — and non-nil only for hard
// errors that abort the whole session.
func (s *server) runJob(jb *job) (fatal error) {
	if s.claimIfZombie(jb) {
		// A killed or fenced server is a zombie: it consumes submissions
		// so Submit's fan-out never blocks, but contributes nothing. The
		// survivors fill the result; if the server rejoins mid-job, the
		// join controller reads the claim and spawns a replacement runner.
		return nil
	}
	degradedStart := false
	if !s.multi && s.node.MembershipStale() {
		// The membership changed since this node last acknowledged it — a
		// death detected after the previous job's final barrier, a rejoin
		// admitted while the session was idle, or a declaration racing this
		// very job's start (a sibling runner can enter, reach superstep 0
		// and crash before this runner executes its entry block; the
		// survivors that entered earlier are then already parked inside
		// recoverFromFailure). When the job can recover, converge through
		// the same protocol those siblings are running — a silent local
		// reconcile here would leave them waiting at the recovery barrier
		// until a timeout falsely fences this server. A job without the
		// recovery protocol (no checkpointing, or not All-in-All) cannot
		// have siblings parked there, so the stale view is necessarily a
		// between-jobs change every runner observes at entry: acknowledge
		// and converge the tile holdings locally before any counted
		// receive derives its expectations from them.
		_, alive := s.node.AckMembership()
		if !alive[s.node.ID()] {
			_ = s.die(true)
			s.markZombie(jb)
			return nil
		}
		if jb.ckptEvery > 0 && s.cfg.Replication == AllInAll && s.node.NumNodes() > 1 {
			degradedStart = true
		} else if err := s.reconcileTiles(alive); err != nil {
			jb.errs[s.node.ID()] = err
			return err
		}
	}
	if s.multi {
		// Pin this runner's membership view before any traffic: the epoch
		// is the runner's private staleness reference (sibling runners ack
		// the node-level one). A cluster that already lost members needs
		// this job's ownership table reconciled to the survivors — that
		// runs below, once the per-job plumbing exists, through the same
		// recovery protocol a mid-job failure uses.
		epoch, alive := s.node.AckMembership()
		s.ackedEpoch = epoch
		if !alive[s.node.ID()] {
			s.die(true)
			return nil
		}
		live := 0
		for _, ok := range alive {
			if ok {
				live++
			}
		}
		degradedStart = live < s.node.NumNodes()
	}
	defer func() {
		// Drop the per-job references on the way out: an idle session must
		// not pin the finished job's Result vector, the caller's Progress
		// closure, its context, or the program value.
		s.prog, s.ctx, s.progress, s.result = nil, nil, nil, nil
	}()
	s.prog = jb.prog
	s.ctx = jb.ctx
	s.maxSteps = jb.maxSteps
	s.lockstep = jb.lockstep
	s.msgCodec = jb.codec
	s.progress = jb.progress
	s.result = jb.res
	s.tilesIn, s.tilesOut = 0, 0
	s.ckptEvery = jb.ckptEvery
	s.ckptCount, s.ckptBytes = 0, 0
	s.tilesAdopted, s.recoveries, s.recoveryTime = 0, 0, 0
	if err := s.clearCheckpoints(); err != nil {
		jb.errs[s.node.ID()] = err
		return err
	}
	for i := range s.staged {
		s.staged[i] = s.staged[i][:0]
	}
	s.initJobState()
	if s.jobsRun > 0 {
		// Cross-job epoch continuity: the boundary between two jobs is one
		// more superstep boundary on the CLOCK policy's reference clock, so
		// tiles the previous job kept hot stay protected into this one.
		s.cache.AdvanceEpoch()
	}
	s.jobsRun++

	if !s.lockstep && s.node.NumNodes() > 1 {
		// The pipelined subsystem is rebuilt per job (a job may opt into
		// Lockstep), but the adaptive queue capacity carries over so a warm
		// session keeps its learned sizing.
		if s.queueCap <= 0 {
			s.queueCap = s.cfg.SendQueueCap
			if s.queueCap <= 0 {
				s.queueCap = 32
				s.adaptiveQueue = true
			}
		}
		s.sender = s.node.NewSender(s.queueCap)
		defer func() {
			if s.sender != nil {
				s.sender.Close()
				s.sender = nil
			}
		}()
	}
	// The rebalancer and checkpointing are mutually exclusive per job: a
	// crash mid-migration could lose the only copy of a moving tile, and
	// recovery's pure-function tile placement assumes the base ownership
	// table only changes at rebalance boundaries it can see. The gate is
	// evaluated from per-job knobs and session-stable membership, so it is
	// identical on every server. A cluster that has already lost members
	// also runs without the rebalancer: its stats protocol counts on every
	// rank reporting.
	s.rebal = nil
	if !s.multi && s.ckptEvery == 0 && s.node.AliveCount() == s.node.NumNodes() {
		// (Multi-tenant sessions never rebalance: concurrent jobs hold
		// independent ownership views, and a migration under one job would
		// silently break the others' counted receives.)
		s.rebal = newRebalancer(s.cfg, s.node.NumNodes())
	}

	if degradedStart {
		// The cluster was already degraded when this runner acked its
		// membership view. Sibling runners of the same job may have started
		// earlier and observed the death mid-step instead — those are now
		// inside recoverFromFailure, parked at the job's recovery barrier.
		// A silent local reconcile would leave them waiting until a timeout
		// falsely fences this server, so a degraded start converges through
		// the same protocol: barrier, marker exchange, reconcile, restore.
		if _, err := s.recoverFromFailure(); err != nil {
			if errors.Is(err, errServerKilled) {
				jb.steps[s.node.ID()] = nil
				s.markZombie(jb)
				return nil
			}
			jb.errs[s.node.ID()] = err
			return err
		}
	}

	loopStart := time.Now()
	steps, err := s.superstepLoop()
	jb.steps[s.node.ID()] = steps
	if err != nil {
		if errors.Is(err, errServerKilled) {
			// This server died mid-job (scripted kill or fencing). Its
			// partial step stats would pollute the merged result, and the
			// session must stay usable: report nothing, become a zombie.
			jb.steps[s.node.ID()] = nil
			s.markZombie(jb)
			return nil
		}
		var jc jobCancelled
		if errors.As(err, &jc) {
			jb.cancels[s.node.ID()] = jc.cause
			return nil
		}
		jb.errs[s.node.ID()] = err
		return err
	}
	atomicMax(&jb.loopMax, int64(time.Since(loopStart)))

	if err := s.collectResult(); err != nil {
		if errors.Is(err, errServerKilled) {
			// Fenced during result assembly: same zombie exit as a mid-loop
			// death — the partial stats are dropped, survivors fill the rest.
			jb.steps[s.node.ID()] = nil
			s.markZombie(jb)
			return nil
		}
		jb.errs[s.node.ID()] = err
		return err
	}
	if s.pf != nil {
		// Park the prefetcher: any straggling batch finishes and unclaimed
		// staging is flushed, so the stats below are settled and the next
		// job starts clean.
		s.pf.drain()
	}
	if s.multi {
		// Job-scoped checkpoints die with the job. Best-effort: a removal
		// error cannot fail a job that already produced its result, and the
		// blobs are uniquely named, so leaks die with the work directory.
		for _, step := range s.ckptSteps {
			_ = s.store.Remove(s.ckptName(step))
		}
		s.ckptSteps = s.ckptSteps[:0]
	}
	s.fillServerStats()
	return nil
}

// initJobState resets the vertex replicas to the program's initial values.
// The backing arrays are session-lifetime; only the values are per-job.
func (s *server) initJobState() {
	if s.cfg.Replication == OnDemand {
		if s.state == nil {
			s.state = newOnDemandState(s.members)
		}
		for _, v := range s.members {
			s.state.set(v, s.prog.InitValue(v, s.graph))
		}
		return
	}
	if s.state == nil {
		s.state = newAllInAllState(s.graph.NumVertices)
	}
	for v := uint32(0); v < s.graph.NumVertices; v++ {
		s.state.values[v] = s.prog.InitValue(v, s.graph)
	}
}

// workerScratch is one worker's reusable memory for the superstep hot path:
// decoded-tile storage for cache misses and compressed-cache hits, the
// local-disk read buffer, the outgoing wire buffer, and the batch header
// handed to the encoder.
type workerScratch struct {
	tile  csr.Tile
	disk  []byte
	wire  []byte
	batch comm.Batch
}

func tileBlobName(i int) string { return fmt.Sprintf("tiles/%05d", i) }

// setup fetches assigned tiles to local disk, builds tile metadata, sizes
// the edge cache and the per-tile scratch, and records the OnDemand member
// set (Algorithm 5 lines 1–4, minus the per-program vertex initialization
// that initJobState performs at every Submit). It runs once per session.
func (s *server) setup() error {
	var err error
	s.store, err = disk.NewStore(s.work, s.cfg.Disk)
	if err != nil {
		return err
	}
	if hook := s.cfg.DiskFailureHook; hook != nil {
		id := s.node.ID()
		s.store.SetFailureHook(func(op, name string) error { return hook(id, op, name) })
	}

	var totalEnc int64
	var memberSet map[uint32]struct{}
	if s.cfg.Replication == OnDemand {
		memberSet = make(map[uint32]struct{})
	}
	var tl csr.Tile // reused across tiles; only the filter is retained
	sample := newRatioSample(len(s.tiles))
	ingest := func(i int, enc []byte) error {
		sample.offer(len(s.metas), enc)
		if err := s.store.Write(tileBlobName(i), enc); err != nil {
			return err
		}
		if err := csr.DecodeInto(&tl, enc); err != nil {
			return fmt.Errorf("core: server %d decoding tile %d: %w", s.node.ID(), i, err)
		}
		meta := &tileMeta{id: i, blob: tileBlobName(i), lo: tl.TargetLo, hi: tl.TargetHi, encBytes: int64(len(enc))}
		if tl.Filter != nil {
			meta.filter = tl.Filter
			s.bloomBytes += int64(tl.Filter.SizeBytes())
			tl.Filter = nil // meta owns it now; the next decode allocates anew
		}
		s.metas = append(s.metas, meta)
		totalEnc += int64(len(enc))
		if memberSet != nil {
			for v := tl.TargetLo; v < tl.TargetHi; v++ {
				memberSet[v] = struct{}{}
			}
			for _, src := range tl.Col {
				memberSet[src] = struct{}{}
			}
		}
		return nil
	}

	// Prefetch assigned tiles with a bounded in-flight window instead of
	// fetching serially — the SPE/DFS path reads each manifest tile from the
	// distributed store, so overlapping those reads cuts multi-server setup
	// time the same way the partition path's per-tile pre-encode does.
	// Slots are acquired in tile order and released as results are ingested,
	// so at most `window` fetched tiles are ever held in memory and the
	// ordered consumer can never deadlock behind later fetches.
	type fetched struct {
		enc []byte
		err error
	}
	window := s.cfg.WorkersPerServer * 2
	if window < 4 {
		window = 4
	}
	if window > len(s.tiles) {
		window = len(s.tiles)
	}
	results := make([]chan fetched, len(s.tiles))
	for idx := range results {
		results[idx] = make(chan fetched, 1)
	}
	sem := make(chan struct{}, window)
	var aborted atomic.Bool
	errAborted := errors.New("setup aborted")
	go func() {
		for idx, i := range s.tiles {
			sem <- struct{}{}
			go func(idx, i int) {
				// Post-error fetches short-circuit: every tile still
				// produces exactly one result (so the accounting below
				// cannot deadlock) but no further I/O happens.
				if aborted.Load() {
					results[idx] <- fetched{err: errAborted}
					return
				}
				enc, err := s.fetch(i)
				results[idx] <- fetched{enc: enc, err: err}
			}(idx, i)
		}
	}()
	// On an error the remaining in-flight fetches are drained off the
	// caller's path so neither they nor the dispatcher leak.
	drainFrom := func(idx int) {
		aborted.Store(true)
		go func() {
			for ; idx < len(s.tiles); idx++ {
				<-results[idx]
				<-sem
			}
		}()
	}
	for idx, i := range s.tiles {
		r := <-results[idx]
		<-sem
		if r.err != nil {
			drainFrom(idx + 1)
			return fmt.Errorf("core: server %d fetching tile %d: %w", s.node.ID(), i, r.err)
		}
		if err := ingest(i, r.enc); err != nil {
			drainFrom(idx + 1)
			return err
		}
	}

	s.scratch = make([]*workerScratch, s.cfg.WorkersPerServer)
	for w := range s.scratch {
		s.scratch[w] = new(workerScratch)
	}
	s.outs = make([]tileOut, len(s.metas))
	s.updBufs = make([][]comm.Update, len(s.metas))
	s.staged = make([][]comm.Update, s.node.NumNodes())

	// Fault-tolerance bookkeeping: the current ownership table starts as a
	// copy of the base one (Open built baseOwner from the initial
	// assignment), the per-sender expected-batch counts derive from it, and
	// the per-step receive tallies are sized for the cluster and tile count.
	s.curOwner = append([]int(nil), s.baseOwner...)
	s.ownedCnt = make([]int, s.node.NumNodes())
	for _, owner := range s.baseOwner {
		s.ownedCnt[owner]++
	}
	s.recvdFrom = make([]int, s.node.NumNodes())
	s.seenTiles = make([]uint64, (s.total+63)/64)

	capacity := s.cfg.CacheCapacity
	switch {
	case capacity == 0:
		capacity = math.MaxInt64
	case capacity < 0:
		capacity = 0
	}
	// Cache-mode selection (§IV-B) on measured ratios: when the raw tiles
	// do not fit, each codec's γ̂ is measured on the sample and replaces the
	// paper's planning γᵢ, both in the choice and in the expected cached
	// working set below, which drives the eviction policy, the residency
	// tier and the prefetch depth.
	mode := s.cfg.CacheMode
	if s.cfg.CacheAuto {
		mode = compress.None
	}
	gamma := 1.0 // ratio of the tiles as the chosen mode stores them
	if capacity > 0 && totalEnc > capacity && (s.cfg.CacheAuto || mode != compress.None) {
		if s.cfg.CacheAuto {
			mode = compress.SelectCacheModeBy(totalEnc, capacity, sample.ratio)
		}
		gamma = sample.ratio(mode)
		s.cacheRatio = gamma
		if mode == compress.None {
			// Nothing fit: report the strongest codec's ratio, the one
			// that fell short.
			s.cacheRatio = sample.ratio(compress.Zlib3)
		}
		if sample.err != nil {
			return fmt.Errorf("core: server %d measuring tile compressibility: %w", s.node.ID(), sample.err)
		}
	}
	expectedCached := int64(float64(totalEnc) / gamma)
	policy := s.cfg.CachePolicy
	if s.cfg.CachePolicyAuto {
		policy = cache.AdmitNoEvict
		if costmodel.SelectClockPolicy(expectedCached, capacity) {
			policy = cache.Clock
		}
	}
	s.cache, err = cache.NewWithPolicy(capacity, mode, policy)
	if err != nil {
		return err
	}
	if mode != compress.None {
		s.cache.SetExpectedRatio(s.cacheRatio)
	}

	// Residency tier: past the streaming crossover the cache machinery buys
	// almost no hits, so tiles flow through worker scratch instead (the
	// cache object stays — empty — for uniform stats accounting).
	s.residency = s.cfg.Residency
	if s.residency == ResidencyAuto {
		s.residency = ResidencyCached
		if costmodel.SelectResidency(expectedCached, capacity) == costmodel.ResidencyStreaming {
			s.residency = ResidencyStreaming
		}
	}

	// Sweep-ahead prefetch window: sized from the expected miss ratio (a
	// full-residency cache needs none), or forced by the knob. The
	// prefetcher and its reader workers live for the whole session.
	depth := s.cfg.PrefetchDepth
	if s.cfg.MaxConcurrentJobs > 1 {
		// Multi-tenant sessions run without the prefetcher: its sweep-position
		// model assumes one job owns the tile order, and concurrent sweeps
		// would evict each other's staging. Cross-job reuse comes from the
		// single-flight cache loads and the share window instead.
		depth = -1
	}
	if depth == 0 {
		effCap := capacity
		if s.residency == ResidencyStreaming {
			effCap = 0 // every sweep misses everything
		}
		depth = costmodel.PrefetchDepth(expectedCached, effCap, s.cfg.WorkersPerServer)
		// Staging is memory too: the staged tiles and in-flight batch
		// frames stay within the cache budget.
		depth = costmodel.BoundPrefetchDepth(depth, capacity, s.maxTileBytes())
	}
	if depth > 0 {
		s.pfDepth = depth
		s.pf = newPrefetcher(s.store, s.cache, s.total, depth, s.residency == ResidencyCached)
	}

	if s.cfg.Replication == OnDemand {
		for v := range memberSet {
			s.members = append(s.members, v)
		}
	}
	return nil
}

// superstepLoop is Algorithm 5 lines 5–22, plus the superstep-boundary
// rebalance phase (rebalance.go) and adaptive send-queue resizing between
// the BSP barriers. It is re-entrant per session: every per-job quantity —
// halt votes, the updated-vertex list, step stats — lives in locals or in
// fields runJob reset, while tiles, cache and scratch stay warm.
//
// Cancellation is decided at the step-end barrier: each server votes its
// context's state, and the OR of the votes aborts all servers at the same
// step edge with no update traffic left in flight (the vote barrier is the
// same barrier that already guarantees every batch of the step has been
// absorbed).
func (s *server) superstepLoop() ([]StepStats, error) {
	return s.superstepLoopFrom(0)
}

// superstepLoopFrom runs the superstep loop starting at the given step — 0
// for a fresh job, restore+1 for a rejoined server replaying into a job
// already in flight (its earlier steps ran on the cluster before it was
// readmitted; the steps it appends carry their true Superstep numbers).
func (s *server) superstepLoopFrom(start int) ([]StepStats, error) {
	n := s.node
	encOpts := comm.Options{
		Choice:            s.cfg.Comm,
		SparsityThreshold: s.cfg.SparsityThreshold,
		Codec:             s.msgCodec,
	}

	var steps []StepStats
	var prevUpdated []uint32 // nil = unknown or too many: process all tiles
	// updatedBuf backs the per-step updated-vertex list. One buffer is
	// enough: the workers read prevUpdated only before wg.Wait, and the next
	// step's list is rebuilt from [:0] strictly after that.
	var updatedBuf []uint32

	for step := start; step < s.maxSteps; step++ {
		if s.multi {
			// WRR turnstile: among the jobs waiting to start a step on this
			// server, the smallest (step+1)/weight key goes first. A job
			// mid-step is not waiting and is never throttled here.
			s.shared.gate.arrive(s.jobID, s.jobWeight, step)
		}
		if step > start {
			// Superstep boundary: one full cyclic sweep over the assigned
			// tiles has completed. The CLOCK eviction policy keys its
			// reference bits on this epoch counter (§IV-B extension). With
			// concurrent runners the epoch advances once per runner per step —
			// a faster reference clock, which only shifts CLOCK eviction
			// quality, never results.
			s.cache.AdvanceEpoch()
		}
		st, updatedTotal, newUpdated, overLimit, err := s.runStep(step, prevUpdated, updatedBuf, encOpts)
		if err != nil {
			if !s.canRecover(err) {
				return steps, err
			}
			restore, rerr := s.recoverFromFailure()
			if rerr != nil {
				return steps, rerr
			}
			// Rewind the step record to the restore point: the replayed
			// steps re-append identical rows (re-execution is
			// bit-identical, so the Updated series repeats exactly; only
			// timings and per-server byte shares differ). Trim by the
			// recorded Superstep, not the slice index — a rejoined
			// server's record starts mid-job, at start, not at step 0.
			for len(steps) > 0 && steps[len(steps)-1].Superstep > restore {
				steps = steps[:len(steps)-1]
			}
			step = restore // the loop increment resumes at restore+1
			prevUpdated = nil
			updatedBuf = updatedBuf[:0]
			continue
		}
		steps = append(steps, st)
		if s.progress != nil && n.ID() == s.coordRank() {
			// Live progress, streamed at the barrier edge from the
			// coordinator (the lowest live rank — the role fails over).
			// Superstep/Updated are global; the byte and tile counters are
			// this server's local share.
			s.progress(st)
		}
		if updatedTotal == 0 {
			break
		}
		if s.adaptiveQueue && s.sender != nil {
			s.adaptSendQueue()
		}
		updatedBuf = newUpdated
		prevUpdated = newUpdated
		if overLimit {
			prevUpdated = nil
		}
	}
	return steps, nil
}

// runStep executes one superstep: compute over the assigned tiles with the
// pipelined (or lockstep) broadcast of updates, the counted receive of
// every live peer's batches, the step-end consensus barrier, and the
// checkpoint and rebalance phases inside the barrier bracket. It returns
// the step's stats, the global updated count, the new updated-vertex list
// (sharing updatedBuf's backing array) and whether that list overflowed
// BloomCheckLimit. A cluster.ErrMembershipChanged return means a peer died
// mid-step and the caller should run recovery.
func (s *server) runStep(step int, prevUpdated, updatedBuf []uint32, encOpts comm.Options) (st StepStats, updatedTotal int, newUpdated []uint32, overLimit bool, err error) {
	n := s.node
	st = StepStats{Superstep: step}
	// Step edge: fire any scripted rejoin pinned to this step (parking here
	// until its handshake resolves — a short job would otherwise finish
	// before the admission lands), then poll the control plane for join
	// requests — admission happens here, before any of this step's traffic,
	// so a grown membership is observed by every live server at the same
	// step boundary (via the recovery protocol the epoch bump provokes).
	for _, done := range s.faults.fireRejoins(step) {
		s.awaitRejoin(done)
	}
	s.pollJoinRequests()
	if k, ok := s.faults.killAt(n.ID(), step, KillAtStepStart); ok {
		return st, 0, nil, false, s.die(k.Hang)
	}
	stepStart := time.Now()
	// Wire accounting multiplies each batch by the live peer count; dead
	// peers' frames are dropped at the transport and cost nothing.
	livePeers := int64(n.AliveCount() - 1)

	// Pipelined receive: decode foreign batches into per-sender scratch
	// as they arrive, concurrently with local compute. Applying waits
	// until compute finishes so every gather reads step-(k-1) values.
	var recvErr chan error
	if s.sender != nil && s.stepExpected() > 0 {
		recvErr = make(chan error, 1)
		// ctx rides in as an argument, not via the s.ctx field: on a
		// hard error the loop can return without joining this
		// goroutine, which then must not race runJob's per-job field
		// teardown (the cluster abort or the membership interrupt is
		// what unblocks and ends it). In a serial session the orphan
		// holds the node's quiesce gate: it shares the server struct a
		// replacement runner would reuse, so a rejoin must wait it out.
		if !s.multi {
			sh := s.shared
			sh.quiesceEnter()
			go func(ctx context.Context) {
				defer sh.quiesceExit()
				recvErr <- s.receiveStep(ctx, step)
			}(s.ctx)
		} else {
			go func(ctx context.Context) { recvErr <- s.receiveStep(ctx, step) }(s.ctx)
		}
	}

	// Parallel tile processing on T workers (OpenMP pragma analog).
	outs := s.outs
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < s.cfg.WorkersPerServer; w++ {
		wg.Add(1)
		go func(scr *workerScratch) {
			defer wg.Done()
			for k := range work {
				outs[k] = s.processTile(k, step, prevUpdated, encOpts, scr)
			}
		}(s.scratch[w])
	}
	if s.pf != nil {
		// New sweep: drain the previous step's staging and hand the
		// prefetcher this step's tile order and skip predicate.
		s.pf.restart(s.metas, prevUpdated, step, s.cfg.BloomSkip)
	}
	for k := range s.metas {
		if s.pf != nil {
			// Keep the staging window pfDepth tiles ahead of the feed
			// position; reach never blocks on I/O.
			s.pf.reach(k + s.pfDepth)
		}
		work <- k
	}
	close(work)
	wg.Wait()

	if k, ok := s.faults.killAt(n.ID(), step, KillMidStep); ok {
		// Mid-step: this server's batches are enqueued or on the wire, but
		// it will never finish receiving or reach the barrier. A pending
		// receive goroutine unwinds via the membership interrupt the death
		// provokes; it only touches this zombie's private scratch.
		return st, 0, nil, false, s.die(k.Hang)
	}

	updatedTotal = 0
	newUpdated = updatedBuf[:0]
	overLimit = false
	absorb := func(ups []comm.Update) {
		for _, u := range ups {
			s.state.set(u.ID, u.Value)
		}
		updatedTotal += len(ups)
		if !overLimit {
			for _, u := range ups {
				newUpdated = append(newUpdated, u.ID)
			}
			if len(newUpdated) > s.cfg.BloomCheckLimit {
				overLimit = true
				newUpdated = newUpdated[:0] // keep the buffer for reuse
			}
		}
	}

	for k := range outs {
		o := &outs[k]
		if o.err != nil {
			return st, 0, nil, false, o.err
		}
		if o.skipped {
			st.SkippedTiles++
		} else {
			st.LoadedTiles++
		}
		if o.enc.Mode == comm.DenseMode {
			st.DenseMsgs++
		} else {
			st.SparseMsgs++
		}
		// Wire bytes: each batch went to every live peer.
		st.WireBytes += int64(o.enc.WireBytes) * livePeers
		st.RawBytes += int64(o.enc.RawBytes) * livePeers
		absorb(o.updates)
	}

	// The Broadcast leg of GAB, receiver side. Pipelined: the concurrent
	// receive loop already decoded everything it could during compute;
	// drain the send queues (flush-at-barrier), join it, and apply the
	// staged updates in sender-rank order. Lockstep: receive and stage
	// everything here, after compute, through the same counted protocol.
	switch {
	case recvErr != nil:
		if err := s.sender.Flush(); err != nil {
			return st, 0, nil, false, err
		}
		if err := <-recvErr; err != nil {
			return st, 0, nil, false, err
		}
		for from := range s.staged {
			absorb(s.staged[from])
			s.staged[from] = s.staged[from][:0]
		}
	case n.NumNodes() > 1:
		if s.sender != nil {
			if err := s.sender.Flush(); err != nil {
				return st, 0, nil, false, err
			}
		}
		if err := s.receiveStep(nil, step); err != nil {
			return st, 0, nil, false, err
		}
		for from := range s.staged {
			absorb(s.staged[from])
			s.staged[from] = s.staged[from][:0]
		}
	}

	st.Updated = updatedTotal
	st.Duration = time.Since(stepStart)

	if k, ok := s.faults.killAt(n.ID(), step, KillAtBarrier); ok {
		// This server absorbed the step but never votes; survivors detect
		// it at the barrier (instantly for a crash, by timeout for a hang).
		return st, 0, nil, false, s.die(k.Hang)
	}

	// First barrier: every server has absorbed every update batch of
	// this step, so no update traffic is in flight afterwards. The same
	// barrier carries the cancellation consensus — if any server's
	// context is done, all servers abort here, at the same step edge,
	// leaving the transport clean for the session's next job.
	d, berr := s.barrierVote(s.ctx.Err() != nil)
	if berr != nil {
		return st, 0, nil, false, berr
	}
	if d {
		if cerr := s.ctx.Err(); cerr != nil {
			return st, 0, nil, false, jobCancelled{cause: cerr}
		}
		// The vote was forced by a broken barrier: a peer hit a hard
		// error and the cluster is aborting underneath us.
		return st, 0, nil, false, fmt.Errorf("core: server %d: superstep barrier: %w", n.ID(), cluster.ErrClosed)
	}

	// Checkpoint phase, inside the barrier bracket: the vote barrier
	// above guarantees every server holds the identical fully-absorbed
	// step-`step` vector (a consistent cut — no update traffic is in
	// flight); the exit barrier below keeps anyone from starting step+1
	// traffic while blobs are still being written. The gate is computed
	// from per-job knobs and the globally-identical updatedTotal, so
	// either every server checkpoints or none does. The final step is
	// skipped: the job is about to end, there is nothing to resume into.
	if s.ckptEvery > 0 && updatedTotal != 0 && step+1 < s.maxSteps && (step+1)%s.ckptEvery == 0 {
		if err := s.writeCheckpoint(step, &st); err != nil {
			return st, 0, nil, false, err
		}
		d, berr := s.barrierVote(false)
		if berr != nil {
			return st, 0, nil, false, berr
		}
		if d {
			return st, 0, nil, false, fmt.Errorf("core: server %d: checkpoint barrier: %w", n.ID(), cluster.ErrClosed)
		}
	}

	if updatedTotal != 0 && step+1 < s.maxSteps && s.rebal != nil {
		// Rebalance phase, only when a next superstep will actually run
		// (migrating after the last budgeted step would ship tiles no
		// one processes). The gate (rebal non-nil, the step budget, and
		// updatedTotal — which is identical on every server) is
		// evaluated identically everywhere, so either all servers enter
		// the phase or none do.
		if err := s.rebalanceStep(step, &st); err != nil {
			return st, 0, nil, false, err
		}
		// Second barrier: no server starts the next superstep (and its
		// update traffic) while tiles are still moving.
		n.Barrier()
	}
	return st, updatedTotal, newUpdated, overLimit, nil
}

// Update batches travel framed as [stepFrameMagic][step mod 256][comm
// payload]. The magic (distinct from comm's raw 0xB7, rebalance's
// 0xC1–0xC3 and the recovery marker's 0xC9) classifies the frame; the step
// byte pins it to its superstep, so stale traffic is discarded instead of
// absorbed with wrong-step values. Stale frames arise two ways: a
// duplicated frame (scripted WireDuplicate) riding its FIFO link right
// behind the original can cross one step boundary, and a crashed server's
// in-flight frames for the interrupted step can outlive recovery (nothing
// forces their drain — the dead server sends no recovery marker). The step
// byte disambiguates both as long as a replayed step is never 256 steps
// away from the frame's origin, which CheckpointEvery < 256 guarantees.
const stepFrameMagic = 0xB8

// stepHeader starts an update-batch frame for the given superstep. In a
// multi-tenant session the step header rides inside the job envelope
// (comm.AppendJobHeader), so job A's frames can never alias job B's even at
// the same superstep number.
func (s *server) stepHeader(dst []byte, step int) []byte {
	if s.multi {
		dst = comm.AppendJobHeader(dst, s.jobID)
	}
	return append(dst, stepFrameMagic, byte(step))
}

// stepExpected returns how many foreign update batches this step's counted
// receive expects: one per tile owned by a live peer.
func (s *server) stepExpected() int {
	me := s.node.ID()
	exp := 0
	for p, cnt := range s.ownedCnt {
		if p != me && s.node.Alive(p) {
			exp += cnt
		}
	}
	return exp
}

// adaptSendQueue resizes the pipelined sender's per-destination queues from
// the backpressure observed since the last adjustment. It runs between the
// step's flush and the next step's first enqueue, when the queues are
// guaranteed empty, so swapping the Sender is safe.
func (s *server) adaptSendQueue() {
	m := s.node.Metrics()
	stallsDelta := m.SendStalls - s.lastStalls
	s.lastStalls = m.SendStalls
	if stallsDelta == 0 {
		s.quietSteps++
	} else {
		s.quietSteps = 0
	}
	next := costmodel.AdaptQueueCap(s.queueCap, stallsDelta, m.QueueHighWater, s.quietSteps)
	if next == s.queueCap {
		return
	}
	// The old sender was flushed at the barrier; Close only reaps its drain
	// goroutines. An asynchronous error would already have aborted the
	// cluster, so it surfaces through the normal paths — not here.
	s.sender.Close()
	s.queueCap = next
	s.quietSteps = 0
	s.sender = s.node.NewSender(next)
}

// loadTile materializes one tile for processTile: cache hit, staged
// prefetch, or synchronous demand read — in that order of preference. The
// prefetcher is consulted only after a cache miss, and its staged tile is
// offered for admission with exactly the same policy decision a demand miss
// gets (cache.AdmitLoaded), so prefetching never changes what the cache
// retains. A failed prefetch falls through to the synchronous path — the
// demand read is the retry. Under the streaming residency tier the cache
// holds no tiles (GetInto still runs for uniform hit/miss accounting) and
// un-prefetched tiles are read and decoded straight into worker scratch.
func (s *server) loadTile(meta *tileMeta, scr *workerScratch) (*csr.Tile, error) {
	if t, ok := s.cache.GetInto(meta.id, &scr.tile); ok {
		return t, nil
	}
	if s.multi {
		// Cross-job sharing: a concurrent job may have offered this tile
		// after paying its disk read. A take is the read this job skips.
		if t, ok := s.shared.share.Take(meta.id, s.slotBit, &scr.tile); ok {
			atomic.AddInt64(&s.shareHits, 1)
			if s.residency == ResidencyCached {
				if err := s.cache.AdmitLoaded(meta.id, t); err != nil {
					return nil, err
				}
			}
			return t, nil
		}
	}
	if s.pf != nil {
		if t := s.pf.take(meta.id, &scr.tile); t != nil {
			if s.residency == ResidencyCached {
				if err := s.cache.AdmitLoaded(meta.id, t); err != nil {
					return nil, err
				}
			}
			return t, nil
		}
	}
	if s.residency == ResidencyStreaming {
		data, err := s.store.ReadInto(meta.blob, scr.disk[:0])
		if err != nil {
			return nil, err
		}
		scr.disk = data[:0] // keep (possibly grown) buffer for the next load
		if err := csr.DecodeInto(&scr.tile, data); err != nil {
			return nil, err
		}
		if s.multi {
			s.offerShare(meta.id, &scr.tile)
		}
		return &scr.tile, nil
	}
	t, err := s.cache.LoadInto(meta.id, &scr.tile, func(dst *csr.Tile) (*csr.Tile, error) {
		data, err := s.store.ReadInto(meta.blob, scr.disk[:0])
		if err != nil {
			return nil, err
		}
		scr.disk = data[:0] // keep (possibly grown) buffer for the next load
		if dst == nil {
			return csr.Decode(data)
		}
		if err := csr.DecodeInto(dst, data); err != nil {
			return nil, err
		}
		return dst, nil
	})
	if err == nil && s.multi && !s.cache.Contains(meta.id) {
		// The cache declined admission (policy or capacity): the read's
		// result would otherwise be lost to the other jobs, so offer it.
		s.offerShare(meta.id, t)
	}
	return t, err
}

// tileOut is the outcome of processing one tile in one superstep. nanos is
// the tile's measured wall-clock cost (load + gather + apply + encode +
// enqueue) — the signal the rebalancer's straggler detector consumes.
type tileOut struct {
	updates []comm.Update
	enc     comm.Encoding
	nanos   int64
	skipped bool
	err     error
}

// receiveStep is the counted receive of one superstep: it consumes frames
// until one distinct batch per live-peer-owned tile has arrived, decoding
// each the moment it lands and staging its updates per sender rank. In
// pipelined mode it runs on its own goroutine concurrently with tile
// compute; in lockstep mode it runs inline after compute. Only one receive
// runs at a time, so recvBatch and staged are single-writer.
//
// The count is per distinct tile, not per frame: a seen-tile bitset drops
// duplicated frames (scripted WireDuplicate, future retransmits), and stray
// recovery markers from an earlier failure are discarded by magic byte.
// When the stream stalls past the cluster's FailureTimeout, whichever live
// peers still owe batches are declared dead and the step fails with
// cluster.ErrMembershipChanged — the signal the superstep loop turns into
// recovery. A peer whose frame was dropped by the wire is indistinguishable
// from a dead one; the false accusation fences it, which is the designed
// fail-stop semantic.
//
// The receive is context-aware: a cancelled job stops staging immediately.
// The remaining batches of the step are still drained — cancellation is
// only acted on at the step edge, so every peer completes its sends and the
// counted protocol must consume them to leave the transport clean for the
// session's next job — but their contents are discarded, since the vote
// barrier is now guaranteed to abort the job.
func (s *server) receiveStep(ctx context.Context, step int) error {
	me := s.node.ID()
	need := 0
	for p, cnt := range s.ownedCnt {
		s.recvdFrom[p] = 0
		if p != me && s.node.Alive(p) {
			need += cnt
		}
	}
	if need == 0 {
		return nil
	}
	for i := range s.seenTiles {
		s.seenTiles[i] = 0
	}
	discard := false
	handle := func(from int, msg []byte) (bool, error) {
		if len(msg) < 2 || msg[0] != stepFrameMagic || msg[1] != byte(step) {
			if len(msg) > 0 && (msg[0] == stepFrameMagic || msg[0] == markerMagic) {
				// Another step's frame (a leaked duplicate, or a dead
				// server's in-flight traffic outliving recovery) or a stray
				// recovery marker: stale, discard.
				return false, nil
			}
			return false, fmt.Errorf("core: server %d received non-batch frame (%d bytes) mid-step", me, len(msg))
		}
		if _, err := comm.DecodeInto(&s.recvBatch, msg[2:]); err != nil {
			return false, fmt.Errorf("core: server %d decoding update batch: %w", me, err)
		}
		t := int(s.recvBatch.TileID)
		if t >= s.total {
			return false, fmt.Errorf("core: server %d received update batch for unknown tile %d", me, t)
		}
		if s.seenTiles[t>>6]&(1<<uint(t&63)) != 0 {
			return false, nil // duplicated frame
		}
		s.seenTiles[t>>6] |= 1 << uint(t&63)
		s.recvdFrom[from]++
		if !discard {
			s.staged[from] = append(s.staged[from], s.recvBatch.Updates...)
		}
		need--
		return need == 0, nil
	}
	err := s.recvWhile(ctx, handle)
	if err != nil && ctx != nil && ctx.Err() != nil && errors.Is(err, ctx.Err()) {
		discard = true
		err = s.recvWhile(nil, handle)
	}
	if err != nil && errors.Is(err, cluster.ErrRecvStall) {
		if s.shared.dead.Load() {
			// A killed runner's orphaned receive has no standing to accuse:
			// its peers stopped sending because THIS server died, and a
			// false accusation here would fence a healthy survivor.
			return cluster.ErrMembershipChanged
		}
		for p, cnt := range s.ownedCnt {
			if p != me && s.node.Alive(p) && s.recvdFrom[p] < cnt {
				s.node.DeclareDead(p)
			}
		}
		return cluster.ErrMembershipChanged
	}
	return err
}

// processTile runs gather+apply over one tile and broadcasts the resulting
// update batch (Algorithm 5 lines 8–16). Even skipped and empty tiles
// broadcast a batch so receivers know exactly how many messages to expect.
// All per-tile working memory — the update list, the decoded tile, the disk
// read buffer and the wire buffer — is reused across supersteps, so in
// steady state this path allocates nothing.
func (s *server) processTile(k, step int, prevUpdated []uint32, encOpts comm.Options, scr *workerScratch) (out tileOut) {
	start := time.Now()
	defer func() { out.nanos = time.Since(start).Nanoseconds() }()
	meta := s.metas[k]
	g := s.graph
	prog := s.prog

	skip := false
	if step > 0 && s.cfg.BloomSkip && meta.filter != nil {
		// prevUpdated == nil means "too many to check": always load.
		if prevUpdated != nil && !meta.filter.ContainsAny(prevUpdated) {
			skip = true
		}
	}
	updates := s.updBufs[k][:0]
	if !skip {
		t, err := s.loadTile(meta, scr)
		if err != nil {
			out.err = fmt.Errorf("core: server %d loading tile %d: %w", s.node.ID(), meta.id, err)
			return out
		}
		for v := meta.lo; v < meta.hi; v++ {
			srcs, vals := t.InEdges(v)
			acc := prog.InitAccum()
			if vals != nil {
				for i, src := range srcs {
					acc = prog.Gather(acc, src, s.state.get(src), float64(vals[i]), g)
				}
			} else {
				for _, src := range srcs {
					acc = prog.Gather(acc, src, s.state.get(src), 1, g)
				}
			}
			old := s.state.get(v)
			nv := prog.Apply(v, acc, old, g)
			if nv != old {
				updates = append(updates, comm.Update{ID: v, Value: nv})
			}
		}
	}
	s.updBufs[k] = updates
	out.updates = updates
	out.skipped = skip

	scr.batch = comm.Batch{TileID: uint32(meta.id), Lo: meta.lo, Hi: meta.hi, Updates: updates}
	if s.sender != nil {
		// Pipelined: encode into a pooled wire buffer and enqueue it. The
		// worker moves on to its next tile immediately; ownership of the
		// buffer transfers to the sender, which recycles it after the last
		// destination's write.
		wb := s.sender.Acquire()
		msg, enc, err := comm.AppendEncode(s.stepHeader(wb.Data[:0], step), &scr.batch, encOpts)
		if err != nil {
			s.sender.Release(wb)
			out.err = err
			return out
		}
		wb.Data = msg
		out.enc = enc
		if err := s.sender.Broadcast(wb); err != nil {
			out.err = err
		}
		return out
	}
	msg, enc, err := comm.AppendEncode(s.stepHeader(scr.wire[:0], step), &scr.batch, encOpts)
	if err != nil {
		out.err = err
		return out
	}
	scr.wire = msg
	out.enc = enc
	// Lockstep broadcast serializes per server: the paper's workers also
	// funnel through one NIC; both transports finish with the buffer before
	// Send returns, so the wire buffer is free for the worker's next tile.
	// This also keeps cluster.Node usage single-writer.
	s.bmu.Lock()
	err = s.node.Broadcast(msg)
	s.bmu.Unlock()
	if err != nil {
		out.err = err
	}
	return out
}

// collectResult assembles the final value vector on the coordinator. Under
// All-in-All every live server already has every replica, so the lowest
// live rank copies its own — the role fails over when rank 0 died mid-job.
// Under On-Demand each server owns the target ranges of its tiles and ships
// them to rank 0 (On-Demand jobs cannot lose servers: recovery requires
// All-in-All).
func (s *server) collectResult() error {
	n := s.node
	if s.cfg.Replication == AllInAll {
		for {
			if n.ID() == s.coordRank() {
				copy(s.result.Values, s.state.values)
			}
			err := s.barrierErr()
			if err == nil {
				return nil
			}
			if !errors.Is(err, cluster.ErrMembershipChanged) {
				return err
			}
			// A lingering declaration landed between the last superstep and
			// here (a hang victim detected late, say). No step state is at
			// risk any more — re-acknowledge, re-elect, re-copy.
			epoch, alive := n.AckMembership()
			s.ackedEpoch = epoch
			if !alive[n.ID()] {
				return s.die(true)
			}
		}
	}
	// On-Demand: exchange target-range values. The sends ride the pipelined
	// Sender when one is running, so encoding the next range overlaps the
	// previous range's wire time instead of paying blocking sends at the
	// run tail; rank 0 streams the batches straight into the result vector
	// (target ranges are disjoint, so arrival order is irrelevant).
	collectOpts := comm.Options{Choice: comm.ForceDense, Codec: compress.Snappy}
	if n.ID() != 0 {
		for _, meta := range s.metas {
			ups := make([]comm.Update, 0, meta.hi-meta.lo)
			for v := meta.lo; v < meta.hi; v++ {
				ups = append(ups, comm.Update{ID: v, Value: s.state.get(v)})
			}
			batch := comm.Batch{TileID: uint32(meta.id), Lo: meta.lo, Hi: meta.hi, Updates: ups}
			if s.sender != nil {
				wb := s.sender.Acquire()
				head := wb.Data[:0]
				if s.multi {
					head = comm.AppendJobHeader(head, s.jobID)
				}
				msg, _, err := comm.AppendEncode(head, &batch, collectOpts)
				if err != nil {
					s.sender.Release(wb)
					return err
				}
				wb.Data = msg
				if err := s.sender.Send(0, wb); err != nil {
					return err
				}
				continue
			}
			var head []byte
			if s.multi {
				head = comm.AppendJobHeader(nil, s.jobID)
			}
			msg, _, err := comm.AppendEncode(head, &batch, collectOpts)
			if err != nil {
				return err
			}
			if err := n.Send(0, msg); err != nil {
				return err
			}
		}
		if s.sender != nil {
			if err := s.sender.Flush(); err != nil {
				return err
			}
		}
	} else {
		for _, meta := range s.metas {
			for v := meta.lo; v < meta.hi; v++ {
				s.result.Values[v] = s.state.get(v)
			}
		}
		err := s.recvCount(s.total-len(s.metas), func(from int, m []byte) error {
			if _, err := comm.DecodeInto(&s.recvBatch, m); err != nil {
				return fmt.Errorf("core: server 0 decoding result batch: %w", err)
			}
			for _, u := range s.recvBatch.Updates {
				s.result.Values[u.ID] = u.Value
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return s.syncBarrier()
}

// barrierVote is the runner's step-consensus barrier: the node-wide vote
// barrier in a serial session, the job-tagged barrier (checked against this
// runner's privately acknowledged membership epoch) when multi-tenant.
func (s *server) barrierVote(flag bool) (bool, error) {
	if s.multi {
		return s.node.JobBarrierVoteEpoch(s.jobID, flag, s.ackedEpoch)
	}
	return s.node.BarrierVoteErr(flag)
}

// barrierErr is the voteless form: nil on a clean pass, the membership error
// when a runner must recover, a broken barrier surfaced as ErrClosed.
func (s *server) barrierErr() error {
	if !s.multi {
		return s.node.BarrierErr()
	}
	d, err := s.node.JobBarrierVoteEpoch(s.jobID, false, s.ackedEpoch)
	if err != nil {
		return err
	}
	if d {
		// Nobody votes true on this barrier; a true outcome means the
		// barrier was broken by a cluster abort.
		return fmt.Errorf("core: server %d: job barrier: %w", s.node.ID(), cluster.ErrClosed)
	}
	return nil
}

// syncBarrier is the plain end-of-phase barrier (collectResult's tail):
// best-effort in both modes — the result is already assembled, a failure
// here cannot corrupt it.
func (s *server) syncBarrier() error {
	if !s.multi {
		s.node.Barrier()
		return nil
	}
	_, err := s.node.JobBarrierVoteEpoch(s.jobID, false, s.ackedEpoch)
	if err != nil && !errors.Is(err, cluster.ErrMembershipChanged) {
		return err
	}
	return nil
}

// recvWhile is receiveStep's stream primitive: the node inbox in a serial
// session, this runner's routed mailbox when multi-tenant.
func (s *server) recvWhile(ctx context.Context, fn func(from int, msg []byte) (bool, error)) error {
	if s.multi {
		return s.recvMail(ctx, fn)
	}
	return s.node.RecvStreamWhile(ctx, fn)
}

// recvCount is collectResult's counted receive: exactly count frames, each
// handed to fn.
func (s *server) recvCount(count int, fn func(from int, msg []byte) error) error {
	if !s.multi {
		return s.node.RecvStream(count, fn)
	}
	if count <= 0 {
		return nil
	}
	remaining := count
	return s.recvMail(nil, func(from int, payload []byte) (bool, error) {
		if err := fn(from, payload); err != nil {
			return false, err
		}
		remaining--
		return remaining == 0, nil
	})
}

// offerShare publishes a tile this runner just paid a disk read for to the
// node's share window, for the other in-flight jobs to take. The window
// copies the tile, so scratch- or cache-backed arguments are fine.
func (s *server) offerShare(id int, t *csr.Tile) {
	sh := s.shared
	if mask := sh.sched.othersMask(s.slotBit); mask != 0 {
		sh.share.Offer(id, t, mask)
	}
}

// fillServerStats computes the analytic memory footprint (§IV-A accounting)
// and snapshots the disk, cache and network counters. On a session's
// second and later jobs the counters are cumulative since Open — the warm
// store and cache are shared state, and their deltas between jobs are what
// pin cross-job reuse (a warm Submit adds cache hits but no tile writes).
func (s *server) fillServerStats() {
	st := &s.result.Servers[s.node.ID()]
	st.Server = s.node.ID()
	st.VertexSlots = s.state.numSlots()
	mem := s.bloomBytes
	mem += s.state.memoryBytes()
	// The out-degree array each server keeps for programs like PageRank.
	mem += int64(len(s.graph.OutDeg)) * 4
	// Cache contents plus one in-flight decoded tile per worker.
	cs := s.cache.Stats()
	mem += cs.BytesCached
	mem += s.maxTileBytes() * int64(s.cfg.WorkersPerServer)
	st.MemoryBytes = mem
	st.Disk = s.store.Counters()
	st.Cache = cs
	st.CacheMode = s.cache.Mode()
	st.CachePolicy = s.cache.Policy()
	st.Residency = s.residency
	st.CacheRatio = s.cacheRatio
	if s.pf != nil {
		st.PrefetchIssued, st.PrefetchHits, st.PrefetchWasted = s.pf.statsSnapshot()
	}
	st.TilesMigratedIn = s.tilesIn
	st.TilesMigratedOut = s.tilesOut
	if !s.lockstep {
		// A lockstep job has no send queues, even when a previous pipelined
		// job on the same session left a learned capacity behind.
		st.SendQueueCap = s.queueCap
	}
	m := s.node.Metrics()
	st.BytesSent = m.BytesSent
	st.BytesRecv = m.BytesRecv
	st.SendStalls = m.SendStalls
	st.SendQueueHighWater = m.QueueHighWater
	st.Checkpoints = s.ckptCount
	st.CheckpointBytes = s.ckptBytes
	st.TilesAdopted = s.tilesAdopted
	st.Recoveries = s.recoveries
	st.RecoveryTime = s.recoveryTime
	st.Joins = int(s.shared.joins.Load())
	st.MembershipEpoch = s.node.MembershipEpoch()
	st.SharedTileLoads = atomic.LoadInt64(&s.shareHits)
}

// maxTileBytes is the largest encoded tile this server owns.
func (s *server) maxTileBytes() int64 {
	var maxTile int64
	for _, m := range s.metas {
		maxTile = max(maxTile, m.encBytes)
	}
	return maxTile
}

// jobRunner clones this server for one admitted job of a multi-tenant
// session. The clone shares everything session-lifetime — store, cache,
// graph, node, metas data, the nodeShared plumbing — and privatizes
// everything a concurrent BSP loop writes: vertex state (allocated fresh by
// initJobState), scratch, per-tile buffers, ownership tables and receive
// tallies. Built field-by-field: server holds a mutex, so a struct copy
// would be a copylocks violation.
func (s *server) jobRunner(jb *job) *server {
	r := &server{
		cfg:        s.cfg,
		node:       s.node,
		graph:      s.graph,
		tiles:      s.tiles,
		total:      s.total,
		work:       s.work,
		store:      s.store,
		cache:      s.cache,
		members:    s.members,
		bloomBytes: s.bloomBytes,
		residency:  s.residency,
		cacheRatio: s.cacheRatio,
		workRoot:   s.workRoot,
		baseOwner:  s.baseOwner, // read-only without the rebalancer
		faults:     s.faults,
		shared:     s.shared,
		multi:      true,
		jobID:      jb.id,
		slotBit:    1 << uint(jb.slot),
		jobWeight:  jb.weight,
	}
	r.metas = append([]*tileMeta(nil), s.metas...)
	r.scratch = make([]*workerScratch, r.cfg.WorkersPerServer)
	for w := range r.scratch {
		r.scratch[w] = new(workerScratch)
	}
	r.outs = make([]tileOut, len(r.metas))
	r.updBufs = make([][]comm.Update, len(r.metas))
	r.staged = make([][]comm.Update, r.node.NumNodes())
	r.curOwner = append([]int(nil), s.baseOwner...)
	r.ownedCnt = make([]int, r.node.NumNodes())
	for _, owner := range r.curOwner {
		r.ownedCnt[owner]++
	}
	r.recvdFrom = make([]int, r.node.NumNodes())
	r.seenTiles = make([]uint64, (r.total+63)/64)
	// Static send-queue sizing only: the adaptive controller reads node-wide
	// stall metrics, which concurrent runners would pollute for each other.
	r.queueCap = r.cfg.SendQueueCap
	if r.queueCap <= 0 {
		r.queueCap = 32
	}
	r.rtr = s.shared.router.Load()
	r.mailbox = r.rtr.register(jb.id)
	return r
}

// claimIfZombie is runJob's dead-server gate: under the zombie ledger's
// lock it checks the death flag (or a prior claim of this job) and records
// the job so the join controller can respawn it if the server is
// readmitted. The lock pairs with the controller's claim-and-revive
// critical section — a job is either recorded here before the flip and
// respawned, or observes the cleared flag and runs normally.
func (s *server) claimIfZombie(jb *job) bool {
	sh := s.shared
	sh.zMu.Lock()
	defer sh.zMu.Unlock()
	if !sh.dead.Load() && !sh.zombies[jb] {
		return false
	}
	if sh.zombies == nil {
		sh.zombies = make(map[*job]bool)
	}
	sh.zombies[jb] = true
	return true
}

// markZombie records a job this server abandoned mid-run (errServerKilled):
// if the server later rejoins while the job is still in flight, the join
// controller spawns a replacement runner for it.
func (s *server) markZombie(jb *job) {
	sh := s.shared
	sh.zMu.Lock()
	if sh.zombies == nil {
		sh.zombies = make(map[*job]bool)
	}
	sh.zombies[jb] = true
	sh.zMu.Unlock()
}

// mergeSteps folds the per-server step stats into cluster-wide rows: sums
// for counters, max for durations.
func mergeSteps(res *Result, byServer [][]StepStats) {
	numSteps := 0
	for _, ss := range byServer {
		// Index by the recorded Superstep, not slice length: a rejoined
		// server's record starts mid-job at its admission step.
		if n := len(ss); n > 0 && ss[n-1].Superstep+1 > numSteps {
			numSteps = ss[n-1].Superstep + 1
		}
	}
	res.Steps = make([]StepStats, numSteps)
	for i := range res.Steps {
		res.Steps[i].Superstep = i
	}
	for _, ss := range byServer {
		for _, st := range ss {
			dst := &res.Steps[st.Superstep]
			if st.Updated > dst.Updated {
				// Identical on every live server; max (not "server 0's")
				// because a dead server reports no steps at all.
				dst.Updated = st.Updated
			}
			dst.WireBytes += st.WireBytes
			dst.RawBytes += st.RawBytes
			dst.DenseMsgs += st.DenseMsgs
			dst.SparseMsgs += st.SparseMsgs
			dst.SkippedTiles += st.SkippedTiles
			dst.LoadedTiles += st.LoadedTiles
			dst.MigratedTiles += st.MigratedTiles // donor-side: one count per move
			dst.MigrationBytes += st.MigrationBytes
			if st.Duration > dst.Duration {
				dst.Duration = st.Duration
			}
			if st.Rebalance > dst.Rebalance {
				dst.Rebalance = st.Rebalance
			}
			if st.Checkpoint > dst.Checkpoint {
				dst.Checkpoint = st.Checkpoint
			}
		}
	}
}
