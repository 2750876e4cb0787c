package core

// Session-oriented engine lifecycle. GraphH's expensive setup — tile
// persistence to every server's local store, degree context, and the idle
// -memory edge cache (§III-B, §IV-B) — is worth amortizing across many
// analytics jobs on the same loaded graph. Open performs that setup once
// and parks one goroutine per simulated server; Submit then runs any
// number of programs back-to-back against the warm tile stores and caches,
// and Close tears the cluster down. Engine.Run is a thin
// Open→Submit→Close wrapper, so the classic one-shot path shares every
// line of this machinery.
//
// Cancellation protocol: Submit's context is shared by every server's job
// loop. Each superstep ends with a consensus barrier
// (cluster.Node.BarrierVote) where every server votes its context's state;
// because all servers observe the OR of the votes, either all of them
// abort at that step edge or none do, and the step's counted update
// traffic has been fully absorbed (or drained) before anyone leaves. A
// cancelled job therefore unwinds with no messages in flight and the
// session stays healthy for the next Submit. Hard errors (disk, decode,
// transport) instead abort the whole cluster, exactly as they abort a
// classic Run; the session is then dead and says so.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/compress"
	"repro/internal/costmodel"
	"repro/internal/tile"
)

// JobOptions are the per-job knobs of Session.Submit. The zero value
// inherits every setting from the session's Config, so
// Submit(ctx, prog, JobOptions{}) behaves exactly like a classic Run with
// that Config.
type JobOptions struct {
	// MaxSupersteps bounds this job's superstep loop; 0 inherits the
	// session Config's bound.
	MaxSupersteps int
	// Lockstep forces this job onto the serialized communication baseline.
	// It can only opt in: a session configured with Config.Lockstep runs
	// every job lockstep regardless.
	Lockstep bool
	// MsgCodec compresses this job's update broadcasts; nil inherits the
	// session Config's codec.
	MsgCodec *compress.Mode
	// Progress, when non-nil, streams live per-superstep statistics: it is
	// called once per superstep, at the step's BSP barrier edge, from the
	// coordinator server's goroutine. Superstep and Updated are global
	// (identical on every server); the byte/tile counters are the
	// coordinator's local share. The callback blocks the superstep loop,
	// so keep it fast, and it must not call back into the session —
	// Submit or Close from inside Progress deadlocks (Submit is still
	// waiting on the job this callback runs in). Cancelling the job's
	// context from it is the supported way to stop a run.
	Progress func(StepStats)
	// CheckpointEvery overrides the session Config's checkpoint interval
	// for this job: 0 inherits, a negative value turns checkpointing off
	// for this job, a positive value checkpoints every that-many
	// supersteps. Requires All-in-All replication, like the Config knob.
	CheckpointEvery int
	// Weight is this job's weighted-round-robin share in a multi-tenant
	// session (Config.MaxConcurrentJobs > 1): at contended superstep edges
	// a weight-2 job is serviced twice as often as a weight-1 job, and
	// within the admission queue heavier jobs overtake lighter ones. 0 or
	// negative means 1. Ignored by serial sessions.
	Weight int
}

// ErrSessionDead marks every Submit that fails fast because an earlier
// job's hard error killed the session. errors.Is(err, ErrSessionDead)
// distinguishes "this session is gone" from the original failure, which
// the wrapped error chain still carries.
var ErrSessionDead = errors.New("core: session is dead")

// ErrSessionClosed marks every Submit (or Join) that arrives after Close.
// Unlike ErrSessionDead the session did not fail — the caller shut it down;
// embedders mapping session errors onto a wire protocol can tell "shutting
// down, retry elsewhere" from "crashed" and "overloaded" with errors.Is.
var ErrSessionClosed = errors.New("core: session is closed")

// sessionDeadError is the fail-fast error later Submits return: it matches
// both ErrSessionDead and the root cause under errors.Is/As.
type sessionDeadError struct{ cause error }

func (e *sessionDeadError) Error() string {
	return "core: session aborted by earlier error: " + e.cause.Error()
}
func (e *sessionDeadError) Unwrap() []error { return []error{ErrSessionDead, e.cause} }

// jobCancelled wraps a context cancellation so the session can tell an
// aborted-by-caller job (session stays healthy) from a hard engine error
// (session dies).
type jobCancelled struct{ cause error }

func (e jobCancelled) Error() string { return "core: job cancelled: " + e.cause.Error() }
func (e jobCancelled) Unwrap() error { return e.cause }

// job is one Submit travelling through the per-server job loops.
type job struct {
	prog      Program
	ctx       context.Context
	maxSteps  int
	lockstep  bool
	codec     compress.Mode
	progress  func(StepStats)
	ckptEvery int

	// Multi-tenant identity, zero in serial sessions: the session-unique
	// wire/barrier/checkpoint tag, the admission slot (share-window bit),
	// and the WRR weight.
	id     uint32
	slot   int
	weight int

	res     *Result
	steps   [][]StepStats
	errs    []error // hard per-server errors
	cancels []error // per-server cancellation causes
	loopMax int64   // nanoseconds, max over servers
	grp     *jobGroup
}

// jobGroup is the job's participant counter — a WaitGroup whose membership
// can grow mid-flight. A server rejoining the session adds a replacement
// runner to every in-flight job with tryAdd, which fails once the job has
// completed: a rejoin racing the job's last doneOne is refused rather than
// resurrecting a finished job.
type jobGroup struct {
	mu   sync.Mutex
	n    int
	over bool
	done chan struct{}
}

func newJobGroup(n int) *jobGroup {
	return &jobGroup{n: n, done: make(chan struct{})}
}

func (g *jobGroup) doneOne() {
	g.mu.Lock()
	g.n--
	if g.n <= 0 && !g.over {
		g.over = true
		close(g.done)
	}
	g.mu.Unlock()
}

// tryAdd admits one more participant unless the job already completed.
func (g *jobGroup) tryAdd() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.over {
		return false
	}
	g.n++
	return true
}

func (g *jobGroup) wait() { <-g.done }

// Session is a persistent deployment of the engine: a booted simulated
// cluster whose servers hold their assigned tiles on local disk, their
// degree context, and a warm edge cache across any number of submitted
// jobs. Open boots it, Submit runs one program, Close tears it down.
//
// Submit and Close serialize against each other; concurrent calls are
// safe. In a classic session jobs run one at a time (the BSP loop owns the
// whole cluster); with Config.MaxConcurrentJobs > 1 up to that many jobs
// run interleaved, each on its own vertex-state arena and job-tagged
// wire/barrier traffic, sharing tile loads through the share window.
type Session struct {
	cfg      Config
	graph    *Graph
	cl       *cluster.Cluster
	workDir  string
	ownWork  bool
	setupDur time.Duration

	jobChs  []chan *job
	runDone chan error

	// Multi-tenant machinery (Config.MaxConcurrentJobs > 1): the admission
	// controller, the per-server shared plumbing, and the monotonically
	// increasing job-ID source. submitWG tracks in-flight Submits so Close
	// can wait for their fan-outs before closing the job channels.
	multi    bool
	sched    *jobScheduler
	shared   []*nodeShared
	nextJob  uint32
	submitWG sync.WaitGroup

	// Elastic-membership machinery: the per-rank session-lifetime servers
	// (reviveServer respawns runners on them), the in-flight job registry
	// (a rejoin must fold into every running job exactly once), the count
	// of in-flight jobs that cannot absorb a membership grow (admission is
	// deferred while it is non-zero), and the mailbox capacity rejoin
	// routers are rebuilt with. regMu orders job registration against
	// admission: a job is either registered before a revive (and gets a
	// replacement runner) or after (and sees the grown membership itself).
	servers   []*server
	regMu     sync.Mutex
	inflight  map[*job]struct{}
	joinBlock atomic.Int32
	routerCap int

	mu     sync.Mutex
	closed bool
	dead   error // first hard error; the cluster is gone

	// closedFlag and deadFlag mirror closed/dead for lock-free readers —
	// the join controller cannot take se.mu, which the serial Submit holds
	// across a whole job (liveState).
	closedFlag atomic.Bool
	deadFlag   atomic.Pointer[error]
}

// markDeadLocked records the session's first hard error (caller holds
// se.mu) and mirrors it into the lock-free flag the join controller reads.
func (se *Session) markDeadLocked(err error) {
	if se.dead == nil {
		se.dead = err
		se.deadFlag.Store(&err)
	}
}

// liveState is the lock-free closed/dead snapshot for the join controller,
// which must not take se.mu: the serial Submit holds it across a whole job,
// and the runner executing that job may be parked at its step edge waiting
// on the very handshake that needs the snapshot.
func (se *Session) liveState() (closed bool, dead error) {
	if p := se.deadFlag.Load(); p != nil {
		dead = *p
	}
	return se.closedFlag.Load(), dead
}

// Open boots a session: it spins up the simulated cluster, assigns and
// persists every tile to its server's local store, and initializes the
// per-server caches and scratch state — all of Engine.Run's setup, paid
// once. The returned session must be Closed.
func Open(in Input, cfg Config) (*Session, error) {
	cfg = cfg.normalized()
	if cfg.CheckpointEvery > 0 && cfg.Replication != AllInAll {
		return nil, fmt.Errorf("core: CheckpointEvery requires All-in-All replication (recovery restores each survivor from its own full-vector checkpoint)")
	}
	g, numTiles, fetch, err := prepareInput(in)
	if err != nil {
		return nil, err
	}
	assign := cfg.Assignment
	if assign == nil {
		assign, err = tile.Assign(numTiles, cfg.NumServers)
		if err != nil {
			return nil, err
		}
	} else {
		if assign.NumServers != cfg.NumServers {
			return nil, fmt.Errorf("core: assignment is for %d servers, cluster has %d", assign.NumServers, cfg.NumServers)
		}
		if err := assign.Validate(numTiles); err != nil {
			return nil, err
		}
	}

	workDir := cfg.WorkDir
	ownWork := false
	if workDir == "" {
		dir, err := os.MkdirTemp("", "graphh-session-")
		if err != nil {
			return nil, fmt.Errorf("core: creating work dir: %w", err)
		}
		workDir = dir
		ownWork = true
	}

	cl, err := cluster.New(cluster.Config{
		NumNodes:       cfg.NumServers,
		Transport:      cfg.Transport,
		NetBandwidth:   cfg.NetBandwidth,
		FailureTimeout: cfg.FailureTimeout,
	})
	if err != nil {
		if ownWork {
			os.RemoveAll(workDir)
		}
		return nil, err
	}

	// Compile the fault plan once per session; its kill coordinates feed the
	// engine's kill points, its disk faults chain in front of the user's
	// DiskFailureHook, and its wire faults install as the cluster wire hook —
	// identical behaviour on the Inproc and TCP transports.
	faults := compileFaults(cfg.Faults)
	cfg.DiskFailureHook = faults.diskHook(cfg.DiskFailureHook)
	if wh := faults.wireHook(); wh != nil {
		cl.SetWireHook(wh)
	}

	// The base tile→server ownership table, as assigned. Recovery's pure
	// reassignment function and the counted receive protocol both read it;
	// each server gets a private copy because the rebalancer mutates it.
	owner := make([]int, numTiles)
	for j, tiles := range assign.TilesOf {
		for _, t := range tiles {
			owner[t] = j
		}
	}

	multi := cfg.MaxConcurrentJobs > 1
	se := &Session{
		cfg:       cfg,
		graph:     g,
		cl:        cl,
		workDir:   workDir,
		ownWork:   ownWork,
		jobChs:    make([]chan *job, cfg.NumServers),
		runDone:   make(chan error, 1),
		multi:     multi,
		nextJob:   1, // 0 stays "no job": serial frames carry no envelope
		shared:    make([]*nodeShared, cfg.NumServers),
		servers:   make([]*server, cfg.NumServers),
		inflight:  make(map[*job]struct{}),
		routerCap: 2*numTiles + 64,
	}
	if multi {
		se.sched = newJobScheduler(cfg.MaxConcurrentJobs, cfg.MaxQueuedJobs)
	}
	for i := range se.shared {
		ns := &nodeShared{joinBlock: &se.joinBlock, admit: se.admitJoin}
		if multi {
			ns.gate = newStepGate()
			ns.share = cache.NewShareWindow(0) // sized in bytes once setup has run
			ns.sched = se.sched
		}
		se.shared[i] = ns
	}
	// Scripted rejoins run the same controller-side protocol as Session.Join.
	faults.setOnRejoin(se.scriptedRejoin)
	for i := range se.jobChs {
		if multi {
			// Buffered to the admission level: a Submit's fan-out must not
			// block behind another job's runners — at most MaxConcurrentJobs
			// jobs hold slots, so the buffer absorbs every admitted fan-out.
			se.jobChs[i] = make(chan *job, cfg.MaxConcurrentJobs)
		} else {
			se.jobChs[i] = make(chan *job)
		}
	}

	type setupRes struct {
		dur time.Duration
		err error
	}
	setupCh := make(chan setupRes, cfg.NumServers)
	// The node closures must not capture fetch directly: it can retain a
	// full pre-encoded copy of every tile (the partition path), and the
	// closures live as long as the session. They read it through this box,
	// which Open empties once every setup has finished — each node's read
	// happens-before its setupCh send, which happens-before the clearing
	// write, so the hand-off is race-free and the encodings become
	// collectable while the session keeps serving.
	fetchBox := &struct{ fn func(int) ([]byte, error) }{fetch}
	go func() {
		se.runDone <- cl.Run(func(n *cluster.Node) error {
			sv := &server{
				cfg:       cfg,
				node:      n,
				graph:     g,
				fetch:     fetchBox.fn,
				tiles:     assign.TilesOf[n.ID()],
				total:     numTiles,
				work:      filepath.Join(workDir, fmt.Sprintf("server-%d", n.ID())),
				workRoot:  workDir,
				baseOwner: append([]int(nil), owner...),
				faults:    faults,
				shared:    se.shared[n.ID()],
			}
			se.servers[n.ID()] = sv
			if multi {
				// The frame router owns this node's inbox for the whole
				// session: runners only ever see their own job's mailbox. The
				// mailbox bound covers a full superstep of traffic (one frame
				// per tile per live peer ≤ 2×tiles for practical clusters)
				// plus recovery markers and slack, so routing never blocks on
				// a lagging runner in the common case.
				r := newFrameRouter(n, se.routerCap, se.noteFatal)
				sv.shared.router.Store(r)
				go r.run()
			}
			defer func() {
				if sv.pf != nil {
					sv.pf.close() // join the reader workers before the store goes
				}
				if sv.store != nil {
					sv.store.Close() // release cached tile-read descriptors
				}
			}()
			start := time.Now()
			err := sv.setup()
			setupCh <- setupRes{dur: time.Since(start), err: err}
			if err != nil {
				return err
			}
			// The fetch closure (and any tile encodings it retains) is only
			// needed during setup; drop it so the session doesn't pin it.
			sv.fetch = nil
			if multi {
				sv.shared.share.SetCapacity(costmodel.ShareWindowBytes(
					cfg.MaxConcurrentJobs, cfg.WorkersPerServer, sv.cache.Capacity(), sv.maxTileBytes()))
			}
			if !multi {
				for jb := range se.jobChs[n.ID()] {
					sv.shared.quiesceEnter()
					fatal := sv.runJob(jb)
					sv.shared.quiesceExit()
					jb.grp.doneOne()
					if fatal != nil {
						return fatal
					}
				}
				return nil
			}
			// Multi-tenant: one runner goroutine per admitted job, each a
			// clone of this server sharing its store/cache/metas. A fatal
			// error cannot return from here mid-stream (other runners are
			// still flying); it aborts the cluster via noteFatal instead,
			// which unwinds every runner exactly as a node error would.
			var runners sync.WaitGroup
			for jb := range se.jobChs[n.ID()] {
				runners.Add(1)
				go func(jb *job) {
					defer runners.Done()
					r := sv.jobRunner(jb)
					if fatal := r.runJob(jb); fatal != nil {
						se.noteFatal(fatal)
					}
					jb.grp.doneOne()
				}(jb)
			}
			runners.Wait()
			if rt := sv.shared.router.Load(); rt != nil {
				rt.halt()
			}
			return nil
		})
	}()

	setupFailed := false
	for i := 0; i < cfg.NumServers; i++ {
		r := <-setupCh
		if r.err != nil {
			setupFailed = true
		}
		if r.dur > se.setupDur {
			se.setupDur = r.dur
		}
	}
	fetchBox.fn = nil // every setup is done; release the tile encodings
	if setupFailed {
		// The failing node already aborted the cluster; release the healthy
		// job loops and surface cluster.Run's root-cause error.
		for _, ch := range se.jobChs {
			close(ch)
		}
		err := <-se.runDone
		cl.Close()
		if ownWork {
			os.RemoveAll(workDir)
		}
		if err == nil {
			err = fmt.Errorf("core: session setup failed: %w", cluster.ErrClosed)
		}
		return nil, err
	}
	return se, nil
}

// Submit runs one program over the session's warm cluster and returns its
// result. Tiles are not re-partitioned or re-persisted: the job reuses the
// local stores and edge caches exactly as the previous job left them (tile
// placement included — the rebalancer's migrations carry over), while
// vertex values, halt votes, per-job statistics and send queues start
// fresh.
//
// Cancelling ctx aborts the job at the next superstep edge: Submit returns
// ctx.Err() and the session remains usable for further Submits. A hard
// engine error (disk failure, corrupt payload, transport loss) kills the
// whole session; Submit reports it and every later Submit fails fast.
func (se *Session) Submit(ctx context.Context, prog Program, opts JobOptions) (*Result, error) {
	if prog == nil {
		return nil, fmt.Errorf("core: nil program")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if se.multi {
		return se.submitMulti(ctx, prog, opts)
	}
	se.mu.Lock()
	defer se.mu.Unlock()
	if se.closed {
		return nil, fmt.Errorf("core: Submit: %w", ErrSessionClosed)
	}
	if se.dead != nil {
		return nil, &sessionDeadError{cause: se.dead}
	}
	if err := ctx.Err(); err != nil {
		// Fail fast instead of running one full superstep only for the
		// first barrier vote to throw it away. Checked after the lock so a
		// Submit cancelled while queued behind another job is also caught.
		return nil, err
	}
	jb, err := se.makeJob(ctx, prog, opts)
	if err != nil {
		return nil, err
	}
	se.registerJob(jb)
	for _, ch := range se.jobChs {
		ch <- jb
	}
	jb.grp.wait()
	se.unregisterJob(jb)

	if err := cluster.FirstNodeError(jb.errs); err != nil {
		se.markDeadLocked(err)
		return nil, err
	}
	for _, cerr := range jb.cancels {
		if cerr != nil {
			return nil, cerr
		}
	}
	deadServers := se.deadServers()
	if len(deadServers) == se.cfg.NumServers {
		// Every server died (scripted kills can do that). There is no
		// survivor to have filled the result, and no membership left to run
		// another job on.
		err := fmt.Errorf("core: all %d servers died during the job", se.cfg.NumServers)
		se.markDeadLocked(err)
		return nil, err
	}
	return se.assembleResult(jb, deadServers), nil
}

// submitMulti is Submit's multi-tenant path. Unlike the serial path it does
// not hold the session lock across the run — that is the point: concurrent
// Submits admit through the scheduler (blocking in its bounded queue when
// MaxConcurrentJobs jobs are already running), fan out to the per-server
// runner loops, and interleave superstep-by-superstep under the WRR gates.
func (se *Session) submitMulti(ctx context.Context, prog Program, opts JobOptions) (*Result, error) {
	se.mu.Lock()
	if se.closed {
		se.mu.Unlock()
		return nil, fmt.Errorf("core: Submit: %w", ErrSessionClosed)
	}
	if se.dead != nil {
		d := se.dead
		se.mu.Unlock()
		return nil, &sessionDeadError{cause: d}
	}
	se.submitWG.Add(1)
	se.mu.Unlock()
	defer se.submitWG.Done()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	jb, err := se.makeJob(ctx, prog, opts)
	if err != nil {
		return nil, err
	}
	jb.weight = opts.Weight
	if jb.weight <= 0 {
		jb.weight = 1
	}
	// The job's identity exists from birth — before admission — so every
	// abandon path below can release whatever cluster-side residue the ID
	// accumulated (the job barrier in particular) instead of leaking it.
	se.mu.Lock()
	jb.id = se.nextJob
	se.nextJob++
	se.mu.Unlock()

	// Admission: block for a run slot (or fail fast with ErrJobQueueFull /
	// unwind on ctx cancellation while queued).
	slot, err := se.sched.admit(ctx, jb.weight)
	if err != nil {
		// Cancelled (or bounced) while queued: the job never ran, but its
		// barrier entry may exist; drop it rather than leak it.
		se.cl.ReleaseJobBarrier(jb.id)
		return nil, err
	}
	defer se.sched.release(slot)
	jb.slot = slot

	se.mu.Lock()
	if se.closed || se.dead != nil {
		// The session died (or closed) while this Submit waited in the
		// admission queue; the runner loops may be gone — do not fan out.
		dead := se.dead
		se.mu.Unlock()
		se.cl.ReleaseJobBarrier(jb.id)
		if dead != nil {
			return nil, &sessionDeadError{cause: dead}
		}
		return nil, fmt.Errorf("core: Submit: %w", ErrSessionClosed)
	}
	se.mu.Unlock()

	se.registerJob(jb)
	for _, ch := range se.jobChs {
		ch <- jb
	}
	jb.grp.wait()
	se.retireJob(jb)
	se.unregisterJob(jb)

	if err := cluster.FirstNodeError(jb.errs); err != nil {
		se.noteFatal(err)
		return nil, err
	}
	for _, cerr := range jb.cancels {
		if cerr != nil {
			return nil, cerr
		}
	}
	deadServers := se.deadServers()
	if len(deadServers) == se.cfg.NumServers {
		err := fmt.Errorf("core: all %d servers died during the job", se.cfg.NumServers)
		se.mu.Lock()
		se.markDeadLocked(err)
		se.mu.Unlock()
		return nil, err
	}
	return se.assembleResult(jb, deadServers), nil
}

// makeJob validates per-job options against the session config and builds
// the job envelope Submit fans out.
func (se *Session) makeJob(ctx context.Context, prog Program, opts JobOptions) (*job, error) {
	maxSteps := opts.MaxSupersteps
	if maxSteps <= 0 {
		maxSteps = se.cfg.MaxSupersteps
	}
	codec := se.cfg.MsgCodec
	if opts.MsgCodec != nil {
		codec = *opts.MsgCodec
	}
	ckptEvery := se.cfg.CheckpointEvery
	switch {
	case opts.CheckpointEvery > 0:
		ckptEvery = opts.CheckpointEvery
	case opts.CheckpointEvery < 0:
		ckptEvery = 0
	}
	if ckptEvery > 255 {
		ckptEvery = 255 // same stale-frame cap as Config.CheckpointEvery
	}
	if ckptEvery > 0 && se.cfg.Replication != AllInAll {
		return nil, fmt.Errorf("core: CheckpointEvery requires All-in-All replication (recovery restores each survivor from its own full-vector checkpoint)")
	}
	return &job{
		prog:      prog,
		ctx:       ctx,
		maxSteps:  maxSteps,
		lockstep:  se.cfg.Lockstep || opts.Lockstep,
		codec:     codec,
		progress:  opts.Progress,
		ckptEvery: ckptEvery,
		res: &Result{
			Values:  make([]float64, se.graph.NumVertices),
			Servers: make([]ServerStats, se.cfg.NumServers),
		},
		steps:   make([][]StepStats, se.cfg.NumServers),
		errs:    make([]error, se.cfg.NumServers),
		cancels: make([]error, se.cfg.NumServers),
		grp:     newJobGroup(se.cfg.NumServers),
	}, nil
}

// jobRecoverable reports whether a job can absorb a membership grow: a
// rejoin throws every in-flight job into the recovery protocol, which only
// converges when the job checkpoints under All-in-All replication.
func (se *Session) jobRecoverable(jb *job) bool {
	return jb.ckptEvery > 0 && se.cfg.Replication == AllInAll && se.cfg.NumServers > 1
}

// registerJob enters a job into the in-flight registry before its fan-out.
// The registry lock orders this against reviveLocked: a job registered
// first gets a replacement runner on a rejoined server; one registered
// after the revive observes the grown membership from its first step.
// Unrecoverable jobs also raise joinBlock, deferring admissions until they
// drain — inside the same critical section that publishes the job, so
// admitJoin (which checks the counter under regMu) can never admit a rejoin
// with a published-but-uncounted unrecoverable job in flight.
func (se *Session) registerJob(jb *job) {
	se.regMu.Lock()
	if !se.jobRecoverable(jb) {
		se.joinBlock.Add(1)
	}
	se.inflight[jb] = struct{}{}
	se.regMu.Unlock()
}

// unregisterJob removes a finished job from the registry and scrubs its
// zombie-ledger entries (a dead server that consumed the job records it
// there; once the job is over the claim is moot).
func (se *Session) unregisterJob(jb *job) {
	se.regMu.Lock()
	delete(se.inflight, jb)
	if !se.jobRecoverable(jb) {
		se.joinBlock.Add(-1)
	}
	se.regMu.Unlock()
	for _, ns := range se.shared {
		ns.zMu.Lock()
		delete(ns.zombies, jb)
		ns.zMu.Unlock()
	}
}

// admitJoin is the runner-side join admission (nodeShared.admit): it
// declares rank joined under the job registry's lock. pollJoinRequests'
// lock-free joinBlock read is only a fast path — a Submit can register an
// unrecoverable job between that read and the declaration. Taking regMu
// here pairs with registerJob raising joinBlock inside the critical section
// that publishes the job, so an admission either lands before the job is
// published (its runners observe the grown membership from their first
// step) or sees the raised counter and defers, leaving the joiner to retry.
func (se *Session) admitJoin(rank int) bool {
	se.regMu.Lock()
	defer se.regMu.Unlock()
	if se.joinBlock.Load() != 0 {
		return false
	}
	se.cl.Node(rank).DeclareJoined(rank) // idempotent for an already-live rank
	return true
}

// deadServers lists the ranks that are no longer cluster members.
func (se *Session) deadServers() []int {
	var dead []int
	for i := 0; i < se.cfg.NumServers; i++ {
		if !se.cl.Alive(i) {
			dead = append(dead, i)
		}
	}
	return dead
}

// assembleResult merges the per-server outcomes of a finished job.
func (se *Session) assembleResult(jb *job, deadServers []int) *Result {
	res := jb.res
	res.SetupDuration = se.setupDur
	res.Duration = time.Duration(jb.loopMax)
	res.DeadServers = deadServers
	mergeSteps(res, jb.steps)
	res.Supersteps = len(res.Steps)
	res.Converged = res.Supersteps > 0 && res.Steps[res.Supersteps-1].Updated == 0
	return res
}

// retireJob tears down a finished job's multi-tenant residue after every
// runner has passed its final barrier: the cluster's job barrier, each
// server's mailbox (later frames are in-flight duplicates), its unconsumed
// share-window offers, and any stale WRR gate entry a dying runner left.
func (se *Session) retireJob(jb *job) {
	se.cl.ReleaseJobBarrier(jb.id)
	for _, ns := range se.shared {
		if r := ns.router.Load(); r != nil {
			r.retire(jb.id)
		}
		ns.share.DropConsumer(1 << uint(jb.slot))
		ns.gate.leave(jb.id)
	}
}

// JobBarrierCount reports the number of per-job barrier groups the cluster
// currently retains — an observability hook for leak detection: once every
// submitted job has returned, the count must be zero (retired jobs release
// their barrier, and so does every admission-path abandon).
func (se *Session) JobBarrierCount() int {
	return se.cl.JobBarrierCount()
}

// noteFatal records the session's first hard error and aborts the cluster
// so every other in-flight job's blocked barriers and receives unwind —
// the multi-tenant equivalent of a node error inside cluster.Run.
func (se *Session) noteFatal(err error) {
	if err == nil {
		return
	}
	se.mu.Lock()
	se.markDeadLocked(err)
	se.mu.Unlock()
	se.cl.Abort()
}

// Close shuts the session down: the per-server job loops exit, the cluster
// closes, and a session-owned scratch directory is removed. Close is
// idempotent; it never re-reports an error a Submit already surfaced.
func (se *Session) Close() error {
	se.mu.Lock()
	if se.closed {
		se.mu.Unlock()
		return nil
	}
	se.closed = true
	se.closedFlag.Store(true)
	dead := se.dead
	se.mu.Unlock()

	// Multi-tenant: wait out the in-flight Submits before closing the job
	// channels — their fan-outs must not race the close. A Submit parked in
	// the admission queue holds Close here until its context is cancelled
	// or its turn comes and it observes the closed flag.
	se.submitWG.Wait()
	for _, ch := range se.jobChs {
		close(ch)
	}

	err := <-se.runDone
	se.cl.Close()
	if se.ownWork {
		os.RemoveAll(se.workDir)
	}
	if dead != nil {
		return nil
	}
	return err
}
