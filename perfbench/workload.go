package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	graphh "repro"
	"repro/api"
	"repro/client"
	"repro/internal/service"
)

// The fixed deployment every workload runs: 2 simulated servers × 1 worker
// over the inproc transport, 32 tiles (16 per server), and for the
// out-of-core cells a 25% cache budget over the paper's RAID profile (the
// disk model of PERF.md's ooc table). Everything else stays at the library
// or graphhd default, because auto-selection is part of what users get.
const (
	numServers    = 2
	numWorkers    = 1
	numTiles      = 32
	cacheShare    = 0.25
	diskBandwidth = 310 << 20
	diskLatency   = 2 * time.Millisecond

	// cmd/graphhd's flag defaults for the served session.
	graphhdSupersteps     = 50
	graphhdConcurrentJobs = 2

	// prSupersteps bounds every PageRank job.
	prSupersteps = 10
)

// workload is one cell of the benchmark's 2×2: the execution path (a serial
// in-process Session, or the multi-tenant session graphhd serves over HTTP)
// by the data (tiles all cached, or a 25% budget over the modelled disk).
type workload struct {
	name   string
	remote bool
	ooc    bool
	why    string
	// clients is the number of closed-loop callers.
	clients int
	// cycle lists the jobs each client submits in turn; client i starts at
	// entry i, so concurrent remote clients run different programs.
	cycle func(source uint32) []jobSpec
}

// jobSpec is one job: a program as the wire names it, and its superstep
// bound (0 inherits the session default). It is comparable, so it keys the
// reference values.
type jobSpec struct {
	prog  api.ProgramSpec
	steps int
}

func (j jobSpec) String() string {
	s := j.prog.Name
	if j.prog.Damping != 0 {
		s += fmt.Sprintf("(d=%g)", j.prog.Damping)
	}
	return s
}

var pageRank = jobSpec{api.ProgramSpec{Name: api.ProgramPageRank}, prSupersteps}

var workloads = []workload{
	{
		name: "pr-cached", clients: 1,
		why: "serial Session.Submit PageRank, all tiles cached: gather/apply, comm codec and sender do the work; control for cache, disk and service",
		cycle: func(uint32) []jobSpec {
			return []jobSpec{pageRank}
		},
	},
	{
		name: "pr-ooc", ooc: true, clients: 1,
		why: "pr-cached under a 25% cache budget over the modelled disk: cache codec, eviction, prefetch and disk do the work",
		cycle: func(uint32) []jobSpec {
			return []jobSpec{pageRank}
		},
	},
	{
		name: "remote-mix", remote: true, clients: 1,
		why: "graphhd as shipped, 1 closed-loop client cycling pagerank, sssp and wcc, all cached: service, api and client have their largest share",
		cycle: func(source uint32) []jobSpec {
			return []jobSpec{
				pageRank,
				{api.ProgramSpec{Name: api.ProgramSSSP, Source: source}, 0},
				{api.ProgramSpec{Name: api.ProgramWCC}, 0},
			}
		},
	},
	{
		name: "remote-ooc", remote: true, ooc: true, clients: graphhdConcurrentJobs,
		why: "graphhd with the pr-ooc budget and disk, 2 clients of PageRank: the multi-tenant tile path, share window and single-flight do the work",
		cycle: func(uint32) []jobSpec {
			pr80 := pageRank
			pr80.prog.Damping = 0.80
			return []jobSpec{pageRank, pr80}
		},
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// options returns the session options of the workload's deployment.
func (w workload) options(p *graphh.Partitioned) graphh.Options {
	o := graphh.Options{Servers: numServers, Workers: numWorkers}
	if w.remote {
		snappy := graphh.CodecSnappy
		o.MaxSupersteps = graphhdSupersteps
		o.MessageCodec = &snappy
		o.MaxConcurrentJobs = graphhdConcurrentJobs
	}
	if w.ooc {
		o.CacheCapacity = int64(cacheShare * float64(p.TotalTileBytes()) / numServers)
		o.DiskReadBandwidth = diskBandwidth
		o.DiskWriteBandwidth = diskBandwidth
		o.DiskReadLatency = diskLatency
	}
	return o
}

// reference computes every program of the cycle on a single-server Run,
// the oracle the correctness gate compares each timed job against. A job
// without its own superstep bound runs under graphhd's default, as on the
// remote path, the only one that submits such jobs.
func reference(p *graphh.Partitioned, cycle []jobSpec) (map[jobSpec][]float64, error) {
	refs := map[jobSpec][]float64{}
	for _, j := range cycle {
		if _, ok := refs[j]; ok {
			continue
		}
		prog, err := j.prog.Build()
		if err != nil {
			return nil, err
		}
		steps := j.steps
		if steps == 0 {
			steps = graphhdSupersteps
		}
		res, err := graphh.Run(p, prog, graphh.Options{Servers: 1, MaxSupersteps: steps})
		if err != nil {
			return nil, fmt.Errorf("reference %v: %w", j, err)
		}
		refs[j] = res.Values
	}
	return refs, nil
}

// deployment is a set-up workload: an open session and, on the remote path,
// the graphhd service wired as cmd/graphhd wires it, on a loopback listener,
// with a client whose requests are counted.
type deployment struct {
	w    workload
	p    *graphh.Partitioned
	sess *graphh.Session

	svc    *service.Server
	hs     *http.Server
	served chan error
	tr     *http.Transport
	calls  callCounts
	cl     *client.Client
}

// callCounts are the client's HTTP requests, and among them result pages.
type callCounts struct {
	requests, pages atomic.Int64
}

// countingTransport counts the requests the client sends.
type countingTransport struct {
	next http.RoundTripper
	n    *callCounts
}

func (c countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.n.requests.Add(1)
	if strings.HasSuffix(r.URL.Path, "/result") {
		c.n.pages.Add(1)
	}
	return c.next.RoundTrip(r)
}

// setupTimes are the set-up phases, timed from outside each call.
type setupTimes struct {
	partition, open, total time.Duration
}

// setup partitions g, opens the session, boots the daemon on the remote path
// and runs one warm-up job, which must pass the correctness gate.
func setup(w workload, g *graphh.Graph, warm jobSpec, refs map[jobSpec][]float64, tr *tracer) (*deployment, setupTimes, *jobRec, error) {
	var st setupTimes
	root := tr.id()
	t0 := time.Now()
	p, err := graphh.Partition(g, graphh.PartitionOptions{TileSize: g.NumEdges() / numTiles})
	t1 := time.Now()
	tr.record(0, root, "tile.Partition", 0, t0, t1)
	if err != nil {
		return nil, st, nil, err
	}
	sess, err := graphh.Open(p, w.options(p))
	t2 := time.Now()
	tr.record(0, root, "session.Open", 0, t1, t2)
	if err != nil {
		return nil, st, nil, err
	}
	d := &deployment{w: w, p: p, sess: sess}
	if w.remote {
		if err := d.boot(int(g.NumVertices)); err != nil {
			sess.Close()
			return nil, st, nil, err
		}
	}
	t3 := time.Now()
	if w.remote {
		tr.record(0, root, "service.boot", 0, t2, t3)
	}
	rec := d.runJob(warm, refs[warm], tr, root, 0)
	t4 := time.Now()
	tr.record(root, 0, "bench.setup", 0, t0, t4)
	st = setupTimes{partition: t1.Sub(t0), open: t2.Sub(t1), total: t4.Sub(t0)}
	if rec.err != nil {
		d.close()
		return nil, st, nil, fmt.Errorf("warm-up job: %w", rec.err)
	}
	return d, st, &rec, nil
}

// boot serves the session exactly as cmd/graphhd does, on 127.0.0.1:0.
func (d *deployment) boot(numVertices int) error {
	d.svc = service.New(d.sess, service.Config{
		NumVertices:       numVertices,
		NumTiles:          d.p.NumTiles(),
		Servers:           numServers,
		MaxConcurrentJobs: graphhdConcurrentJobs,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	d.hs = &http.Server{Handler: d.svc.Handler()}
	d.served = make(chan error, 1)
	go func() { d.served <- d.hs.Serve(ln) }()
	d.tr = http.DefaultTransport.(*http.Transport).Clone()
	d.cl = client.NewWithHTTPClient("http://"+ln.Addr().String(),
		&http.Client{Transport: countingTransport{d.tr, &d.calls}})
	return nil
}

// close drains the daemon (which closes the session) or closes the session,
// and waits for the HTTP server goroutine to end.
func (d *deployment) close() error {
	if d.svc == nil {
		return d.sess.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := d.svc.Drain(ctx)
	if e := d.hs.Shutdown(ctx); e != nil && err == nil {
		err = e
	}
	if e := <-d.served; !errors.Is(e, http.ErrServerClosed) && err == nil {
		err = e
	}
	d.tr.CloseIdleConnections()
	return err
}

// jobRec is one job as the benchmark saw it.
type jobRec struct {
	spec    jobSpec
	start   time.Time
	latency time.Duration
	// loop is the engine's superstep-loop time (Result.Duration).
	loop    time.Duration
	steps   []graphh.StepStats
	servers []graphh.ServerStats
	// Remote calls: client.Submit, client.Wait, client.Values.
	submit, wait, values time.Duration
	err                  error
}

// runJob runs one job and checks its values against want, under a
// bench.job span whose parent is parent (0 for a timed job). In process the
// latency is the Submit call; remote it runs from client.Submit through the
// last result page decoded.
func (d *deployment) runJob(j jobSpec, want []float64, tr *tracer, parent, job int) jobRec {
	rec := jobRec{spec: j}
	root := tr.id()
	rec.start = time.Now()
	var values []float64
	if d.cl == nil {
		values = d.submitLocal(&rec, tr, root, job)
	} else {
		values = d.submitRemote(&rec, tr, root, job)
	}
	end := time.Now()
	rec.latency = end.Sub(rec.start)
	if rec.err == nil && !bitsEqual(values, want) {
		rec.err = fmt.Errorf("%v: values differ from the single-server reference", j)
	}
	checked := time.Now()
	tr.record(0, root, "bench.check", job, end, checked)
	tr.record(root, parent, "bench.job", job, rec.start, checked)
	return rec
}

func (d *deployment) submitLocal(rec *jobRec, tr *tracer, parent, job int) []float64 {
	prog, err := rec.spec.prog.Build()
	if err != nil {
		rec.err = err
		return nil
	}
	ro := graphh.RunOptions{MaxSupersteps: rec.spec.steps}
	id := tr.id()
	if tr != nil {
		// Each superstep span runs from the previous barrier (or the call)
		// to this one.
		prev := rec.start
		ro.Progress = func(graphh.StepStats) {
			now := time.Now()
			tr.record(0, id, "core.step", job, prev, now)
			prev = now
		}
	}
	res, err := d.sess.Submit(context.Background(), prog, ro)
	tr.record(id, parent, "core.Submit", job, rec.start, time.Now())
	if err != nil {
		rec.err = err
		return nil
	}
	rec.loop, rec.steps, rec.servers = res.Duration, res.Steps, res.Servers
	return res.Values
}

func (d *deployment) submitRemote(rec *jobRec, tr *tracer, parent, job int) []float64 {
	ctx := context.Background()
	t0 := rec.start
	st, err := d.cl.Submit(ctx, api.JobRequest{Program: rec.spec.prog, Options: api.RunOptions{MaxSupersteps: rec.spec.steps}})
	t1 := time.Now()
	tr.record(0, parent, "client.Submit", job, t0, t1)
	rec.submit = t1.Sub(t0)
	if err != nil {
		rec.err = err
		return nil
	}
	st, err = d.cl.Wait(ctx, st.ID)
	t2 := time.Now()
	tr.record(0, parent, "client.Wait", job, t1, t2)
	rec.wait = t2.Sub(t1)
	if err != nil {
		rec.err = err
		return nil
	}
	if st.State != api.StateDone || st.Report == nil {
		rec.err = fmt.Errorf("%v: job %s ended %s: %s", rec.spec, st.ID, st.State, st.Error)
		return nil
	}
	rec.loop = time.Duration(st.Report.DurationNS)
	rec.steps, rec.servers = st.Report.Steps, st.Report.Servers
	values, err := d.cl.Values(ctx, st.ID)
	t3 := time.Now()
	tr.record(0, parent, "client.Values", job, t2, t3)
	rec.values = t3.Sub(t2)
	if err != nil {
		rec.err = err
	}
	return values
}

// phase is one timed window: the closed-loop clients start jobs until the
// deadline and each finishes the job it has in flight.
type phase struct {
	jobs  []jobRec
	wall  time.Duration
	cpu   time.Duration
	reqs  int64
	pages int64
	bytes int64 // response-body bytes the daemon served (/v1/stats)
}

func (d *deployment) run(dur time.Duration, cycle []jobSpec, refs map[jobSpec][]float64, tr *tracer, firstJob int) (phase, error) {
	var ph phase
	served0, err := d.bytesServed()
	if err != nil {
		return ph, err
	}
	reqs0, pages0, cpu0 := d.calls.requests.Load(), d.calls.pages.Load(), cpuTime()
	start := time.Now()
	deadline := start.Add(dur)
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		next = firstJob
	)
	for c := 0; c < d.w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Every client runs at least one job, so a run always attempts one.
			for k := c; k == c || time.Now().Before(deadline); k++ {
				mu.Lock()
				job := next
				next++
				mu.Unlock()
				j := cycle[k%len(cycle)]
				rec := d.runJob(j, refs[j], tr, 0, job)
				mu.Lock()
				ph.jobs = append(ph.jobs, rec)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	ph.wall = time.Since(start)
	ph.cpu = cpuTime() - cpu0
	ph.reqs = d.calls.requests.Load() - reqs0
	ph.pages = d.calls.pages.Load() - pages0
	served1, err := d.bytesServed()
	ph.bytes = served1 - served0
	return ph, err
}

// bytesServed reads the daemon's response-byte counter; 0 in process.
func (d *deployment) bytesServed() (int64, error) {
	if d.cl == nil {
		return 0, nil
	}
	st, err := d.cl.Stats(context.Background())
	if err != nil {
		return 0, err
	}
	return st.BytesServed, nil
}
