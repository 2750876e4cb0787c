// Command perfbench is the repository's benchmark: job latency, throughput,
// CPU, set-up time and memory of GraphH jobs, in process and through the
// graphhd service, over cached and out-of-core sessions. See README.md for
// the workloads, the metrics and which layer should move which metric.
//
// Run it from the repository root through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload pr-cached --seed 7 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload all --seed 7 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, and the metrics — end-to-end with --trace 0, per-layer with
// --trace 1. The exit code is non-zero when any job failed or differed from
// the single-server reference.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	graphh "repro"
)

// uk2007-sim at scale 1 (internal/graph's dataset table): |E|/|V| = 41.
const (
	ukVertices = 67_000
	ukEdges    = 2_750_000
)

// Seeds for later claims: develop a change on the development seed, and
// confirm its claim on the held-out one.
const (
	devSeed     = 7
	heldOutSeed = 1009
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// scale sizes the graph relative to uk2007-sim at scale 1.
	scale float64
	// setups is the minimum number of set-ups; setupFor keeps setting up
	// past it until that much set-up time has passed (at most maxSetups),
	// so a cheap set-up gets a steadier median.
	setups   int
	setupFor time.Duration
	out      string
}

const maxSetups = 25

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	c := config{scale: 0.5, setups: 5, setupFor: 3 * time.Second}
	var trace int
	fs.StringVar(&c.workload, "workload", "", `workload name, or "all" to run every workload in turn`)
	fs.Uint64Var(&c.seed, "seed", devSeed, "input seed: the RMAT graph and the SSSP source derive from it")
	fs.Float64Var(&c.seconds, "seconds", 10, "timed wall time per run")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	fs.StringVar(&c.out, "out", ".bench_build", "directory for results, traces and session scratch")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if trace != 0 && trace != 1 {
		return c, fmt.Errorf("-trace must be 0 or 1")
	}
	c.trace = trace == 1
	if c.seconds <= 0 {
		return c, fmt.Errorf("-seconds must be positive")
	}
	return c, nil
}

func run(args []string, stdout io.Writer) int {
	c, err := parseFlags(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if c.workload == "all" {
		return runAll(args, stdout)
	}
	w, err := workloadByName(c.workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	// Session scratch directories go under -out, not the system temp dir.
	tmp := filepath.Join(c.out, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	os.Setenv("TMPDIR", tmp)
	r, err := measure(w, c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := r.report(stdout, c); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if r.failed > 0 {
		return 1
	}
	return 0
}

// runAll runs every workload in a child process of its own (so each one's
// peak RSS is its own) and passes their output through.
func runAll(args []string, stdout io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	status := 0
	for _, w := range workloads {
		cmd := exec.Command(self, append(args, "-workload", w.name)...)
		cmd.Stdout, cmd.Stderr = stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			status = 1
		}
	}
	return status
}

// result is one run's outcome.
type result struct {
	meta      meta
	e2e       *metricSet
	layers    *metricSet
	attempted int
	failed    int
	failures  []string
	latencies []float64 // timed jobs in start order
	tracer    *tracer
}

// meta is the run metadata written next to every result.
type meta struct {
	Workload    string       `json:"workload"`
	Why         string       `json:"why"`
	Seed        uint64       `json:"seed"`
	DevSeed     uint64       `json:"dev_seed"`
	HeldOutSeed uint64       `json:"held_out_seed"`
	Trace       bool         `json:"trace"`
	Seconds     float64      `json:"seconds"`
	Commit      string       `json:"commit"`
	GoVersion   string       `json:"go_version"`
	NumCPU      int          `json:"nproc"`
	GOMAXPROCS  int          `json:"gomaxprocs"`
	Scale       float64      `json:"scale"`
	Vertices    uint32       `json:"vertices"`
	Edges       int          `json:"edges"`
	Tiles       int          `json:"tiles"`
	SSSPSource  uint32       `json:"sssp_source"`
	Clients     int          `json:"clients"`
	Programs    []string     `json:"programs"`
	Setups      int          `json:"setups"`
	CacheBudget int64        `json:"cache_capacity_bytes"`
	RSSReset    bool         `json:"rss_reset"`
	Jobs        int          `json:"jobs"`
	JobTail     tail         `json:"job_tail"`
	Servers     []serverMeta `json:"servers"`
	// TraceOverhead compares the traced half of a --trace 1 run with its
	// untraced half.
	TraceOverhead *traceOverhead `json:"trace_overhead,omitempty"`
}

// serverMeta is what auto-selection chose on one server, and whether the
// prefetcher ran, over the timed phase.
type serverMeta struct {
	Server         int    `json:"server"`
	CacheMode      string `json:"cache_mode"`
	CachePolicy    string `json:"cache_policy"`
	Residency      string `json:"residency"`
	PrefetchIssued int64  `json:"prefetch_issued"`
	PrefetchHits   int64  `json:"prefetch_hits"`
}

type traceOverhead struct {
	UntracedP50 float64 `json:"untraced_job_p50_s"`
	TracedP50   float64 `json:"traced_job_p50_s"`
	UntracedJPS float64 `json:"untraced_jobs_per_s"`
	TracedJPS   float64 `json:"traced_jobs_per_s"`
}

// measure generates the inputs, computes the reference values, sets the
// workload up several times, and runs the timed phase on the last set-up.
func measure(w workload, c config) (*result, error) {
	g := graphh.GenerateRMAT(uint32(math.Round(ukVertices*c.scale)), int(math.Round(ukEdges*c.scale)), c.seed)
	if w.remote {
		g = g.Symmetrize() // WCC needs a symmetric graph; graphhd -symmetrize
	}
	source := ssspSource(g, c.seed)
	cycle := w.cycle(source)
	refP, err := graphh.Partition(g, graphh.PartitionOptions{TileSize: g.NumEdges() / numTiles})
	if err != nil {
		return nil, err
	}
	refs, err := reference(refP, cycle)
	if err != nil {
		return nil, err
	}
	refP = nil // let the collection below return the reference's memory

	// Input generation and the reference runs are not part of the peak.
	runtime.GC()
	debug.FreeOSMemory()
	rssReset := resetPeakRSS() == nil

	var tr *tracer
	if c.trace {
		tr = newTracer()
	}
	var (
		d      *deployment
		warm   *jobRec
		totals []float64
		parts  []float64
		opens  []float64
	)
	setupStart := time.Now()
	for i := 0; i < c.setups || (i < maxSetups && time.Since(setupStart) < c.setupFor); i++ {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		var st setupTimes
		d, st, warm, err = setup(w, g, cycle[0], refs, tr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		totals = append(totals, st.total.Seconds())
		parts = append(parts, st.partition.Seconds())
		opens = append(opens, st.open.Seconds())
	}
	before := serverCounters(warm.servers)
	var writeMB float64
	for _, s := range warm.servers {
		writeMB += float64(s.Disk.WriteBytes) / 1e6
	}

	runtime.GC()
	dur := time.Duration(c.seconds * float64(time.Second))
	var untraced, ph phase
	if c.trace {
		// The first half runs untraced and the second traced, on the same
		// warm session, so their gap is the tracing overhead.
		untraced, err = d.run(dur/2, cycle, refs, nil, 1)
		if err == nil {
			before, _ = phaseCounters(untraced, before)
			ph, err = d.run(dur/2, cycle, refs, tr, 1+len(untraced.jobs))
		}
	} else {
		ph, err = d.run(dur, cycle, refs, nil, 1)
	}
	peak := peakRSSMB()
	if cerr := d.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	r := &result{tracer: tr}
	var tl tail
	r.e2e, tl = endToEnd(ph, totals, peak)
	for _, p := range []phase{untraced, ph} {
		for _, j := range p.jobs {
			r.attempted++
			if j.err != nil {
				r.failed++
				r.failures = append(r.failures, j.err.Error())
			}
		}
	}
	if r.attempted == 0 {
		return nil, fmt.Errorf("no job ran")
	}
	for _, j := range ph.jobs {
		r.latencies = append(r.latencies, j.latency.Seconds())
	}
	last := warm.servers
	if n := len(ph.jobs); n > 0 && ph.jobs[n-1].servers != nil {
		last = ph.jobs[n-1].servers
	}
	r.meta = meta{
		Workload: w.name, Why: w.why, Seed: c.seed, DevSeed: devSeed, HeldOutSeed: heldOutSeed,
		Trace: c.trace, Seconds: c.seconds, Commit: commit(), GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Scale: c.scale, Vertices: g.NumVertices, Edges: g.NumEdges(), Tiles: d.p.NumTiles(),
		SSSPSource: source, Clients: w.clients, Setups: len(totals),
		CacheBudget: w.options(d.p).CacheCapacity, RSSReset: rssReset,
		Jobs: len(ph.jobs), JobTail: tl,
	}
	for _, j := range cycle {
		r.meta.Programs = append(r.meta.Programs, j.String())
	}
	for _, s := range last {
		r.meta.Servers = append(r.meta.Servers, serverMeta{
			Server: s.Server, CacheMode: s.CacheMode.String(), CachePolicy: s.CachePolicy.String(),
			Residency: s.Residency.String(), PrefetchIssued: s.PrefetchIssued, PrefetchHits: s.PrefetchHits,
		})
	}
	if c.trace {
		u, _ := endToEnd(untraced, totals, peak)
		r.meta.TraceOverhead = &traceOverhead{
			UntracedP50: u.m["job_p50_s"].Value, TracedP50: r.e2e.m["job_p50_s"].Value,
			UntracedJPS: u.m["jobs_per_s"].Value, TracedJPS: r.e2e.m["jobs_per_s"].Value,
		}
		r.layers = perLayer(w, ph, before, setupStats{
			partitionS: median(parts), openS: median(opens),
			tiles: d.p.NumTiles(), tileMB: float64(d.p.TotalTileBytes()) / 1e6, diskWriteMB: writeMB,
		})
		addSelfTimes(r.layers, tr.spans, len(ph.jobs))
		r.layers.add("trace.overhead_pct", 100*(ratio(r.meta.TraceOverhead.TracedP50, r.meta.TraceOverhead.UntracedP50)-1), "%")
		r.layers.add("trace.spans", float64(len(tr.spans)), "count")
		if err := microLayers(r.layers, d.p, last[0].CacheMode, refs[cycle[0]]); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// ssspSource derives the SSSP source from the seed: the source vertex of a
// seed-chosen edge, so it always has out-edges.
func ssspSource(g *graphh.Graph, seed uint64) uint32 {
	z := seed + 0x9e3779b97f4a7c15 // splitmix64
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	return g.Edges[z%uint64(len(g.Edges))].Src
}

// report prints the metrics with units and sample counts, writes the result
// (and the spans of a traced run) under -out, and ends with the JSON line.
func (r *result) report(stdout io.Writer, c config) error {
	m := r.meta
	bw := bufio.NewWriter(stdout)
	fmt.Fprintf(bw, "# perfbench %s seed=%d trace=%v: %s\n", m.Workload, m.Seed, m.Trace, m.Why)
	fmt.Fprintf(bw, "# |V|=%d |E|=%d tiles=%d servers=%d clients=%d programs=%s commit=%s %s nproc=%d GOMAXPROCS=%d\n",
		m.Vertices, m.Edges, m.Tiles, numServers, m.Clients, strings.Join(m.Programs, ","), m.Commit, m.GoVersion, m.NumCPU, m.GOMAXPROCS)
	for _, s := range m.Servers {
		fmt.Fprintf(bw, "# server %d: cache %s/%s residency %s prefetch issued %d hits %d\n",
			s.Server, s.CacheMode, s.CachePolicy, s.Residency, s.PrefetchIssued, s.PrefetchHits)
	}
	for _, name := range r.e2e.names {
		v := r.e2e.m[name]
		note := fmt.Sprintf("%d jobs", m.Jobs)
		switch name {
		case "job_tail_s":
			note = fmt.Sprintf("p%.1f of %d jobs, %d beyond", m.JobTail.Percentile, m.JobTail.Samples, m.JobTail.Beyond)
		case "setup_s":
			note = fmt.Sprintf("median of %d set-ups", m.Setups)
		case "peak_rss_mb":
			note = "VmHWM over set-up and timed phase"
		}
		fmt.Fprintf(bw, "%-34s %12.6g %-5s (%s)\n", name, v.Value, v.Unit, note)
	}
	fmt.Fprintf(bw, "%-34s %12.6g %-5s (%d of %d attempted)\n", "failed_ratio", ratio(float64(r.failed), float64(r.attempted)), "ratio", r.failed, r.attempted)
	if r.layers != nil {
		for _, name := range r.layers.names {
			v := r.layers.m[name]
			fmt.Fprintf(bw, "%-34s %12.6g %s\n", name, v.Value, v.Unit)
		}
	}
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", f)
	}

	base := fmt.Sprintf("%s-seed%d-trace%d", m.Workload, m.Seed, btoi(m.Trace))
	dir := filepath.Join(c.out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	full := struct {
		Meta      meta              `json:"meta"`
		EndToEnd  map[string]metric `json:"end_to_end"`
		PerLayer  map[string]metric `json:"per_layer,omitempty"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Failures  []string          `json:"failures,omitempty"`
		Latencies []float64         `json:"job_latencies_s"`
	}{m, r.e2e.m, nil, r.attempted, r.failed, r.failures, r.latencies}
	if r.layers != nil {
		full.PerLayer = r.layers.m
	}
	data, err := json.MarshalIndent(full, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, base+".json"), data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(bw, "# result: %s\n", filepath.Join(dir, base+".json"))
	if r.tracer != nil {
		path := filepath.Join(dir, base+".spans.json")
		if err := r.tracer.write(path); err != nil {
			return err
		}
		fmt.Fprintf(bw, "# spans: %s\n", path)
	}

	metrics := r.e2e.m
	if r.layers != nil {
		metrics = r.layers.m
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, metrics})
	if err != nil {
		return err
	}
	bw.Write(line)
	bw.WriteByte('\n')
	return bw.Flush()
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// commit is the VCS revision the binary was built from, when the build saw
// a repository; a checkout without one reports "unknown".
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's resident high-water mark (VmHWM) from
// the current RSS.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads VmHWM in MB, or 0 where /proc is unavailable.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if f := strings.Fields(string(line)); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return kb * 1024 / 1e6
			}
		}
	}
	return 0
}
