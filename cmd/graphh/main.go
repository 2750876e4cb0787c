// Command graphh runs vertex-centric applications on a graph with the
// GraphH engine: two-stage tile partitioning, the GAB computation model on
// a simulated N-server cluster, edge caching and hybrid communication.
//
// Usage:
//
//	graphh -app pagerank -in web.bin -servers 4 -supersteps 20
//	graphh -app sssp -source 0 -in roads.csv -servers 2
//	graphh -app wcc -in social.bin -symmetrize
//	graphh -program pagerank,sssp,wcc -in social.bin -symmetrize -servers 4
//
// -program takes a comma-separated list and runs every job over one
// persistent session: the graph is partitioned and persisted once, and
// each job after the first starts with a warm edge cache — the per-job
// wall times printed make the reuse visible. With -concurrent-jobs N > 1
// the session is multi-tenant and the listed jobs are submitted together:
//
//	graphh -program pagerank,wcc -in social.bin -symmetrize -concurrent-jobs 2
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	graphh "repro"
	"repro/api"
)

func main() {
	var (
		app        = flag.String("app", "pagerank", "application: pagerank, sssp, bfs, wcc")
		programs   = flag.String("program", "", "comma-separated application list run over one session (overrides -app), e.g. pagerank,sssp,wcc")
		in         = flag.String("in", "", "input edge list (.csv/.txt = text, else binary)")
		dataset    = flag.String("dataset", "", "generate a named dataset instead of reading -in")
		scale      = flag.Float64("scale", 1.0, "dataset scale factor")
		servers    = flag.Int("servers", 1, "simulated cluster size N")
		workers    = flag.Int("workers", 0, "workers per server T (0 = auto)")
		steps      = flag.Int("supersteps", 50, "maximum supersteps")
		source     = flag.Uint("source", 0, "source vertex for sssp/bfs")
		tileSize   = flag.Int("tile-size", 0, "edges per tile S (0 = auto)")
		cacheCap   = flag.Int64("cache-bytes", 0, "edge cache capacity per server (0 = unlimited, <0 disabled)")
		cacheMode  = flag.String("cache-mode", "auto", "cache codec: auto, raw, snappy, zlib-1, zlib-3")
		cachePol   = flag.String("cache-policy", "auto", "cache eviction: auto, admit-no-evict, lru, clock")
		msgCodec   = flag.String("msg-codec", "snappy", "message codec: raw, snappy, zlib-1, zlib-3")
		tcp        = flag.Bool("tcp", false, "use the TCP loopback transport")
		symmetrize = flag.Bool("symmetrize", false, "add reverse edges before running (needed by wcc)")
		top        = flag.Int("top", 10, "print the top-K vertices by value")
		diskBW     = flag.Int64("disk-bw", 0, "disk bandwidth model, bytes/s (0 = unthrottled)")
		diskLat    = flag.Duration("disk-latency", 0, "disk per-read-op latency model, e.g. 2ms (0 = pure bandwidth)")
		netBW      = flag.Int64("net-bw", 0, "network bandwidth model, bytes/s (0 = unlimited)")
		prefetch   = flag.Int("prefetch-depth", 0, "sweep-ahead tile prefetch window (0 = auto from the miss ratio, <0 = off)")
		residency  = flag.String("residency", "auto", "tile residency tier: auto, cached, streaming")
		rebalance  = flag.Bool("rebalance", true, "migrate tiles off straggling servers between supersteps")
		rebalRatio = flag.Float64("rebalance-ratio", 0, "straggler trigger: server step cost over ratio x cluster mean (0 = 1.3)")
		ckptEvery  = flag.Int("checkpoint-every", 0, "checkpoint the vertex state every K supersteps for crash recovery (0 = off)")
		failTO     = flag.Duration("failure-timeout", 0, "declare a server dead after its traffic stalls this long, e.g. 2s (0 = only self-declared crashes)")
		concJobs   = flag.Int("concurrent-jobs", 1, "run the -program jobs concurrently, up to N in flight (multi-tenant session; <=1 = back-to-back)")
		jsonOut    = flag.Bool("json", false, "emit one api.RunReport JSON document per job instead of the human report — the same schema a graphhd daemon serves")
	)
	flag.Parse()

	g, err := loadGraph(*in, *dataset, *scale)
	if err != nil {
		fail(err)
	}
	if *symmetrize {
		g = g.Symmetrize()
	}

	list := *programs
	if list == "" {
		list = *app
	}
	var names []string
	var progs []graphh.Program
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		var prog graphh.Program
		switch name {
		case "pagerank":
			prog = graphh.NewPageRank()
		case "sssp":
			prog = graphh.NewSSSP(uint32(*source))
		case "bfs":
			prog = graphh.NewBFS(uint32(*source))
		case "wcc":
			prog = graphh.NewWCC()
		default:
			fail(fmt.Errorf("unknown app %q", name))
		}
		names = append(names, name)
		progs = append(progs, prog)
	}
	if len(progs) == 0 {
		fail(fmt.Errorf("no application named in -program/-app"))
	}

	p, err := graphh.Partition(g, graphh.PartitionOptions{TileSize: *tileSize})
	if err != nil {
		fail(err)
	}
	opts := graphh.Options{
		Servers:            *servers,
		Workers:            *workers,
		MaxSupersteps:      *steps,
		CacheCapacity:      *cacheCap,
		DiskReadBandwidth:  *diskBW,
		DiskWriteBandwidth: *diskBW,
		DiskReadLatency:    *diskLat,
		NetBandwidth:       *netBW,
		PrefetchDepth:      *prefetch,
		DisableRebalance:   !*rebalance,
		RebalanceRatio:     *rebalRatio,
		CheckpointEvery:    *ckptEvery,
		FailureTimeout:     *failTO,
		MaxConcurrentJobs:  *concJobs,
	}
	if *tcp {
		opts.Transport = graphh.TransportTCP
	}
	if *cacheMode != "auto" {
		m, err := parseCodec(*cacheMode)
		if err != nil {
			fail(err)
		}
		opts.CacheMode = &m
	}
	if *cachePol != "auto" {
		p, err := graphh.CachePolicyByName(*cachePol)
		if err != nil {
			fail(err)
		}
		opts.CachePolicy = &p
	}
	if r, err := graphh.ResidencyByName(*residency); err != nil {
		fail(err)
	} else {
		opts.Residency = r
	}
	mc, err := parseCodec(*msgCodec)
	if err != nil {
		fail(err)
	}
	opts.MessageCodec = &mc

	sess, err := graphh.Open(p, opts)
	if err != nil {
		fail(err)
	}
	defer sess.Close()

	if !*jsonOut {
		fmt.Printf("%s on %s: |V|=%d |E|=%d tiles=%d servers=%d\n",
			strings.Join(names, ","), g.Name, g.NumVertices, g.NumEdges(), p.NumTiles(), *servers)
	}
	if *concJobs > 1 {
		// Multi-tenant: every job is submitted at once; the session admits
		// up to -concurrent-jobs of them and interleaves their supersteps,
		// sharing tile loads between jobs sweeping the same data.
		results := make([]*graphh.Result, len(progs))
		errs := make([]error, len(progs))
		var wg sync.WaitGroup
		start := time.Now()
		for i, prog := range progs {
			wg.Add(1)
			go func(i int, prog graphh.Program) {
				defer wg.Done()
				results[i], errs[i] = sess.Submit(context.Background(), prog, graphh.RunOptions{})
			}(i, prog)
		}
		wg.Wait()
		wall := time.Since(start)
		for _, err := range errs {
			if err != nil {
				// fail exits the process, skipping the deferred Close; close
				// here so the session's scratch tile store is removed.
				sess.Close()
				fail(err)
			}
		}
		var shared int64
		for _, res := range results {
			for _, sv := range res.Servers {
				shared += sv.SharedTileLoads
			}
		}
		if *jsonOut {
			for i, res := range results {
				printJSON(names[i], res)
			}
			return
		}
		fmt.Printf("%d jobs ran concurrently (up to %d in flight) in %v wall; %d tile loads shared between jobs\n",
			len(progs), *concJobs, wall.Round(1e6), shared)
		for i, res := range results {
			fmt.Printf("job %d/%d %s:\n", i+1, len(progs), names[i])
			printJob(names[i], res, i == 0, *top)
		}
		return
	}
	for i, prog := range progs {
		res, err := sess.Submit(context.Background(), prog, graphh.RunOptions{})
		if err != nil {
			// fail exits the process, skipping the deferred Close; close
			// here so the session's scratch tile store is removed.
			sess.Close()
			fail(err)
		}
		if *jsonOut {
			printJSON(names[i], res)
			continue
		}
		if len(progs) > 1 {
			fmt.Printf("job %d/%d %s:\n", i+1, len(progs), names[i])
		}
		printJob(names[i], res, i == 0, *top)
	}
}

// printJSON emits the job's api.RunReport — the exact document a graphhd
// daemon serves at GET /v1/jobs/{id} for the same run, so local and remote
// front-ends are scriptable with one schema.
func printJSON(name string, res *graphh.Result) {
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(api.ReportFromResult(name, res)); err != nil {
		fail(err)
	}
}

// printJob reports one job's outcome. Setup is printed only for the first
// job — later jobs reuse the session's persisted tiles and warm cache, and
// their loop wall time is the whole cost.
func printJob(name string, res *graphh.Result, first bool, top int) {
	if first {
		fmt.Printf("supersteps: %d (converged=%v), setup %v, loop %v, avg step %v\n",
			res.Supersteps, res.Converged, res.SetupDuration.Round(1e6),
			res.Duration.Round(1e6), res.AvgStepDuration().Round(1e5))
	} else {
		fmt.Printf("supersteps: %d (converged=%v), loop %v (warm session), avg step %v\n",
			res.Supersteps, res.Converged,
			res.Duration.Round(1e6), res.AvgStepDuration().Round(1e5))
	}
	fmt.Printf("network: %.2f MB total; peak server memory: %.2f MB\n",
		float64(res.TotalWireBytes())/1e6, float64(res.PeakMemoryBytes())/1e6)
	var migrated int
	var migratedMB float64
	for _, st := range res.Steps {
		migrated += st.MigratedTiles
		migratedMB += float64(st.MigrationBytes) / 1e6
	}
	if migrated > 0 {
		fmt.Printf("rebalancer: migrated %d tiles (%.2f MB) mid-run\n", migrated, migratedMB)
	}
	var ckpts, recoveries int
	var ckptMB float64
	for _, sv := range res.Servers {
		ckpts += sv.Checkpoints
		recoveries += sv.Recoveries
		ckptMB += float64(sv.CheckpointBytes) / 1e6
	}
	if ckpts > 0 {
		fmt.Printf("checkpoints: %d written (%.2f MB)\n", ckpts, ckptMB)
	}
	if len(res.DeadServers) > 0 {
		fmt.Printf("recovery: servers %v died mid-run; survivors completed %d recovery rounds\n",
			res.DeadServers, recoveries)
	}
	var joins int
	var membershipEpoch uint64
	for _, sv := range res.Servers {
		joins += sv.Joins
		if sv.MembershipEpoch > membershipEpoch {
			membershipEpoch = sv.MembershipEpoch
		}
	}
	if joins > 0 {
		fmt.Printf("membership: %d rejoin(s) admitted mid-run; epoch %d at job end\n",
			joins, membershipEpoch)
	}
	var pfIssued, pfHits, pfWasted, queueHW int64
	for _, sv := range res.Servers {
		pfIssued += sv.PrefetchIssued
		pfHits += sv.PrefetchHits
		pfWasted += sv.PrefetchWasted
		if sv.Disk.QueueHighWater > queueHW {
			queueHW = sv.Disk.QueueHighWater
		}
	}
	if pfIssued > 0 {
		fmt.Printf("prefetch: %d tiles staged, %d claimed, %d wasted; disk queue depth peaked at %d\n",
			pfIssued, pfHits, pfWasted, queueHW)
	}
	for _, sv := range res.Servers {
		ratio := "" // nothing measured: the raw tiles fit
		if sv.CacheRatio > 0 {
			ratio = fmt.Sprintf(", measured ratio %.2f", sv.CacheRatio)
		}
		fmt.Printf("  server %d: mem %.2f MB, disk read %.2f MB, cache hit %.1f%% (%s/%s, %s tiles%s)\n",
			sv.Server, float64(sv.MemoryBytes)/1e6,
			float64(sv.Disk.ReadBytes)/1e6, sv.Cache.HitRatio()*100,
			sv.CacheMode, sv.CachePolicy, sv.Residency, ratio)
	}

	type kv struct {
		v   uint32
		val float64
	}
	ranked := make([]kv, 0, len(res.Values))
	for v, val := range res.Values {
		ranked = append(ranked, kv{uint32(v), val})
	}
	descending := name == "pagerank"
	sort.Slice(ranked, func(i, j int) bool {
		if descending {
			return ranked[i].val > ranked[j].val
		}
		return ranked[i].val < ranked[j].val
	})
	k := top
	if k > len(ranked) {
		k = len(ranked)
	}
	fmt.Printf("top %d vertices:\n", k)
	for i := 0; i < k; i++ {
		fmt.Printf("  v%-8d %g\n", ranked[i].v, ranked[i].val)
	}
}

func loadGraph(in, dataset string, scale float64) (*graphh.Graph, error) {
	if dataset != "" {
		return graphh.Generate(dataset, scale)
	}
	if in == "" {
		return nil, fmt.Errorf("need -in or -dataset")
	}
	f, err := os.Open(in)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if len(in) > 4 && (in[len(in)-4:] == ".csv" || in[len(in)-4:] == ".txt") {
		return graphh.LoadCSV(f, in)
	}
	return graphh.LoadBinary(f, in)
}

func parseCodec(name string) (graphh.Codec, error) {
	m, err := codecByName(name)
	if err != nil {
		return graphh.CodecNone, err
	}
	return m, nil
}

func codecByName(name string) (graphh.Codec, error) {
	switch name {
	case "raw", "none":
		return graphh.CodecNone, nil
	case "snappy":
		return graphh.CodecSnappy, nil
	case "zlib-1":
		return graphh.CodecZlib1, nil
	case "zlib-3":
		return graphh.CodecZlib3, nil
	default:
		return graphh.CodecNone, fmt.Errorf("unknown codec %q", name)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "graphh:", err)
	os.Exit(1)
}
