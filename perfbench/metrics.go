package main

import (
	"strings"
	"time"

	graphh "repro"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet keeps metrics in the order they were added, for printing.
type metricSet struct {
	names []string
	m     map[string]metric
}

func newMetricSet() *metricSet { return &metricSet{m: map[string]metric{}} }

func (s *metricSet) add(name string, v float64, unit string) {
	if _, ok := s.m[name]; !ok {
		s.names = append(s.names, name)
	}
	s.m[name] = metric{v, unit}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// endToEnd computes the user-visible metrics of one timed phase.
func endToEnd(ph phase, setups []float64, peakRSS float64) (*metricSet, tail) {
	lat := make([]float64, len(ph.jobs))
	for i, j := range ph.jobs {
		lat[i] = j.latency.Seconds()
	}
	n := float64(len(ph.jobs))
	tl := tailOf(lat)
	s := newMetricSet()
	s.add("job_p50_s", median(lat), "s")
	s.add("job_tail_s", tl.Value, "s")
	s.add("jobs_per_s", ratio(n, ph.wall.Seconds()), "1/s")
	s.add("cpu_per_job_s", ratio(ph.cpu.Seconds(), n), "s")
	s.add("setup_s", median(setups), "s")
	s.add("peak_rss_mb", peakRSS, "MB")
	return s, tl
}

// counters are the cumulative ServerStats counters of one server, indexed
// by the c* constants.
type counters [numCounters]int64

const (
	cHits = iota
	cMisses
	cEvictions
	cDecompressNS
	cReadBytes
	cReadOps
	cBatched
	cQueuedOps
	cPfIssued
	cPfHits
	cPfWasted
	cSent
	cStalls
	numCounters
)

func countersOf(s graphh.ServerStats) counters {
	return counters{
		cHits: s.Cache.Hits, cMisses: s.Cache.Misses, cEvictions: s.Cache.Evictions,
		cDecompressNS: int64(s.Cache.DecompressTime),
		cReadBytes:    s.Disk.ReadBytes, cReadOps: s.Disk.ReadOps,
		cBatched: s.Disk.BatchedReads, cQueuedOps: s.Disk.QueuedOps,
		cPfIssued: s.PrefetchIssued, cPfHits: s.PrefetchHits, cPfWasted: s.PrefetchWasted,
		cSent: s.BytesSent, cStalls: s.SendStalls,
	}
}

func serverCounters(servers []graphh.ServerStats) []counters {
	out := make([]counters, len(servers))
	for i, s := range servers {
		out[i] = countersOf(s)
	}
	return out
}

// phaseCounters returns, per server, the newest cumulative counters any job
// of the phase reported, and what the phase added to before. On a
// multi-tenant session that is the session total over the phase, so
// per-job figures divide it by the job count.
func phaseCounters(ph phase, before []counters) (last, delta []counters) {
	last = append([]counters(nil), before...)
	delta = make([]counters, len(before))
	for i := range before {
		for _, j := range ph.jobs {
			if i < len(j.servers) {
				c := countersOf(j.servers[i])
				for k := range c {
					last[i][k] = max(last[i][k], c[k])
				}
			}
		}
		for k := range delta[i] {
			delta[i][k] = last[i][k] - before[i][k]
		}
	}
	return last, delta
}

// setupStats are the per-set-up layer timings, as medians over set-ups.
type setupStats struct {
	partitionS, openS float64
	tiles             int
	tileMB            float64
	diskWriteMB       float64
}

// perLayer computes the per-layer metrics of one timed phase.
func perLayer(w workload, ph phase, before []counters, su setupStats) *metricSet {
	s := newMetricSet()
	n := float64(len(ph.jobs))
	per := func(x float64) float64 { return ratio(x, n) }

	s.add("tile.partition_s", su.partitionS, "s")
	s.add("tile.count", float64(su.tiles), "count")
	s.add("tile.mb", su.tileMB, "MB")
	s.add("session.open_s", su.openS, "s")
	s.add("disk.write_mb_setup", su.diskWriteMB, "MB")

	var (
		step0, stepN, loops, overhead   []float64
		supersteps, loaded, skipped     float64
		rebalance                       time.Duration
		migrated, shared                float64
		wire, raw, dense, sparse        float64
		diskHW, queueHW                 int64
		submit, wait, values, svcOverhd []float64
	)
	for _, j := range ph.jobs {
		loops = append(loops, j.loop.Seconds())
		if w.remote {
			submit = append(submit, ms(j.submit))
			wait = append(wait, ms(j.wait))
			values = append(values, ms(j.values))
			svcOverhd = append(svcOverhd, ms(j.latency-j.loop))
		} else {
			overhead = append(overhead, ms(j.latency-j.loop))
		}
		supersteps += float64(len(j.steps))
		for k, st := range j.steps {
			if k == 0 {
				step0 = append(step0, ms(st.Duration))
			} else {
				stepN = append(stepN, ms(st.Duration))
			}
			loaded += float64(st.LoadedTiles)
			skipped += float64(st.SkippedTiles)
			rebalance += st.Rebalance
			migrated += float64(st.MigratedTiles)
			wire += float64(st.WireBytes)
			raw += float64(st.RawBytes)
			dense += float64(st.DenseMsgs)
			sparse += float64(st.SparseMsgs)
		}
		for _, sv := range j.servers {
			shared += float64(sv.SharedTileLoads)
			diskHW = max(diskHW, sv.Disk.QueueHighWater)
			queueHW = max(queueHW, sv.SendQueueHighWater)
		}
	}
	s.add("core.step_p50_ms", median(stepN), "ms")
	s.add("core.step0_ms", median(step0), "ms")
	s.add("core.loop_s_per_job", median(loops), "s")
	s.add("core.job_overhead_ms", median(overhead), "ms")
	s.add("core.supersteps_per_job", per(supersteps), "count")
	s.add("core.loaded_tiles_per_job", per(loaded), "count")
	s.add("core.skipped_tiles_per_job", per(skipped), "count")
	s.add("core.rebalance_ms_per_job", per(ms(rebalance)), "ms")
	s.add("core.migrated_tiles_per_job", per(migrated), "count")

	var tot counters
	var busiest float64
	_, delta := phaseCounters(ph, before)
	for _, c := range delta {
		for k := range c {
			tot[k] += c[k]
		}
		if w.ooc {
			busiest = max(busiest, float64(c[cReadBytes])/diskBandwidth+float64(c[cReadOps])*diskLatency.Seconds())
		}
	}
	f := func(k int) float64 { return float64(tot[k]) }
	accesses := float64(tot[cHits] + tot[cMisses])
	s.add("cache.hit_ratio", ratio(f(cHits), accesses), "ratio")
	s.add("cache.accesses_per_job", per(accesses), "count")
	s.add("cache.evictions_per_job", per(f(cEvictions)), "count")
	s.add("cache.decompress_ms_per_job", per(f(cDecompressNS)/1e6), "ms")
	s.add("cache.shared_loads_per_job", per(shared), "count")
	s.add("cache.shared_ratio", ratio(shared, shared+f(cReadOps)), "ratio")

	s.add("prefetch.issued_per_job", per(f(cPfIssued)), "count")
	s.add("prefetch.hit_ratio", ratio(f(cPfHits), f(cPfIssued)), "ratio")
	s.add("prefetch.wasted_per_job", per(f(cPfWasted)), "count")

	s.add("disk.read_mb_per_job", per(f(cReadBytes)/1e6), "MB")
	s.add("disk.read_ops_per_job", per(f(cReadOps)), "count")
	s.add("disk.batched_reads_per_job", per(f(cBatched)), "count")
	s.add("disk.queued_ops_per_job", per(f(cQueuedOps)), "count")
	s.add("disk.queue_high_water", float64(diskHW), "count")
	s.add("disk.modelled_s_per_job", per(busiest), "s")

	s.add("comm.wire_mb_per_job", per(wire/1e6), "MB")
	s.add("comm.raw_mb_per_job", per(raw/1e6), "MB")
	s.add("comm.compress_ratio", ratio(raw, wire), "ratio")
	s.add("comm.dense_msgs_per_job", per(dense), "count")
	s.add("comm.sparse_msgs_per_job", per(sparse), "count")

	s.add("cluster.bytes_sent_per_job", per(f(cSent)), "B")
	s.add("cluster.send_stalls_per_job", per(f(cStalls)), "count")
	s.add("cluster.send_queue_high_water", float64(queueHW), "count")

	s.add("service.submit_ms_p50", median(submit), "ms")
	s.add("service.wait_ms_p50", median(wait), "ms")
	s.add("service.values_ms_p50", median(values), "ms")
	s.add("service.overhead_ms_p50", median(svcOverhd), "ms")
	s.add("service.http_requests_per_job", per(float64(ph.reqs)), "count")
	s.add("service.result_pages_per_job", per(float64(ph.pages)), "count")
	s.add("service.bytes_served_per_job", per(float64(ph.bytes)), "B")
	return s
}

// selfSpans are the span names whose self time the traced run reports per
// job; a span a workload never records reports 0.
var selfSpans = []string{"bench.job", "bench.check", "core.Submit", "core.step", "client.Submit", "client.Wait", "client.Values"}

func selfMetricName(span string) string {
	return "self." + strings.ToLower(span) + "_ms_per_job"
}

// addSelfTimes adds the per-job self time of each timed-phase span name.
func addSelfTimes(s *metricSet, spans []span, jobs int) {
	var timed []span
	for _, sp := range spans {
		if sp.Job > 0 {
			timed = append(timed, sp)
		}
	}
	self := selfTimes(timed)
	for _, name := range selfSpans {
		s.add(selfMetricName(name), ratio(ms(self[name]), float64(jobs)), "ms")
	}
}
