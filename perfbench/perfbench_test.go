package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	graphh "repro"
)

func TestMedianAndTail(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v, want 0", got)
	}
	for _, c := range []struct {
		n, idx int
		pct    float64
	}{
		{300, 269, 90}, // capped at p90
		{100, 89, 90},  // 10 samples beyond p90
		{40, 29, 75},
		{11, 0, 100.0 / 11},
		{10, 9, 100}, // too few: the maximum, nothing beyond
		{1, 0, 100},
		{0, -1, 0},
	} {
		idx, pct := tailIndex(c.n)
		if idx != c.idx || math.Abs(pct-c.pct) > 1e-9 {
			t.Errorf("tailIndex(%d) = %d, %v; want %d, %v", c.n, idx, pct, c.idx, c.pct)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // descending: tailOf must sort
	}
	if tl := tailOf(xs); tl.Value != 90 || tl.Beyond != 10 || tl.Samples != 100 {
		t.Errorf("tailOf(1..100) = %+v, want value 90 with 10 beyond", tl)
	}
}

func TestRatioAndBits(t *testing.T) {
	if ratio(1, 0) != 0 || ratio(3, 4) != 0.75 {
		t.Error("ratio: want 0 for a zero base and num/den otherwise")
	}
	inf := math.Inf(1)
	if !bitsEqual([]float64{1, inf}, []float64{1, inf}) {
		t.Error("bitsEqual: +Inf must equal +Inf")
	}
	if bitsEqual([]float64{0}, []float64{math.Copysign(0, -1)}) || bitsEqual([]float64{1}, []float64{1, 2}) {
		t.Error("bitsEqual: -0 vs +0 and length mismatches must differ")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "job", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a
		{ID: 4, Parent: 1, Name: "b", Start: 90, End: 120}, // runs past its parent
	}
	self := selfTimes(spans)
	if self["job"] != 40 || self["a"] != 30 || self["b"] != 60 {
		t.Errorf("selfTimes = %v, want job 40, a 30, b 60", self)
	}
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T, key string) map[string]string {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b map[string]json.RawMessage
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name, Unit string }
	if err := json.Unmarshal(b[key], &ms); err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

// TestWorkloadsTiny runs every workload at a tiny scale, traced and not,
// through the correctness gate, and checks that the printed result line
// carries exactly the metrics BENCHMARK.json declares.
func TestWorkloadsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	want := map[bool]map[string]string{false: declared(t, "end_to_end"), true: declared(t, "per_layer")}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
		for _, trace := range []bool{false, true} {
			c := config{workload: w.name, seed: 3, seconds: 0.3, trace: trace, scale: 0.01, setups: 2, out: t.TempDir()}
			r, err := measure(w, c)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			var out bytes.Buffer
			if err := r.report(&out, c); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var line struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]metric
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatalf("%s: last line: %v", w.name, err)
			}
			if !line.Correct || line.Failed != 0 || line.Attempted < w.clients {
				t.Fatalf("%s trace=%v: %+v", w.name, trace, line)
			}
			if len(line.Metrics) != len(want[trace]) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", w.name, trace, len(line.Metrics), len(want[trace]))
			}
			for name, m := range line.Metrics {
				if unit, ok := want[trace][name]; !ok || unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s [%s] not declared as such in BENCHMARK.json", w.name, trace, name, m.Unit)
				}
			}
			if !trace && line.Metrics["job_p50_s"].Value <= 0 {
				t.Errorf("%s: job_p50_s = %v", w.name, line.Metrics["job_p50_s"].Value)
			}
		}
	}
	var wl []struct{ Name, Why string }
	data, _ := os.ReadFile("../BENCHMARK.json")
	var b struct{ Workloads json.RawMessage }
	if err := json.Unmarshal(data, &b); err != nil || json.Unmarshal(b.Workloads, &wl) != nil {
		t.Fatal("BENCHMARK.json workloads unreadable")
	}
	var got []string
	for _, bw := range wl {
		got = append(got, bw.Name)
		if w, err := workloadByName(bw.Name); err == nil && w.why != bw.Why {
			t.Errorf("%s: BENCHMARK.json gives another why than the program", bw.Name)
		}
	}
	sort.Strings(got)
	sort.Strings(names)
	if strings.Join(got, ",") != strings.Join(names, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", got, names)
	}
}

// TestGateCatchesMismatch checks that a job whose values differ from the
// reference in one bit fails, on the in-process and the remote path.
func TestGateCatchesMismatch(t *testing.T) {
	for _, name := range []string{"pr-cached", "remote-mix"} {
		w, _ := workloadByName(name)
		g := graphh.GenerateRMAT(400, 8000, 5)
		if w.remote {
			g = g.Symmetrize()
		}
		p, err := graphh.Partition(g, graphh.PartitionOptions{TileSize: g.NumEdges() / numTiles})
		if err != nil {
			t.Fatal(err)
		}
		cycle := w.cycle(ssspSource(g, 5))
		refs, err := reference(p, cycle)
		if err != nil {
			t.Fatal(err)
		}
		d, _, _, err := setup(w, g, cycle[0], refs, nil)
		if err != nil {
			t.Fatal(err)
		}
		bad := append([]float64(nil), refs[cycle[0]]...)
		bad[len(bad)/2] = math.Nextafter(bad[len(bad)/2], math.Inf(1))
		if rec := d.runJob(cycle[0], bad, nil, 0, 1); rec.err == nil {
			t.Errorf("%s: a one-ulp difference passed the gate", name)
		}
		if ph, err := d.run(50*time.Millisecond, cycle, refs, nil, 1); err != nil || len(ph.jobs) == 0 {
			t.Errorf("%s: run: %v, %d jobs", name, err, len(ph.jobs))
		} else {
			for _, j := range ph.jobs {
				if j.err != nil {
					t.Errorf("%s: %v", name, j.err)
				}
			}
		}
		if err := d.close(); err != nil {
			t.Fatal(err)
		}
	}
}
