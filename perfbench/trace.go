package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one benchmark call into a layer. Spans of one job share Job;
// setup spans carry Job 0. Times are nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Job    int    `json:"job"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced runs call the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	last  int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id reserves a span ID, so children recorded before their parent ends can
// name it.
func (t *tracer) id() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.last++
	return t.last
}

// record stores a finished span under a reserved ID (0 reserves one).
func (t *tracer) record(id, parent int, name string, job int, start, end time.Time) {
	if t == nil {
		return
	}
	if id == 0 {
		id = t.id()
	}
	s := span{ID: id, Parent: parent, Name: name, Job: job,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// selfTimes sums, per span name, each span's duration minus the part of it
// that its children cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += time.Duration(s.End - s.Start - covered(s, children[s.ID]))
	}
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	return total + curHi - curLo
}

// write stores the spans and their per-name self times as one JSON file.
func (t *tracer) write(path string) error {
	self := map[string]float64{}
	for name, d := range selfTimes(t.spans) {
		self[name] = d.Seconds()
	}
	data, err := json.Marshal(struct {
		SelfS map[string]float64 `json:"self_s"`
		Spans []span             `json:"spans"`
	}{self, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
