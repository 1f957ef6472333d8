package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public entry point or hook. Spans of one job share its id.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Job    string `json:"job,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	roots sync.Map // job id → the client-side root span id
	mu    sync.Mutex
	spans []span
}

// setRoot remembers a job's root span, so server-side spans can name it as
// their parent.
func (t *tracer) setRoot(job string, id int64) {
	if t != nil {
		t.roots.Store(job, id)
	}
}

// root returns a job's root span id, 0 if unknown.
func (t *tracer) root(job string) int64 {
	if t == nil {
		return 0
	}
	id, _ := t.roots.Load(job)
	v, _ := id.(int64)
	return v
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{t0: time.Now()}
}

// id reserves a span id, so children can name a parent recorded later.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// record stores a finished span under an id from t.id.
func (t *tracer) record(id, parent int64, name, job string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{ID: id, Parent: parent, Name: name, Job: job, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// add records a span with a fresh id and returns it.
func (t *tracer) add(parent int64, name, job string, start, end time.Time) int64 {
	id := t.id()
	t.record(id, parent, name, job, start, end)
	return id
}

// durationsMS returns the durations, in ms, of every span called name.
func (t *tracer) durationsMS(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// layerTime summarizes the spans of one name, or of one layer (the part of
// the name before its first dot).
type layerTime struct {
	Count  int     `json:"count"`
	P50MS  float64 `json:"p50_ms"`
	SelfMS float64 `json:"self_ms"` // Σ span time not covered by child spans
}

// selfTimes computes each span's self time, its duration minus the part of
// its interval that its children cover, and sums it by span name and by
// layer.
func (t *tracer) selfTimes() map[string]layerTime {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	durs := map[string][]float64{}
	out := map[string]layerTime{}
	for _, s := range spans {
		self := float64(s.End-s.Start-covered(s, children[s.ID])) / 1e6
		layer, _, _ := strings.Cut(s.Name, ".")
		for _, key := range []string{s.Name, layer + ".*"} {
			lt := out[key]
			lt.Count++
			lt.SelfMS += self
			out[key] = lt
			durs[key] = append(durs[key], float64(s.End-s.Start)/1e6)
		}
	}
	for k, lt := range out {
		lt.P50MS = median(durs[k])
		out[k] = lt
	}
	return out
}

// covered is the length of the union of the children's intervals clipped
// to the parent's.
func covered(parent span, kids []span) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, end int64
	for _, v := range ivs {
		if v.lo > end {
			end = v.lo
		}
		if v.hi > end {
			total += v.hi - end
			end = v.hi
		}
	}
	return total
}

// write dumps every span and the self-time summary as JSON.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	self := t.selfTimes()
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(map[string]any{"spans": t.spans, "self": self})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
