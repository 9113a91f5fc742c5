package main

import (
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark from
// outside the layer. Spans of one op share its id; replay spans carry
// op -1.
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the recorder was made
	End    float64 `json:"end_s"`
	Parent int     `json:"parent"` // index into the span list; -1 for a root
	Op     int     `json:"op"`
	// AllocBytes is the runtime.MemStats.TotalAlloc delta across an
	// in-process replay call (0 for client-side spans).
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how the untraced run stays free of it.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) begin(name string, parent, op int) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: time.Since(r.t0).Seconds(), Parent: parent, Op: op})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans[id].End = time.Since(r.t0).Seconds()
	r.mu.Unlock()
}

// call times fn as one replay span under parent and returns its
// duration in seconds and the bytes it allocated.
func (r *recorder) call(name string, parent int, fn func() error) (seconds float64, alloc uint64, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	id := r.begin(name, parent, -1)
	err = fn()
	r.end(id)
	runtime.ReadMemStats(&after)
	r.mu.Lock()
	r.spans[id].AllocBytes = after.TotalAlloc - before.TotalAlloc
	s := r.spans[id]
	r.mu.Unlock()
	return s.End - s.Start, s.AllocBytes, err
}

// durations returns the lengths, in seconds, of every span named name.
func (r *recorder) durations(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// selfTimes sums, per span name, each span's duration minus the part
// its direct children cover.
func (r *recorder) selfTimes() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	child := make([]float64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]float64{}
	for i, s := range r.spans {
		self[s.Name] += s.End - s.Start - child[i]
	}
	return self
}

// write dumps the spans and their per-name self times as JSON.
func (r *recorder) write(path string, header map[string]any) error {
	self := r.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	type selfRow struct {
		Name    string  `json:"name"`
		Seconds float64 `json:"self_s"`
	}
	rows := make([]selfRow, len(names))
	for i, n := range names {
		rows[i] = selfRow{n, self[n]}
	}
	r.mu.Lock()
	doc := map[string]any{"run": header, "self_time": rows, "spans": r.spans}
	data, err := json.Marshal(doc)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
