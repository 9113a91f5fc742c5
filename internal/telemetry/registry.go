// Package telemetry is the repo's stdlib-only observability layer: a
// concurrent metric registry rendered in Prometheus text exposition
// format, a bounded per-job span recorder for stage timelines, and
// log/slog helpers bridging the legacy LogTo(format, ...) callbacks.
//
// Hot paths are lock-free: counters are atomic.Int64, gauges are
// computed at scrape time, histogram buckets are atomic counters and the
// float64 sum is a CAS loop over its bits. Registration (cold path) takes the registry
// mutex and panics on duplicate or malformed names, so a misspelled
// metric fails the first test that touches it rather than corrupting
// the exposition.
//
// Metric names follow the fusion_<subsystem>_<name>[_unit] convention
// enforced by ValidateName (and by the fusionlint telemetry analyzer
// at registration sites).
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// ValidateName reports whether name is a well-formed fusion metric
// name: fusion_<subsystem>_<name>[_unit], lowercase ASCII letters,
// digits, and underscores only, with at least a subsystem and a name
// segment after the fusion_ prefix.
func ValidateName(name string) error {
	const prefix = "fusion_"
	if !strings.HasPrefix(name, prefix) {
		return fmt.Errorf("telemetry: metric %q must start with %q", name, prefix)
	}
	rest := name[len(prefix):]
	for _, r := range name {
		if (r < 'a' || r > 'z') && (r < '0' || r > '9') && r != '_' {
			return fmt.Errorf("telemetry: metric %q has invalid character %q", name, r)
		}
	}
	parts := strings.Split(rest, "_")
	if len(parts) < 2 {
		return fmt.Errorf("telemetry: metric %q needs fusion_<subsystem>_<name>", name)
	}
	for _, p := range parts {
		if p == "" {
			return fmt.Errorf("telemetry: metric %q has an empty segment", name)
		}
		if p[0] >= '0' && p[0] <= '9' {
			return fmt.Errorf("telemetry: metric %q segment %q starts with a digit", name, p)
		}
	}
	return nil
}

// validateLabel checks a Prometheus label name.
func validateLabel(name string) error {
	if name == "" {
		return fmt.Errorf("telemetry: empty label name")
	}
	for i, r := range name {
		letter := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r == '_'
		if !letter && (i == 0 || r < '0' || r > '9') {
			return fmt.Errorf("telemetry: label %q has invalid character %q", name, r)
		}
	}
	return nil
}

// metric is one registered family: a single collector or a vec.
type metric struct {
	name string
	help string
	typ  string // "counter", "gauge", "histogram"
	// collect appends exposition sample lines (without HELP/TYPE).
	collect func(sb *strings.Builder)
}

// Registry holds a set of metric families and renders them in
// Prometheus text exposition format 0.0.4. The zero value is not
// usable; call NewRegistry. All Register* methods panic on duplicate
// or invalid names — registration is program structure, not data.
type Registry struct {
	mu   sync.Mutex
	byN  map[string]*metric
	list []*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byN: make(map[string]*metric)}
}

func (r *Registry) add(m *metric) {
	if err := ValidateName(m.name); err != nil {
		panic(err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byN[m.name]; dup {
		panic(fmt.Sprintf("telemetry: duplicate metric %q", m.name))
	}
	r.byN[m.name] = m
	r.list = append(r.list, m)
}

// Counter is a monotonically increasing int64 with an atomic hot path.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored: counters are monotonic).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count. Surfaces like /v2/stats read this
// so they can never disagree with the /metrics exposition.
func (c *Counter) Value() int64 { return c.v.Load() }

// Counter registers and returns a counter. The name must end in
// _total by Prometheus convention; this is enforced.
func (r *Registry) Counter(name, help string) *Counter {
	if !strings.HasSuffix(name, "_total") {
		panic(fmt.Sprintf("telemetry: counter %q must end in _total", name))
	}
	c := &Counter{}
	r.add(&metric{name: name, help: help, typ: "counter", collect: func(sb *strings.Builder) {
		fmt.Fprintf(sb, "%s %d\n", name, c.Value())
	}})
	return c
}

// GaugeFunc registers a gauge whose value is computed at scrape time —
// queue depths, cache sizes, live-worker counts. fn must be safe to
// call from any goroutine.
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {
	r.add(&metric{name: name, help: help, typ: "gauge", collect: func(sb *strings.Builder) {
		fmt.Fprintf(sb, "%s %d\n", name, fn())
	}})
}

// Histogram is a fixed-bucket histogram. Observations are lock-free:
// each bucket is an atomic counter and the sum is a CAS loop over the
// float64 bits. Buckets are cumulative in the exposition, per the
// Prometheus histogram contract, with an implicit +Inf bucket.
type Histogram struct {
	bounds  []float64 // sorted upper bounds, +Inf implicit
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Linear scan: bucket counts are small (≤ ~12) and the scan is
	// branch-predictable, beating a binary search at this size.
	for i, b := range h.bounds {
		if v <= b {
			h.buckets[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

func (h *Histogram) collectInto(sb *strings.Builder, name, labels string) {
	cum := int64(0)
	for i, b := range h.bounds {
		cum += h.buckets[i].Load()
		fmt.Fprintf(sb, "%s_bucket{%sle=%q} %d\n", name, labels, formatBound(b), cum)
	}
	fmt.Fprintf(sb, "%s_bucket{%sle=\"+Inf\"} %d\n", name, labels, h.Count())
	sumLabels := ""
	if labels != "" {
		sumLabels = "{" + strings.TrimSuffix(labels, ",") + "}"
	}
	fmt.Fprintf(sb, "%s_sum%s %s\n", name, sumLabels, formatFloat(h.Sum()))
	fmt.Fprintf(sb, "%s_count%s %d\n", name, sumLabels, h.Count())
}

// DefBuckets are latency buckets in seconds spanning sub-millisecond
// kernel dispatches through multi-minute scene fusions.
var DefBuckets = []float64{.0005, .001, .005, .01, .05, .1, .5, 1, 5, 15, 60}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b))}
}

// Histogram registers and returns a histogram with the given bucket
// upper bounds (DefBuckets when nil).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	h := newHistogram(bounds)
	r.add(&metric{name: name, help: help, typ: "histogram", collect: func(sb *strings.Builder) {
		h.collectInto(sb, name, "")
	}})
	return h
}

// CounterVec is a family of counters split by a fixed label set.
// Children are created on first use and cached; hot paths should hold
// the *Counter from With rather than calling With per event.
type CounterVec struct {
	name   string
	labels []string
	mu     sync.RWMutex
	kids   map[string]*vecChild[*Counter]
}

type vecChild[T any] struct {
	labels string // rendered `k="v",` pairs
	c      T
}

// With returns the child counter for the given label values (one per
// label name, in registration order).
func (v *CounterVec) With(values ...string) *Counter {
	key := joinKey(values)
	v.mu.RLock()
	kid := v.kids[key]
	v.mu.RUnlock()
	if kid != nil {
		return kid.c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if kid = v.kids[key]; kid != nil {
		return kid.c
	}
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("telemetry: %s wants %d label values, got %d", v.name, len(v.labels), len(values)))
	}
	kid = &vecChild[*Counter]{labels: renderLabels(v.labels, values), c: &Counter{}}
	v.kids[key] = kid
	return kid.c
}

// CounterVec registers a counter family with the given label names.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if !strings.HasSuffix(name, "_total") {
		panic(fmt.Sprintf("telemetry: counter %q must end in _total", name))
	}
	for _, l := range labels {
		if err := validateLabel(l); err != nil {
			panic(err)
		}
	}
	v := &CounterVec{name: name, labels: labels, kids: make(map[string]*vecChild[*Counter])}
	r.add(&metric{name: name, help: help, typ: "counter", collect: func(sb *strings.Builder) {
		for _, kid := range v.sorted() {
			fmt.Fprintf(sb, "%s{%s} %d\n", name, strings.TrimSuffix(kid.labels, ","), kid.c.Value())
		}
	}})
	return v
}

func (v *CounterVec) sorted() []*vecChild[*Counter] {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make([]*vecChild[*Counter], 0, len(v.kids))
	for _, kid := range v.kids {
		out = append(out, kid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].labels < out[j].labels })
	return out
}

// HistogramVec is a family of histograms split by a fixed label set.
type HistogramVec struct {
	name   string
	labels []string
	bounds []float64
	mu     sync.RWMutex
	kids   map[string]*vecChild[*Histogram]
}

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	key := joinKey(values)
	v.mu.RLock()
	kid := v.kids[key]
	v.mu.RUnlock()
	if kid != nil {
		return kid.c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if kid = v.kids[key]; kid != nil {
		return kid.c
	}
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("telemetry: %s wants %d label values, got %d", v.name, len(v.labels), len(values)))
	}
	kid = &vecChild[*Histogram]{labels: renderLabels(v.labels, values), c: newHistogram(v.bounds)}
	v.kids[key] = kid
	return kid.c
}

// HistogramVec registers a histogram family with the given bucket
// bounds (DefBuckets when nil) and label names.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	for _, l := range labels {
		if err := validateLabel(l); err != nil {
			panic(err)
		}
	}
	v := &HistogramVec{name: name, labels: labels, bounds: bounds, kids: make(map[string]*vecChild[*Histogram])}
	r.add(&metric{name: name, help: help, typ: "histogram", collect: func(sb *strings.Builder) {
		for _, kid := range v.sortedH() {
			kid.c.collectInto(sb, name, kid.labels)
		}
	}})
	return v
}

func (v *HistogramVec) sortedH() []*vecChild[*Histogram] {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make([]*vecChild[*Histogram], 0, len(v.kids))
	for _, kid := range v.kids {
		out = append(out, kid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].labels < out[j].labels })
	return out
}

// joinKey builds the child cache key. \x00 cannot appear in label
// values that matter here (they are route names, frame types, stages),
// and even a pathological value only merges cache keys, not samples.
func joinKey(values []string) string { return strings.Join(values, "\x00") }

// renderLabels renders `k="v",` pairs with Prometheus escaping.
func renderLabels(names, values []string) string {
	var sb strings.Builder
	for i, n := range names {
		sb.WriteString(n)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(values[i]))
		sb.WriteString(`",`)
	}
	return sb.String()
}

// escapeLabel escapes a label value per the text exposition format:
// backslash, double-quote, and newline (exactly those three).
func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// formatBound renders a bucket bound the way Prometheus clients do.
func formatBound(b float64) string { return formatFloat(b) }

// formatFloat renders a float64 sample value.
func formatFloat(f float64) string {
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return fmt.Sprintf("%g", f)
	}
	return fmt.Sprintf("%v", f)
}
