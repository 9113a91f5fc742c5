package telemetry

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// Helpers only this package's tests use.

// Gauge is a settable int64 with an atomic hot path.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Gauge registers and returns a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.add(&metric{name: name, help: help, typ: "gauge", collect: func(sb *strings.Builder) {
		fmt.Fprintf(sb, "%s %d\n", name, g.Value())
	}})
	return g
}
