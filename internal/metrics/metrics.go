// Package metrics formats experiment results: time/speedup series and
// fixed-width tables matching the paper's figures.
package metrics

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Series is one named line on a chart: y-values indexed like the shared
// x-axis of the containing Table.
type Series struct {
	Name   string
	Values []float64
}

// Table is a chart rendered as text: an x-axis plus one or more series.
type Table struct {
	Title  string
	XLabel string
	X      []float64
	YUnit  string
	Series []Series
}

// Add appends a series.
func (t *Table) Add(name string, values []float64) {
	t.Series = append(t.Series, Series{Name: name, Values: values})
}

// Write renders the table with aligned columns.
func (t *Table) Write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s\n", t.Title); err != nil {
		return err
	}
	header := fmt.Sprintf("%-14s", t.XLabel)
	for _, s := range t.Series {
		header += fmt.Sprintf("%22s", s.Name)
	}
	if _, err := fmt.Fprintln(w, header); err != nil {
		return err
	}
	for i, x := range t.X {
		row := fmt.Sprintf("%-14g", x)
		for _, s := range t.Series {
			if i < len(s.Values) && !math.IsNaN(s.Values[i]) {
				row += fmt.Sprintf("%20.3f %s", s.Values[i], t.YUnit)
			} else {
				row += fmt.Sprintf("%20s %s", "-", strings.Repeat(" ", len(t.YUnit)))
			}
		}
		if _, err := fmt.Fprintln(w, row); err != nil {
			return err
		}
	}
	return nil
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV(w io.Writer) error {
	cols := []string{t.XLabel}
	for _, s := range t.Series {
		cols = append(cols, s.Name)
	}
	if _, err := fmt.Fprintln(w, strings.Join(cols, ",")); err != nil {
		return err
	}
	for i, x := range t.X {
		row := []string{fmt.Sprintf("%g", x)}
		for _, s := range t.Series {
			if i < len(s.Values) {
				row = append(row, fmt.Sprintf("%.6g", s.Values[i]))
			} else {
				row = append(row, "")
			}
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// Speedup converts a time series into speedups relative to t1 (the
// single-processor time): S(P) = t1 / t(P).
func Speedup(t1 float64, times []float64) []float64 {
	out := make([]float64, len(times))
	for i, tp := range times {
		if tp > 0 {
			out[i] = t1 / tp
		} else {
			out[i] = math.NaN()
		}
	}
	return out
}

// WithinOfLinear reports the worst-case fractional shortfall from linear
// speedup across the series: 0.2 means "within 20% of linear".
func WithinOfLinear(speedups []float64, procs []int) float64 {
	worst := 0.0
	for i, s := range speedups {
		if math.IsNaN(s) {
			continue
		}
		shortfall := 1 - s/float64(procs[i])
		if shortfall > worst {
			worst = shortfall
		}
	}
	return worst
}

// Mean returns the arithmetic mean (NaN for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
