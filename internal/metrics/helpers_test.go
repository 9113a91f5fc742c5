package metrics

// Helpers only this package's tests use.

// Efficiency is speedup divided by the processor count.
func Efficiency(speedups []float64, procs []int) []float64 {
	out := make([]float64, len(speedups))
	for i := range speedups {
		out[i] = speedups[i] / float64(procs[i])
	}
	return out
}
