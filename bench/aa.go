package main

import (
	"context"
	"fmt"
	"math"
	"os"
)

// runAA measures every workload twice on this one build — first in
// table order, then in reverse, so neither side always runs on a warmer
// or cooler host — and prints, per workload and end-to-end metric, the
// relative difference beside the metric's bound. Two runs of the same
// code that differ by more than a bound mean the bound cannot tell a
// regression from noise; that is an error.
func (e *env) runAA(ctx context.Context, seed int64, seconds int) int {
	a, b := map[string]*report{}, map[string]*report{}
	for pass, side := range []map[string]*report{a, b} {
		for i := range workloads {
			w := workloads[i]
			if pass == 1 {
				w = workloads[len(workloads)-1-i]
			}
			fmt.Fprintf(os.Stderr, "bench: A/A pass %d: %s\n", pass+1, w.name)
			rep, err := e.measure(ctx, w, seed, seconds)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", w.name, err)
				return 1
			}
			side[w.name] = rep
		}
	}
	h := hostHeader(e.root)
	fmt.Printf("# A/A: two runs of one build\n\n")
	fmt.Printf("Host: %v CPUs (`%v`), GOMAXPROCS %v, %v, commit `%v`; seed %d, %d s timed window per run.\n\n",
		h["nproc"], h["cpu"], h["gomaxprocs"], h["go"], h["commit"], seed, seconds)
	fmt.Println("| workload | metric | run A | run B | difference | bound | within |")
	fmt.Println("|---|---|---|---|---|---|---|")
	code := 0
	for _, w := range workloads {
		ra, rb := a[w.name], b[w.name]
		for _, m := range endToEnd {
			x, y := ra.values[m.Name], rb.values[m.Name]
			diff := math.Abs(x-y) / math.Min(x, y)
			ok := "yes"
			if !(diff <= m.Bound) {
				ok, code = "NO", 1
			}
			fmt.Printf("| %s | %s (%s) | %.4g | %.4g | %.1f%% | %.0f%% | %s |\n",
				w.name, m.Name, m.Unit, x, y, 100*diff, 100*m.Bound, ok)
		}
		fmt.Printf("| %s | ops failed / attempted | %d / %d | %d / %d | | | %s |\n", w.name,
			ra.failed, ra.attempted, rb.failed, rb.attempted, map[bool]string{true: "yes", false: "NO"}[ra.failed+rb.failed == 0])
		if ra.failed+rb.failed > 0 {
			code = 1
		}
	}
	return code
}
