// Command bench is the repository's benchmark: it builds fusiond and
// fusionworkerd from the checkout, generates a workload's inputs from a
// seed, drives the daemons through fusionclient in a closed loop, checks
// every returned image against core.Sequential, and prints the metrics
// BENCHMARK.json declares. See README.md.
//
//	bash bench/run.sh --workload scene_pct --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh --workload jobs_mixed --seed 1 --seconds 15 --trace 1
//	bash bench/run.sh -aa
//	bash bench/run.sh -list
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
)

func main() {
	name := flag.String("workload", "", "workload to run (see -list)")
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 15, "length of the timed window")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the separate traced run, per-layer metrics")
	list := flag.Bool("list", false, "print the workload and metric names and exit")
	aa := flag.Bool("aa", false, "run every workload twice on this build and compare against the bounds")
	flag.Parse()

	if *list {
		printList()
		return
	}
	os.Exit(run(*name, *seed, *seconds, *trace == 1, *aa))
}

func printList() {
	for _, w := range workloads {
		fmt.Println("workload", w.name)
	}
	for _, m := range endToEnd {
		fmt.Println("end_to_end", m.Name, m.Unit)
	}
	for _, m := range perLayer {
		fmt.Println("per_layer", m.Name, m.Unit)
	}
}

func run(name string, seed int64, seconds int, traced, aa bool) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if seconds < 1 {
		return fail(fmt.Errorf("-seconds %d: need at least 1", seconds))
	}
	var todo []*workload
	if aa {
		todo = workloads
	} else if w := findWorkload(name); w != nil {
		todo = []*workload{w}
	} else {
		return fail(fmt.Errorf("unknown workload %q (see -list)", name))
	}
	for _, w := range todo {
		if w.clients > runtime.NumCPU() {
			return fail(fmt.Errorf("workload %s needs %d clients but this host has %d CPUs: the clients would contend with the daemon they measure",
				w.name, w.clients, runtime.NumCPU()))
		}
	}

	root, err := repoRoot()
	if err != nil {
		return fail(err)
	}
	out := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return fail(err)
	}
	work, err := os.MkdirTemp(out, "work-")
	if err != nil {
		return fail(err)
	}
	logFile, err := os.Create(filepath.Join(out, "daemons.log"))
	if err != nil {
		return fail(err)
	}
	defer logFile.Close()
	e := &env{root: root, work: work, jan: &janitor{}, log: logFile}
	e.jan.addDir(work)
	defer e.jan.sweep()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cancel()
		e.jan.sweep()
		os.Exit(130)
	}()

	if e.fusiond, e.workerd, err = buildDaemons(root, work); err != nil {
		return fail(err)
	}
	if aa {
		return e.runAA(ctx, seed, seconds)
	}
	var rep *report
	if traced {
		rep, err = e.traceRun(ctx, todo[0], seed, seconds)
	} else {
		rep, err = e.measure(ctx, todo[0], seed, seconds)
	}
	if err != nil {
		return fail(err)
	}
	if err := rep.print(root); err != nil {
		return fail(err)
	}
	if rep.failed > 0 {
		return 1
	}
	return 0
}

// print writes the run header, every metric as "name value unit", and
// as the last line the JSON object the driver reads.
func (r *report) print(root string) error {
	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	if err := r.values.checkAgainst(defs); err != nil {
		return err
	}
	h := hostHeader(root)
	keys := make([]string, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("# workload %s seed %d seconds %d trace %v\n", r.w.name, r.seed, r.seconds, r.traced)
	for _, k := range keys {
		fmt.Printf("# %s %v\n", k, h[k])
	}
	fmt.Printf("# clients %d warmup_ops %d timed_ops %d tail_percentile p%d\n",
		r.w.clients, r.warmupOps, r.timedOps, r.w.tailPct)
	for _, reason := range r.reasons {
		fmt.Println("# FAILED", reason)
	}
	if r.note != "" {
		fmt.Println("# NOTE", r.note)
		fmt.Fprintln(os.Stderr, "bench: note:", r.note)
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]metric{}
	for _, d := range defs {
		fmt.Printf("%s %v %s\n", d.Name, r.values[d.Name], d.Unit)
		metrics[d.Name] = metric{r.values[d.Name], d.Unit}
	}
	fmt.Printf("ops_attempted %d count\nops_failed %d count\n", r.attempted, r.failed)
	line, err := json.Marshal(map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
