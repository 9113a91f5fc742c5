package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"

	"resilientfusion/fusionclient"
)

// setupRepeats is how many times a run boots, registers and warms up:
// setup_s is the median, and the last deployment serves the timed ops.
const setupRepeats = 3

// env is what every run of this process shares.
type env struct {
	root, work       string
	fusiond, workerd string
	jan              *janitor
	// log receives the daemons' stderr (debug level: it carries the
	// reason for every cluster fallback), kept as bench/out/daemons.log.
	log *os.File
}

// report is one run's outcome.
type report struct {
	w         *workload
	seed      int64
	seconds   int
	traced    bool
	values    values
	attempted int
	failed    int
	reasons   []string // first few failure reasons
	note      string   // what a reader of the numbers should know
	// timedOps / warmupOps are the op counts behind the numbers.
	timedOps, warmupOps int
}

// deployed is a set-up deployment ready for timed ops.
type deployed struct {
	dep     *deployment
	drv     *driver
	st      *stream
	warm    []result
	setupS  float64
	regSecs float64 // scene registration part of setupS (0 without a scene)
}

// setUp boots the workload's daemons, registers the scene, and runs the
// warm-up ops. Its clock covers daemon exec → ready, registration and
// warm-up; go build and input generation happened before.
func (e *env) setUp(ctx context.Context, w *workload, in *inputs, seed int64) (*deployed, error) {
	dep, err := e.boot(ctx, w)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	d := &deployed{dep: dep, st: newStream(w, seed), drv: &driver{dep: dep, in: in}}
	if w.scene {
		info, err := registerScene(ctx, dep.client, in.sceneHdr, in.scenePath)
		if err != nil {
			return nil, fmt.Errorf("register scene: %w", err)
		}
		d.drv.sceneID = info.ID
		d.regSecs = time.Since(t0).Seconds()
	}
	d.warm = d.drv.run(ctx, d.st, w.clients, counted(w.warmup))
	d.setupS = dep.readyS + time.Since(t0).Seconds()
	return d, nil
}

func registerScene(ctx context.Context, c *fusionclient.Client, hdr, path string) (*fusionclient.SceneInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return c.RegisterScene(ctx, hdr, f)
}

// setUpMedian sets up setupRepeats times, keeps the last deployment and
// returns it with the median set-up time.
func (e *env) setUpMedian(ctx context.Context, w *workload, in *inputs, seed int64) (*deployed, float64, error) {
	var times []float64
	for i := 0; ; i++ {
		d, err := e.setUp(ctx, w, in, seed)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, d.setupS)
		if i == setupRepeats-1 {
			return d, median(times), nil
		}
		d.dep.shutdown()
	}
}

// window brackets timed ops with the two reads the untraced run allows
// itself beyond the ops: /v2/stats and /proc.
type window struct {
	stats     *fusionclient.Stats
	user, sys float64
}

func (d *deployed) read(ctx context.Context) (window, error) {
	st, err := d.dep.client.Stats(ctx)
	if err != nil {
		return window{}, err
	}
	u, s, err := d.dep.cpu()
	return window{st, u, s}, err
}

// clusterNote says how many jobs between two snapshots did not run at
// steady-state replication: they fell back to the in-process pool, or
// lost and regenerated a replica. Their images are still checked like
// any other, so they are not failed ops; the run's numbers just include
// that many ops that are not pure replication-2 work (see README,
// "Known daemon fault").
func clusterNote(before, after *fusionclient.Stats) string {
	if after.Cluster == nil || before.Cluster == nil {
		return "daemon reports no cluster section"
	}
	fb := after.Cluster.Fallbacks - before.Cluster.Fallbacks
	rg := after.Cluster.Regenerations - before.Cluster.Regenerations
	if fb == 0 && rg == 0 {
		return ""
	}
	return fmt.Sprintf("%d jobs fell back to the in-process pool, %d replicas regenerated (reasons in bench/out/daemons.log)", fb, rg)
}

// measure is the untraced run: set up, drive the closed loop for the
// given seconds, check every output, and derive the end-to-end metrics.
func (e *env) measure(ctx context.Context, w *workload, seed int64, seconds int) (*report, error) {
	dir, err := os.MkdirTemp(e.work, "inputs-")
	if err != nil {
		return nil, err
	}
	e.jan.addDir(dir)
	in, err := generateInputs(w, seed, dir)
	if err != nil {
		return nil, fmt.Errorf("generate inputs: %w", err)
	}
	d, setupS, err := e.setUpMedian(ctx, w, in, seed)
	if err != nil {
		return nil, err
	}
	defer d.dep.shutdown()

	before, err := d.read(ctx)
	if err != nil {
		return nil, err
	}
	timedRes := d.drv.run(ctx, d.st, w.clients, timed(time.Duration(seconds)*time.Second, 0))
	after, err := d.read(ctx)
	if err != nil {
		return nil, err
	}
	if len(timedRes) == 0 {
		return nil, errors.New("no op was attempted in the timed window")
	}

	rep := &report{w: w, seed: seed, seconds: seconds, attempted: len(timedRes),
		timedOps: len(timedRes), warmupOps: len(d.warm), values: values{}}
	bad := verify(in, append(d.warm, timedRes...))
	if w.cluster {
		rep.note = clusterNote(before.stats, after.stats)
	}
	var lat []float64
	first, last := timedRes[0].start, timedRes[0].end
	for _, r := range timedRes {
		if r.start.Before(first) {
			first = r.start
		}
		if r.end.After(last) {
			last = r.end
		}
		if err := bad[r.op.idx]; err != nil {
			rep.failed++
			if len(rep.reasons) < 5 {
				rep.reasons = append(rep.reasons, fmt.Sprintf("op %d: %v", r.op.idx, err))
			}
			continue
		}
		lat = append(lat, ms(r.latency()))
	}
	// A failed warm-up op is not a timed attempt, but it is a wrong
	// output all the same.
	for _, r := range d.warm {
		if err := bad[r.op.idx]; err != nil {
			rep.failed++
			rep.attempted++
			rep.reasons = append(rep.reasons, fmt.Sprintf("warm-up op %d: %v", r.op.idx, err))
		}
	}
	sort.Float64s(lat)
	good := float64(len(lat))
	rep.values["setup_s"] = setupS
	rep.values["op_p50_ms"] = percentile(lat, 50)
	rep.values["op_tail_ms"] = percentile(lat, w.tailPct)
	rep.values["ops_per_s"] = good / last.Sub(first).Seconds()
	cpu := (after.user - before.user) + (after.sys - before.sys)
	if good > 0 {
		rep.values["cpu_ms_per_op"] = cpu * 1000 / good
	} else {
		rep.values["cpu_ms_per_op"] = 0
	}
	return rep, nil
}

// hostHeader is recorded with every output.
func hostHeader(root string) map[string]any {
	commit := "unknown" // the driver's checkout is not a git repository
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"commit":     commit,
	}
}
