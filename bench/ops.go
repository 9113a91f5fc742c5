package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"image"
	"image/draw"
	"image/png"
	"math"
	"runtime"
	"sync"
	"time"

	"resilientfusion/fusionclient"
	"resilientfusion/internal/core"
)

// result is one completed (or failed) op as the client saw it.
type result struct {
	op         op
	start, end time.Time // just before submit → last PNG byte read
	png        []byte
	job        *fusionclient.Job // the terminal job resource
	err        error
}

func (r *result) latency() time.Duration { return r.end.Sub(r.start) }

// driver sends a stream's ops to one deployment.
type driver struct {
	dep     *deployment
	in      *inputs
	sceneID string
	rec     *recorder // nil when untraced
}

// do runs one op: submit, long-poll wait, fetch the PNG. Nothing else
// touches the daemon between the two clock reads.
func (d *driver) do(ctx context.Context, o op) (res result) {
	ctx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	res.op = o
	opts := &fusionclient.Options{Algorithm: fusionclient.String(o.alg)}
	if o.thr != 0 {
		opts.Threshold = fusionclient.Float(o.thr)
	}
	c := d.dep.client
	root := d.rec.begin("op", -1, o.idx)
	defer d.rec.end(root)
	res.start = time.Now()
	defer func() { res.end = time.Now() }()

	sp := d.rec.begin("fusionclient.submit", root, o.idx)
	var job *fusionclient.Job
	if o.cube < 0 {
		job, res.err = c.FuseScene(ctx, d.sceneID, opts)
	} else {
		job, res.err = c.SubmitHSIC(ctx, bytes.NewReader(d.in.hsic[o.cube]), opts)
	}
	d.rec.end(sp)
	if res.err != nil {
		return res
	}
	sp = d.rec.begin("fusionclient.wait", root, o.idx)
	job, res.err = c.Wait(ctx, job.ID)
	d.rec.end(sp)
	if res.err != nil {
		return res
	}
	res.job = job
	if job.State != fusionclient.StateDone {
		res.err = fmt.Errorf("job %s ended %s: %s", job.ID, job.State, job.Error)
		return res
	}
	sp = d.rec.begin("fusionclient.result_png", root, o.idx)
	res.png, res.err = c.ResultPNG(ctx, job.ID)
	d.rec.end(sp)
	return res
}

// run drives st with the given number of closed-loop clients; each
// client asks more before every op and stops at the first false.
func (d *driver) run(ctx context.Context, st *stream, clients int, more func() bool) []result {
	var (
		mu  sync.Mutex
		out []result
		wg  sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && more() {
				r := d.do(ctx, st.next())
				if d.rec != nil && r.job != nil {
					// Traced run only: the daemon's own stage spans for
					// this job, fetched outside the op's clock.
					sp := d.rec.begin("fusionclient.trace", -1, r.op.idx)
					_, _ = d.dep.client.Trace(ctx, r.job.ID) // load for the overhead figure; the stage sums come from the probes
					d.rec.end(sp)
				}
				mu.Lock()
				out = append(out, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// counted returns a more func that admits exactly n ops.
func counted(n int) func() bool {
	var mu sync.Mutex
	return func() bool {
		mu.Lock()
		defer mu.Unlock()
		n--
		return n >= 0
	}
}

// timed returns a more func that admits ops for d, and at least min.
func timed(d time.Duration, min int) func() bool {
	deadline := time.Now().Add(d)
	atLeast := counted(min)
	return func() bool { return atLeast() || time.Now().Before(deadline) }
}

// pixelSHA hashes an image's pixels as 8-bit RGBA rows, so equal
// pictures hash equal however they are stored or compressed.
func pixelSHA(img image.Image) [32]byte {
	b := img.Bounds()
	rgba := image.NewRGBA(image.Rect(0, 0, b.Dx(), b.Dy()))
	draw.Draw(rgba, rgba.Bounds(), img, b.Min, draw.Src)
	return sha256.Sum256(rgba.Pix)
}

// refKey names one reference computation: an input and the canonical
// options the daemon echoed. The tile algorithms ignore the screening
// threshold, so their key leaves it out and cold ops share references.
type refKey struct {
	cube                 int
	alg                  string
	thrBits              uint64
	workers, gran, comps int
}

func keyOf(o op, jo *fusionclient.JobOptions) refKey {
	k := refKey{cube: o.cube, alg: jo.Algorithm, workers: jo.Workers, gran: jo.Granularity, comps: jo.Components}
	if jo.Algorithm == "pct" {
		k.thrBits = math.Float64bits(jo.Threshold)
	}
	return k
}

// verify checks every result against core.Sequential run in process on
// the same input at the job's echoed canonical options (first op of each
// distinct pair), and every repeat against its original's bytes. It
// returns the indices of the results that failed, with the reasons.
func verify(in *inputs, results []result) map[int]error {
	failed := map[int]error{}
	byIdx := map[int]*result{}
	for i := range results {
		byIdx[results[i].op.idx] = &results[i]
	}

	// Distinct PNG byte strings are decoded once; distinct references
	// are computed once, nproc at a time.
	type pngInfo struct {
		pix [32]byte
		err error
	}
	decoded := map[[32]byte]*pngInfo{}
	sums := make([][32]byte, len(results)) // SHA-256 of each result's PNG bytes
	want := map[refKey]bool{}
	for i := range results {
		r := &results[i]
		if r.err != nil {
			failed[r.op.idx] = r.err
			continue
		}
		if r.job.Options == nil {
			failed[r.op.idx] = errors.New("job carries no canonical options echo")
			continue
		}
		sum := sha256.Sum256(r.png)
		sums[i] = sum
		if decoded[sum] == nil {
			info := &pngInfo{}
			if img, err := png.Decode(bytes.NewReader(r.png)); err != nil {
				info.err = err
			} else {
				info.pix = pixelSHA(img)
			}
			decoded[sum] = info
		}
		want[keyOf(r.op, r.job.Options)] = true
	}
	keys := make(chan refKey)
	var (
		wg sync.WaitGroup
		mu sync.Mutex
	)
	refs := map[refKey][32]byte{}
	refErr := map[refKey]error{}
	for g := 0; g < runtime.NumCPU(); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range keys {
				cube := in.sceneCube
				if k.cube >= 0 {
					cube = in.cubes[k.cube]
				}
				res, err := core.Sequential(cube, core.Options{
					Workers: k.workers, Granularity: k.gran, Components: k.comps,
					Threshold: math.Float64frombits(k.thrBits), Algorithm: k.alg, Parallelism: 1,
				})
				var sum [32]byte
				if err == nil {
					sum = pixelSHA(res.Image)
				}
				mu.Lock()
				refs[k], refErr[k] = sum, err
				mu.Unlock()
			}
		}()
	}
	for k := range want {
		keys <- k
	}
	close(keys)
	wg.Wait()

	for i := range results {
		r := &results[i]
		if r.err != nil || r.job.Options == nil {
			continue
		}
		k := keyOf(r.op, r.job.Options)
		info := decoded[sums[i]]
		switch {
		case info.err != nil:
			failed[r.op.idx] = fmt.Errorf("result is not a PNG: %w", info.err)
		case refErr[k] != nil:
			failed[r.op.idx] = fmt.Errorf("reference: %w", refErr[k])
		case info.pix != refs[k]:
			failed[r.op.idx] = fmt.Errorf("pixels differ from core.Sequential at %+v", *r.job.Options)
		}
		if orig := byIdx[r.op.orig]; r.op.orig >= 0 && orig != nil && orig.err == nil && !bytes.Equal(orig.png, r.png) {
			failed[r.op.idx] = fmt.Errorf("repeat of op %d returned different bytes", r.op.orig)
		}
	}
	return failed
}
