package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"

	"resilientfusion/internal/fuse"
	"resilientfusion/internal/perfmodel"
	"resilientfusion/internal/resilient"
	"resilientfusion/internal/scplib"
)

// StartJob is the one way a fusion job is wired: on a dedicated system
// (Fuse, the simulated cluster) and on a long-lived one shared with
// other jobs (the service). On a scplib.ClusterSystem the worker
// replicas spawn into remote fusionworkerd processes (the manager and
// guardian stay on the coordinator, node 0; worker groups ship as
// RemoteBody specs whose inner kind is WorkerBodyKind); on a RealSystem
// or SimSystem every thread is local. Because workerState is a
// deterministic function of its message stream and the per-replica
// kernels reduce over fixed shard grids, the mosaic is bit-identical
// either way for the same Options — the property the chaos test asserts
// under SIGKILL.

// WorkerBodyKind names the fusion worker loop in worker-side registries.
const WorkerBodyKind = "core.worker"

// worker args layout (little-endian):
//
//	manager     int32
//	threshold   float64 bits
//	parallelism int32
//	algorithm   uint32 (fuse.ID)
const workerArgsBytes = 20

func encodeWorkerArgs(manager resilient.LogicalID, threshold float64, parallelism int, alg fuse.ID) []byte {
	buf := make([]byte, workerArgsBytes)
	binary.LittleEndian.PutUint32(buf[0:], uint32(manager))
	binary.LittleEndian.PutUint64(buf[4:], math.Float64bits(threshold))
	binary.LittleEndian.PutUint32(buf[12:], uint32(int32(parallelism)))
	binary.LittleEndian.PutUint32(buf[16:], uint32(alg))
	return buf
}

func decodeWorkerArgs(b []byte) (resilient.LogicalID, float64, int, string, error) {
	if len(b) < workerArgsBytes {
		return 0, 0, 0, "", fmt.Errorf("core: worker args %d bytes", len(b))
	}
	alg, ok := fuse.ByID(fuse.ID(binary.LittleEndian.Uint32(b[16:])))
	if !ok {
		return 0, 0, 0, "", fmt.Errorf("core: worker args carry unknown algorithm id %d",
			binary.LittleEndian.Uint32(b[16:]))
	}
	return resilient.LogicalID(int32(binary.LittleEndian.Uint32(b[0:]))),
		math.Float64frombits(binary.LittleEndian.Uint64(b[4:])),
		int(int32(binary.LittleEndian.Uint32(b[12:]))), alg.Name, nil
}

// RegisterWorkerBodies installs the fusion worker factory into a
// resilient inner-body registry. fusionworkerd calls this once at
// startup; the cost model is only flops bookkeeping for heartbeat
// interleaving on the real runtime, so the default model is always
// correct here.
func RegisterWorkerBodies(reg *resilient.BodyRegistry) {
	reg.Register(WorkerBodyKind, func(args []byte) (resilient.RBody, error) {
		manager, threshold, parallelism, algorithm, err := decodeWorkerArgs(args)
		if err != nil {
			return nil, err
		}
		return workerBody(manager, algorithm, threshold, parallelism, perfmodel.Default()), nil
	})
}

// RunningJob is a started fusion job. On a running system its threads
// execute at once and Wait blocks for the manager protocol to finish; on
// a dedicated system that has not started, Run drives the system first.
type RunningJob struct {
	rt   *resilient.Runtime
	res  *Result
	done chan struct{}

	mu  sync.Mutex
	err error // the job's first failure
}

// fail records err unless the job already failed.
func (j *RunningJob) fail(err error) {
	j.mu.Lock()
	if j.err == nil {
		j.err = err
	}
	j.mu.Unlock()
}

// StartJob wires a fusion job onto sys, placing worker replicas on
// worker nodes 1..opts.Workers and the manager plus guardian on node 0.
// On a running system the job starts at once; on a dedicated system
// that has not started, call Run. base offsets every physical thread ID
// the job's runtime allocates, so concurrent jobs on one system cannot
// collide (a dedicated system passes 0).
//
// Node layout: worker i's primary replica runs on node i, and replica k
// on node 1+((i-1+k) mod Workers) — with replication 2 every worker node
// hosts exactly two replicas, which is how the paper's "factor of two"
// replication cost arises.
//
// Workers are monitored groups whenever the runtime can act on a
// detection: at replication above 1, or with regeneration on. At
// replication 1 without regeneration — the paper's "no resiliency"
// series — they are unmonitored singletons: there a detection could only
// kill a worker that is busy in a long kernel.
//
// Every failure ends the job through Wait, never as a system error: a
// manager error or panic, and the error or panic of a worker running in
// this process, which also stops the manager at once instead of leaving
// it to wait out RequestTimeout.
//
// Workers are added before the manager so that, on a live system, every
// worker phys ID routes somewhere by the time the manager's first
// screening request is sent.
func StartJob(sys scplib.System, src CubeSource, opts Options, base scplib.ThreadID) (*RunningJob, error) {
	opts = opts.withDefaults()
	if err := validateSource(src); err != nil {
		return nil, err
	}
	if opts.Workers < 1 {
		return nil, fmt.Errorf("%w: Workers=%d", ErrBadOptions, opts.Workers)
	}
	if opts.Replication < 1 {
		return nil, fmt.Errorf("%w: Replication=%d", ErrBadOptions, opts.Replication)
	}
	if opts.Components < 3 {
		return nil, fmt.Errorf("%w: need >=3 components for color mapping", ErrBadOptions)
	}
	alg, ok := fuse.Lookup(opts.Algorithm)
	if !ok {
		return nil, fmt.Errorf("%w: unknown algorithm %q (have %v)",
			ErrBadOptions, opts.Algorithm, fuse.Names())
	}
	if opts.Parallelism == 0 {
		opts.Parallelism = SharedKernelParallelism(opts.Workers)
	}

	rcfg := resilient.Config{
		Nodes:           opts.Workers + 1,
		HeartbeatPeriod: opts.HeartbeatPeriod,
		FailTimeout:     opts.FailTimeout,
		Regenerate:      opts.Regenerate,
		GuardianNode:    0,
		PhysBase:        base,
	}
	rt, err := resilient.New(sys, rcfg)
	if err != nil {
		return nil, err
	}
	rt.SetTrace(opts.Trace)
	job := &RunningJob{rt: rt, res: &Result{}, done: make(chan struct{})}
	args := encodeWorkerArgs(ManagerID, opts.Threshold, opts.Parallelism, alg.ID)
	monitored := opts.Replication > 1 || opts.Regenerate
	for w := 1; w <= opts.Workers; w++ {
		lid := resilient.LogicalID(w)
		name := fmt.Sprintf("worker%d", w)
		inner := workerBody(ManagerID, opts.Algorithm, opts.Threshold, opts.Parallelism, opts.Cost)
		body := func(env resilient.REnv) error {
			err := recovered("worker", func() error { return inner(env) })
			if err == nil || errors.Is(err, resilient.ErrKilled) {
				return err
			}
			job.fail(fmt.Errorf("%s: %w", name, err))
			rt.KillReplica(ManagerID, 0)
			return nil
		}
		placements := make([]int, opts.Replication)
		for k := range placements {
			placements[k] = 1 + (w-1+k)%opts.Workers
		}
		if err := rt.Add(lid, name, placements, monitored, body, WorkerBodyKind, args); err != nil {
			return nil, err
		}
	}

	mgr := func(env resilient.REnv) error {
		defer close(job.done)
		defer rt.Shutdown()
		err := recovered("manager", func() error { return runManager(env, src, opts, job.res) })
		if err == nil && !job.res.completed {
			err = errors.New("core: fusion did not complete")
		}
		if err != nil {
			job.fail(err)
		}
		return nil
	}
	if err := rt.Add(ManagerID, "manager", []int{0}, false, mgr, "", nil); err != nil {
		return nil, err
	}
	if err := rt.Start(); err != nil {
		// Failed mid-wiring (typically a worker node without quorum):
		// tear down whatever was spawned so the shared system is clean.
		rt.Shutdown()
		return nil, err
	}
	return job, nil
}

// Runtime exposes the job's resiliency runtime (failure injection,
// stats, transport liveness hooks).
func (j *RunningJob) Runtime() *resilient.Runtime { return j.rt }

// Run drives a dedicated system — one that hosts only this job and has
// not started — to completion, then returns Wait's result. A nil sys.Run
// means every thread has returned, the manager's included, so Wait does
// not block; a manager killed before its first step leaves the workers
// blocked, which the system reports as its own error.
func (j *RunningJob) Run() (*Result, error) {
	if err := j.rt.Run(); err != nil {
		return nil, err
	}
	return j.Wait()
}

// Wait blocks for completion and returns the fusion result.
func (j *RunningJob) Wait() (*Result, error) {
	<-j.done
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return nil, j.err
	}
	return j.res, nil
}

// recovered runs f, turning a panic into an error: the system's thread
// wrapper would otherwise record it out of the job's sight.
func recovered(who string, f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: %s panic: %v", who, r)
		}
	}()
	return f()
}
