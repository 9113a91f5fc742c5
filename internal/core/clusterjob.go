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

// Jobs on a long-lived system: the same 8-step fusion protocol as
// NewJobSource, started on a system that is already running and shared
// with other jobs. On a scplib.ClusterSystem the worker replicas spawn
// into remote fusionworkerd processes (the manager and guardian stay on
// the coordinator, node 0; worker groups ship as RemoteBody specs whose
// inner kind is WorkerBodyKind); on a plain RealSystem every thread is a
// local goroutine. Because workerState is a deterministic function of
// its message stream and the per-replica kernels reduce over fixed shard
// grids, the mosaic is bit-identical either way for the same Options —
// the property the chaos test asserts under SIGKILL.

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

// RunningJob is a fusion job started on a long-lived system. Unlike Job
// (whose caller drives sys.Run for a dedicated system), a RunningJob's
// threads execute immediately on the already-running system; Wait blocks
// for the manager protocol to finish.
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

// StartJob wires a fusion job onto a running system, placing worker
// replicas on worker nodes 1..opts.Workers and the manager plus guardian
// locally. base offsets every physical thread ID the job's runtime
// allocates, so concurrent jobs on one system cannot collide.
//
// Workers are monitored groups whenever the runtime can act on a
// detection: at replication above 1, or with regeneration on. At
// replication 1 without regeneration — the paper's "no resiliency"
// series, which the service runs in process — they are unmonitored
// singletons, as in NewJobSource: there a detection could only kill a
// worker that is busy in a long kernel.
//
// Every failure ends the job through Wait, never as a system error: a
// manager error or panic, and the error or panic of a worker running in
// this process, which also stops the manager at once instead of leaving
// it to wait out RequestTimeout.
//
// Spawn order matters on a live system: workers are added before the
// manager so that by the time the manager's first screening request is
// sent, every worker phys ID routes somewhere. (NewJobSource adds the
// manager first; that order is only safe because its system has not
// started yet.)
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
		Replication:     opts.Replication,
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
		if monitored {
			placements := make([]int, opts.Replication)
			for k := 0; k < opts.Replication; k++ {
				placements[k] = 1 + (w-1+k)%opts.Workers
			}
			err = rt.AddGroupRemote(lid, name, placements, body, WorkerBodyKind, args)
		} else {
			err = rt.AddSingletonRemote(lid, name, w, body, WorkerBodyKind, args)
		}
		if err != nil {
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
	if err := rt.AddSingleton(ManagerID, "manager", 0, mgr); err != nil {
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
