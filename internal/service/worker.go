package service

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"resilientfusion/internal/core"
	"resilientfusion/internal/fuse"
	"resilientfusion/internal/perfmodel"
	"resilientfusion/internal/resilient"
	"resilientfusion/internal/scplib"
	"resilientfusion/internal/telemetry"
)

// kindJobErr is the service-level message kind a pooled worker uses to
// report a per-job failure (malformed payload) back to that job's
// manager, which fails the job instead of timing out through reissues.
// It sits above the core application kinds and below resilient.CtrlBase.
const kindJobErr uint16 = 0x7F00

// Every message between a job manager and the pooled workers wraps the
// core wire payload in a 32-byte envelope: the job ID (multiplexing many
// jobs over one worker) and, on the manager→worker direction, the job's
// screening threshold, kernel parallelism and fusion algorithm (a pooled
// worker learns each job's configuration from its first message rather
// than at spawn time).
const envelopeBytes = 32

// The envelope is stamped into a frame's headroom; this fails to compile
// if the resilient layer's reservation ever shrinks below it.
var _ [resilient.Headroom - envelopeBytes]struct{}

// putEnvelope stamps the envelope into the headroom of frame (a
// resilient.NewFrame buffer with the inner payload appended) and returns
// the enveloped message — the frame's own bytes, not a copy.
func putEnvelope(frame []byte, jobID uint64, threshold float64, parallelism int, alg fuse.ID) []byte {
	buf := frame[resilient.Headroom-envelopeBytes:]
	binary.LittleEndian.PutUint64(buf, jobID)
	binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(threshold))
	binary.LittleEndian.PutUint64(buf[16:], uint64(int64(parallelism)))
	binary.LittleEndian.PutUint64(buf[24:], uint64(alg))
	return buf
}

// errEnvelope builds a kindJobErr message: the error text under the job's
// envelope.
func errEnvelope(jobID uint64, msg string) []byte {
	return putEnvelope(resilient.FrameOf([]byte(msg)), jobID, 0, 0, 0)
}

func decodeEnvelope(p []byte) (jobID uint64, threshold float64, parallelism int, alg fuse.ID, inner []byte, err error) {
	if len(p) < envelopeBytes {
		return 0, 0, 0, 0, nil, fmt.Errorf("service: short envelope (%d bytes)", len(p))
	}
	jobID = binary.LittleEndian.Uint64(p)
	threshold = math.Float64frombits(binary.LittleEndian.Uint64(p[8:]))
	parallelism = int(int64(binary.LittleEndian.Uint64(p[16:])))
	alg = fuse.ID(binary.LittleEndian.Uint64(p[24:]))
	return jobID, threshold, parallelism, alg, p[envelopeBytes:], nil
}

// envelopeJobID peeks the job ID without validation (message filtering).
func envelopeJobID(p []byte) (uint64, bool) {
	if len(p) < envelopeBytes {
		return 0, false
	}
	return binary.LittleEndian.Uint64(p), true
}

// stageHistogram maps a request kind to its latency histogram (nil for
// kinds that are not kernel stages).
func stageHistogram(met *poolMetrics, kind uint16) *telemetry.Histogram {
	if met == nil {
		return nil
	}
	switch kind {
	case core.KindScreenReq:
		return met.stageScreen
	case core.KindCovReq:
		return met.stageCovariance
	case core.KindTransformReq:
		return met.stageTransform
	case core.KindFuseReq:
		return met.stageFuse
	}
	return nil
}

// poolWorkerBody is a long-lived fusion worker: it serves the screening,
// covariance and transform steps for many jobs concurrently, holding one
// core.WorkerState per in-flight job. Job state is created lazily on the
// job's first message and retired on its KindStop — the manager sends one
// per worker when the job ends (success or failure), so the pool pays
// system construction and thread spawn once, not per cube.
//
// met records per-stage kernel latency (nil disables). The timing wraps
// ws.Handle from outside — the worker stays a deterministic function of
// its message stream, so outputs are bit-identical with metrics on.
func poolWorkerBody(met *poolMetrics) scplib.Body {
	return func(env scplib.Env) error {
		states := make(map[uint64]*core.WorkerState)
		// Worker-lifetime kernel buffers, shared across the jobs this
		// thread serves: the K≈7 screened-covariance path reuses one sum
		// matrix instead of allocating n×n per job.
		scratch := core.NewScratch()
		for {
			m, err := env.Recv()
			if err != nil {
				return err // killed at pool close
			}
			jobID, threshold, parallelism, algID, inner, err := decodeEnvelope(m.Payload)
			if err != nil {
				continue // not job-addressable; nothing to fail
			}
			if m.Kind == core.KindStop {
				delete(states, jobID)
				continue
			}
			ws := states[jobID]
			if ws == nil {
				alg, ok := fuse.ByID(algID)
				if !ok {
					// A job can never be enqueued with an unknown algorithm
					// (canonicalOptions validates), so this is wire-level
					// corruption: fail the job, keep the worker.
					msg := fmt.Sprintf("service: envelope carries unknown algorithm id %d", algID)
					if serr := env.Send(m.From, kindJobErr, errEnvelope(jobID, msg)); serr != nil {
						return serr
					}
					continue
				}
				// Compute is a no-op on the real runtime, so the cost
				// model is irrelevant here; the default keeps WorkerState
				// construction uniform with the resilient path.
				ws = core.NewWorkerState(alg.Name, threshold, parallelism, perfmodel.Default())
				ws.UseScratch(scratch)
				states[jobID] = ws
			}
			var t0 time.Time
			hist := stageHistogram(met, m.Kind)
			if hist != nil {
				t0 = time.Now()
			}
			replyKind, reply, flops, err := ws.Handle(m.Kind, inner)
			if hist != nil {
				hist.Observe(time.Since(t0).Seconds())
			}
			if err != nil {
				// Fail this job fast without taking the worker (and every
				// other job multiplexed on it) down.
				if serr := env.Send(m.From, kindJobErr, errEnvelope(jobID, err.Error())); serr != nil {
					return serr
				}
				continue
			}
			if replyKind == 0 {
				continue
			}
			if flops > 0 {
				if err := env.Compute(flops); err != nil {
					return err
				}
			}
			if err := env.Send(m.From, replyKind, putEnvelope(reply, jobID, 0, 0, 0)); err != nil {
				return err
			}
		}
	}
}
