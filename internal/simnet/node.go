package simnet

import (
	"fmt"
	"math"
)

// Node models one workstation's CPU with egalitarian processor sharing:
// when k computations are active concurrently, each proceeds at Rate/k.
// This is what makes replication level 2 cost the paper's "factor of two"
// — a shadow thread resident on the same machine halves the primary's
// effective rate while both are computing.
type Node struct {
	x    *Exec
	ID   int
	Name string
	// Rate is the compute rate of one core in flops per virtual second.
	Rate float64
	// Cores is the processor count (0 and 1 both mean a uniprocessor).
	// The paper's platform is "a network of single- and multi-processor
	// PC's/workstations"; with k jobs on c cores each job runs at
	// Rate·min(1, c/k).
	Cores int
	// Interference is the fractional throughput loss per *additional*
	// time-shared computation beyond the core count: with k jobs on c
	// cores each runs at Rate·min(1,c/k)·(1−Interference)^(k−c) for
	// k > c. It models the cache/TLB/context-switch cost of
	// multiprogramming 1990s workstations — the paper's "approximately
	// 10%" resiliency overhead beyond the factor-of-two replication cost
	// arises here, because replication level 2 puts two replicas on
	// every node. Zero (the default) gives egalitarian sharing with no
	// loss.
	Interference float64

	failed     bool
	jobs       map[*cpuJob]struct{}
	lastUpdate float64
	residents  map[*Proc]struct{}
}

type cpuJob struct {
	p         *Proc
	remaining float64 // flops
	done      *event  // scheduled completion (cancellable)
	tok       uint64
}

// NewNode creates a node with the given flops-per-second rate.
func (x *Exec) NewNode(id int, name string, rate float64) *Node {
	if rate <= 0 {
		panic(fmt.Sprintf("simnet: node %s rate %g", name, rate))
	}
	return &Node{
		x: x, ID: id, Name: name, Rate: rate,
		jobs:      make(map[*cpuJob]struct{}),
		residents: make(map[*Proc]struct{}),
	}
}

// Failed reports whether the node has failed.
func (n *Node) Failed() bool { return n.failed }

// attach registers a resident process (killed if the node fails).
func (n *Node) attach(p *Proc) { n.residents[p] = struct{}{} }

func (n *Node) detach(p *Proc) { delete(n.residents, p) }

// Fail marks the node failed and kills every resident process. Active
// computations unwind with ErrKilled.
func (n *Node) Fail() {
	if n.failed {
		return
	}
	n.failed = true
	n.x.tracef("node %s failed", n.Name)
	for p := range n.residents {
		p.Kill()
	}
}

// share returns the per-job compute rate under processor sharing with
// multiprogramming interference.
func (n *Node) share() float64 {
	k := len(n.jobs)
	cores := n.Cores
	if cores < 1 {
		cores = 1
	}
	if k <= cores {
		return n.Rate
	}
	r := n.Rate * float64(cores) / float64(k)
	if n.Interference > 0 {
		for i := cores; i < k; i++ {
			r *= 1 - n.Interference
		}
	}
	return r
}

// advance settles all running jobs up to the current time at the rate
// that has applied since lastUpdate.
func (n *Node) advance() {
	dt := n.x.now - n.lastUpdate
	if dt > 0 && len(n.jobs) > 0 {
		r := n.share()
		for j := range n.jobs {
			j.remaining -= dt * r
			if j.remaining < 0 {
				j.remaining = 0
			}
		}
	}
	n.lastUpdate = n.x.now
}

// reschedule recomputes every job's completion event for the current
// degree of sharing.
func (n *Node) reschedule() {
	r := n.share()
	for j := range n.jobs {
		n.x.Cancel(j.done)
		eta := j.remaining / r
		if math.IsNaN(eta) || math.IsInf(eta, 0) {
			eta = 0
		}
		job := j
		job.done = n.x.After(eta, func() { n.complete(job) })
	}
}

// completionSlackFlops absorbs float rounding between scheduled completion
// times and settled work: `now + eta` loses up to one ulp of `now`, which
// at cluster rates leaves ~1e-6 flops of phantom remainder. A thousandth
// of a flop is far below measurement relevance but far above that noise.
const completionSlackFlops = 1e-3

// complete finishes a job: settle, remove, wake the owner, re-plan peers.
func (n *Node) complete(j *cpuJob) {
	if _, ok := n.jobs[j]; !ok {
		return
	}
	n.advance()
	// Re-plan only when real work remains AND its duration is still
	// representable in virtual time; otherwise rescheduling would fire
	// at the same instant forever (an event livelock).
	if j.remaining > completionSlackFlops {
		if eta := j.remaining / n.share(); n.x.now+eta > n.x.now {
			n.reschedule()
			return
		}
	}
	delete(n.jobs, j)
	n.reschedule()
	j.p.wake(j.tok)
}

// Compute blocks p while flops of work execute on this node under
// processor sharing. It returns ErrNodeFailed if the node is failed when
// the call is made, and ErrKilled if p is killed mid-computation.
func (n *Node) Compute(p *Proc, flops float64) error {
	if err := p.checkKilled(); err != nil {
		return err
	}
	if n.failed {
		return fmt.Errorf("%w: %s", ErrNodeFailed, n.Name)
	}
	if flops <= 0 {
		return nil
	}
	n.advance()
	tok := p.beginWait()
	j := &cpuJob{p: p, remaining: flops, tok: tok}
	n.jobs[j] = struct{}{}
	n.reschedule()
	p.yield()
	// Either the job completed (removed by complete) or we were killed;
	// in the latter case remove the job so peers speed back up.
	if _, live := n.jobs[j]; live {
		n.advance()
		delete(n.jobs, j)
		n.reschedule()
	}
	return p.checkKilled()
}
