// Package spectral implements spectral-angle screening and classification —
// step 1 and 2 of the paper's algorithm. Screening reduces a set of pixel
// vectors to a "unique set" in which no two members are within a spectral
// angle threshold of each other. Computing PCT statistics over the unique
// set instead of the full image prevents numerically dominant materials
// (trees) from swamping rare ones (a mechanized vehicle).
package spectral

import (
	"errors"
	"fmt"
	"math"

	"resilientfusion/internal/linalg"
)

// DefaultThreshold is the spectral angle threshold in radians used when a
// caller passes 0. Roughly 5.7 degrees, a typical SAM separability scale
// for HYDICE-era data.
const DefaultThreshold = 0.1

// ErrBadThreshold is returned for thresholds outside (0, π].
var ErrBadThreshold = errors.New("spectral: threshold must be in (0, π]")

// UniqueSet is a collection of pixel vectors that are pairwise more than
// the screening threshold apart in spectral angle. Norms are cached
// because every screening comparison needs them.
//
// With MoveToFront set, candidate scans probe recently-matched members
// first. Spectrally clustered input (spatially coherent imagery, or
// per-part sets being merged) then hits after a few comparisons instead
// of half the set. Membership decisions — and therefore the resulting
// set and the canonical order of Members — are unaffected: only the
// comparison count changes. The manager's merge step uses this; workers
// keep the plain scan so per-part behaviour matches the paper's cost
// structure.
type UniqueSet struct {
	Threshold   float64
	Members     []linalg.Vector
	MoveToFront bool
	norms       []float64
	// scan holds member indices in probe order (MoveToFront only).
	scan []int
	// cosThr caches cos(Threshold) — the constant of every screening
	// comparison — so Insert/Covers pay no trig call per candidate.
	// NewUniqueSet computes it eagerly; cosThreshold fills it lazily for
	// sets built as bare literals (the manager's merge inputs).
	cosThr   float64
	cosValid bool
}

// Stats reports the work performed by a screening pass. Comparisons is
// what the executing engine actually did; SeqComparisons is what the
// sequential reference implementation of the same step would have done
// on the same input — the count the performance model charges, so the
// modeled cost stays faithful to the paper's sequential kernel no matter
// which engine ran or how it parallelized. Screen and Merge perform
// exactly their reference counts, and ScreenBatched's ordered two-pass
// filter performs no redundant comparisons either, so today the two
// counters agree everywhere (the parity tests pin this); the split is
// the contract that lets a future engine trade extra comparisons for
// throughput without perturbing modeled virtual time.
type Stats struct {
	Comparisons    int // pairwise angle evaluations actually performed
	SeqComparisons int // sequential-reference equivalent (cost model input)
	Scanned        int // candidate vectors examined
}

// Add accumulates o into s (aggregating per-part stats is a plain sum,
// so aggregates are independent of arrival order).
func (s *Stats) Add(o Stats) {
	s.Comparisons += o.Comparisons
	s.SeqComparisons += o.SeqComparisons
	s.Scanned += o.Scanned
}

// NewUniqueSet returns an empty unique set with the given threshold
// (0 selects DefaultThreshold).
func NewUniqueSet(threshold float64) (*UniqueSet, error) {
	if threshold == 0 {
		threshold = DefaultThreshold
	}
	// The explicit NaN check matters: NaN compares false on both range
	// tests, and a NaN threshold would defeat screening entirely (no
	// vector ever matches, the unique set grows to every pixel).
	if math.IsNaN(threshold) || threshold < 0 || threshold > math.Pi {
		return nil, fmt.Errorf("%w: %g", ErrBadThreshold, threshold)
	}
	return &UniqueSet{Threshold: threshold, cosThr: math.Cos(threshold), cosValid: true}, nil
}

// cosThreshold returns the cached cos(Threshold), computing it once for
// sets not built through NewUniqueSet.
func (u *UniqueSet) cosThreshold() float64 {
	if !u.cosValid {
		u.cosThr = math.Cos(u.Threshold)
		u.cosValid = true
	}
	return u.cosThr
}

// Len returns the number of members.
func (u *UniqueSet) Len() int { return len(u.Members) }

// withinCached reports whether v (with precomputed norm nv) is within the
// screening threshold of member i. It is the hot comparison of Insert and
// Covers: cosines are compared directly (angle ≤ t ⇔ cos ≥ cos t on
// [0, π]) so no inverse trigonometric call is made per pair. cosThr is
// the set's cached cos(Threshold) (see cosThreshold).
func (u *UniqueSet) withinCached(v linalg.Vector, nv, cosThr float64, i int) bool {
	nm := u.norms[i]
	if a, degenerate := zeroAngle(nv, nm); degenerate {
		return a <= u.Threshold
	}
	if cosThr <= -1 {
		// Threshold π: the Acos reference clamped the cosine to [-1, 1],
		// so every angle matched; preserve that even when rounding puts
		// the dot product slightly below -‖v‖‖m‖.
		return true
	}
	return v.Dot(u.Members[i]) >= cosThr*(nv*nm)
}

// zeroAngle is the package-wide zero-vector convention, used by every
// angle computation (UniqueSet screening and SAM classification alike):
// two zero vectors are identical (angle 0, so they always cover each
// other), while the angle between a zero vector and a non-zero one is
// defined as π/2. Without the first rule every all-zero pixel — dead
// detector lines produce them in bulk — would enter the unique set as a
// fresh member at any threshold below π/2, inflating the set and making
// screening quadratic on dropout-heavy imagery. degenerate reports
// whether the convention applies (some norm is zero); a is meaningless
// otherwise.
func zeroAngle(nv, nm float64) (a float64, degenerate bool) {
	if nv == 0 || nm == 0 {
		if nv == 0 && nm == 0 {
			return 0, true
		}
		return math.Pi / 2, true
	}
	return 0, false
}

// scanRange screens v (with precomputed norm nv) against members
// [lo, hi) in index order with early exit, reporting whether some member
// covers v and how many comparisons were made. It is the single scan
// body behind Insert's plain path, Covers, and both passes of
// ScreenBatched — the bit-parity guarantee between the engines depends
// on these scans staying behaviorally identical, so there is exactly
// one of them.
func (u *UniqueSet) scanRange(v linalg.Vector, nv, cosThr float64, lo, hi int) (covered bool, comparisons int) {
	for i := lo; i < hi; i++ {
		comparisons++
		if u.withinCached(v, nv, cosThr, i) {
			return true, comparisons
		}
	}
	return false, comparisons
}

// Insert screens candidate v against the current members and adds it when
// it is farther than the threshold from all of them. It reports whether v
// was added and how many comparisons were made. The vector is stored by
// reference; callers must not mutate it afterwards.
func (u *UniqueSet) Insert(v linalg.Vector) (added bool, comparisons int) {
	nv := v.Norm()
	cosThr := u.cosThreshold()
	if u.MoveToFront {
		for pos, idx := range u.scan {
			comparisons++
			if u.withinCached(v, nv, cosThr, idx) {
				// Promote the hit to the front of the probe order.
				copy(u.scan[1:pos+1], u.scan[:pos])
				u.scan[0] = idx
				return false, comparisons
			}
		}
		u.Members = append(u.Members, v)
		u.norms = append(u.norms, nv)
		// In-place prepend: grow by one, shift, drop the new index in
		// front. Amortized O(1) allocations (append's growth policy)
		// instead of one fresh O(K) slice per added member, which made
		// merges quadratic in allocation volume.
		u.scan = append(u.scan, 0)
		copy(u.scan[1:], u.scan)
		u.scan[0] = len(u.Members) - 1
		return true, comparisons
	}
	covered, comparisons := u.scanRange(v, nv, cosThr, 0, len(u.Members))
	if covered {
		return false, comparisons
	}
	u.Members = append(u.Members, v)
	u.norms = append(u.norms, nv)
	return true, comparisons
}

// Screen builds a unique set from vectors in order — the sequential
// reference implementation of algorithm step 1 for a single part.
// threshold 0 selects DefaultThreshold.
func Screen(vectors []linalg.Vector, threshold float64) (*UniqueSet, Stats, error) {
	u, err := NewUniqueSet(threshold)
	if err != nil {
		return nil, Stats{}, err
	}
	var st Stats
	for _, v := range vectors {
		st.Scanned++
		_, cmp := u.Insert(v)
		st.Comparisons += cmp
		st.SeqComparisons += cmp
	}
	return u, st, nil
}

// Merge combines per-part unique sets into one global unique set —
// algorithm step 2, executed by the manager. Sets are merged in slice
// order and members in insertion order, making the result deterministic
// for any fixed partitioning. The merged set scans move-to-front: most
// candidates are duplicates of a recently seen variant, which keeps the
// manager's sequential merge cost linear in the total member count
// rather than quadratic.
func Merge(parts []*UniqueSet, threshold float64) (*UniqueSet, Stats, error) {
	u, err := NewUniqueSet(threshold)
	if err != nil {
		return nil, Stats{}, err
	}
	u.MoveToFront = true
	var st Stats
	for _, p := range parts {
		if p == nil {
			continue
		}
		for _, v := range p.Members {
			st.Scanned++
			_, cmp := u.Insert(v)
			st.Comparisons += cmp
			// The merge IS the sequential reference of step 2 (its
			// move-to-front probe order is the pinned behaviour), so the
			// engine count and the reference count coincide.
			st.SeqComparisons += cmp
		}
	}
	return u, st, nil
}
