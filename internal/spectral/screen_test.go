package spectral

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"resilientfusion/internal/linalg"
)

func randVectors(seed int64, count, dim int) []linalg.Vector {
	rng := rand.New(rand.NewSource(seed))
	out := make([]linalg.Vector, count)
	for i := range out {
		v := make(linalg.Vector, dim)
		for j := range v {
			v[j] = rng.Float64() * 1000
		}
		out[i] = v
	}
	return out
}

func TestNewUniqueSetValidation(t *testing.T) {
	if _, err := NewUniqueSet(-1); !errors.Is(err, ErrBadThreshold) {
		t.Fatalf("negative threshold err = %v", err)
	}
	if _, err := NewUniqueSet(4); !errors.Is(err, ErrBadThreshold) {
		t.Fatalf("threshold > pi err = %v", err)
	}
	u, err := NewUniqueSet(0)
	if err != nil {
		t.Fatal(err)
	}
	if u.Threshold != DefaultThreshold {
		t.Fatalf("default threshold = %g", u.Threshold)
	}
}

func TestInsertDeduplicates(t *testing.T) {
	u, _ := NewUniqueSet(0.1)
	a := linalg.Vector{1, 0, 0}
	added, cmp := u.Insert(a)
	if !added || cmp != 0 {
		t.Fatalf("first insert: added=%v cmp=%d", added, cmp)
	}
	// A scaled copy has angle 0 — must be screened out.
	added, cmp = u.Insert(linalg.Vector{5, 0, 0})
	if added || cmp != 1 {
		t.Fatalf("duplicate insert: added=%v cmp=%d", added, cmp)
	}
	// An orthogonal vector must be admitted.
	added, _ = u.Insert(linalg.Vector{0, 1, 0})
	if !added {
		t.Fatal("orthogonal vector rejected")
	}
	if u.Len() != 2 {
		t.Fatalf("Len = %d", u.Len())
	}
}

func TestScreenInvariants(t *testing.T) {
	vectors := randVectors(1, 300, 8)
	u, st, err := Screen(vectors, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if st.Scanned != 300 {
		t.Fatalf("Scanned = %d", st.Scanned)
	}
	if st.Comparisons == 0 {
		t.Fatal("no comparisons recorded")
	}
	if u.Len() == 0 || u.Len() > 300 {
		t.Fatalf("unique set size %d", u.Len())
	}
	// Invariant 1: members pairwise farther than the threshold.
	if min := u.MinPairwiseAngle(); u.Len() > 1 && min <= u.Threshold {
		t.Fatalf("min pairwise angle %g <= threshold %g", min, u.Threshold)
	}
	// Invariant 2: every input vector is covered by the set.
	for i, v := range vectors {
		if !u.Covers(v) {
			t.Fatalf("vector %d not covered", i)
		}
	}
}

func TestScreenReducesCorrelatedData(t *testing.T) {
	// 500 noisy copies of 3 base spectra must collapse to ~3 members.
	rng := rand.New(rand.NewSource(2))
	bases := randVectors(3, 3, 16)
	var vectors []linalg.Vector
	for i := 0; i < 500; i++ {
		b := bases[i%3]
		v := b.Clone()
		for j := range v {
			v[j] *= 1 + rng.NormFloat64()*0.002
		}
		vectors = append(vectors, v)
	}
	u, _, err := Screen(vectors, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if u.Len() > 6 {
		t.Fatalf("unique set size %d for 3-cluster data", u.Len())
	}
}

func TestScreenPreservesRareSignature(t *testing.T) {
	// One rare orthogonal target among many background copies must
	// survive screening — the whole point of the algorithm.
	background := linalg.Vector{1, 1, 0, 0}
	target := linalg.Vector{0, 0, 1, 0}
	var vectors []linalg.Vector
	for i := 0; i < 200; i++ {
		vectors = append(vectors, background.Clone())
	}
	vectors = append(vectors, target)
	u, _, err := Screen(vectors, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if u.Len() != 2 {
		t.Fatalf("unique set size %d, want 2", u.Len())
	}
	if !u.Covers(target) {
		t.Fatal("target not covered")
	}
}

func TestScreenThresholdError(t *testing.T) {
	if _, _, err := Screen(nil, -3); !errors.Is(err, ErrBadThreshold) {
		t.Fatalf("err = %v", err)
	}
}

func TestMergeEquivalentToGlobalScreen(t *testing.T) {
	// Merging per-part unique sets must cover everything the global
	// screen covers, and obey the pairwise invariant.
	vectors := randVectors(4, 400, 8)
	const th = 0.12
	parts := make([]*UniqueSet, 4)
	for p := 0; p < 4; p++ {
		u, _, err := Screen(vectors[p*100:(p+1)*100], th)
		if err != nil {
			t.Fatal(err)
		}
		parts[p] = u
	}
	merged, st, err := Merge(parts, th)
	if err != nil {
		t.Fatal(err)
	}
	if st.Scanned == 0 {
		t.Fatal("merge scanned nothing")
	}
	if merged.Len() > 1 && merged.MinPairwiseAngle() <= th {
		t.Fatal("merged set violates pairwise invariant")
	}
	for i, v := range vectors {
		if !merged.Covers(v) {
			t.Fatalf("vector %d not covered by merged set", i)
		}
	}
	// Deterministic: same inputs, same result.
	merged2, _, _ := Merge(parts, th)
	if merged2.Len() != merged.Len() {
		t.Fatal("merge not deterministic")
	}
}

func TestMergeSkipsNil(t *testing.T) {
	u, _, err := Screen(randVectors(5, 10, 4), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	merged, _, err := Merge([]*UniqueSet{nil, u, nil}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Len() == 0 {
		t.Fatal("merge dropped members")
	}
}

func TestZeroVectorHandling(t *testing.T) {
	u, _ := NewUniqueSet(0.1)
	added, _ := u.Insert(linalg.Vector{0, 0, 0})
	if !added {
		t.Fatal("zero vector should be admitted to an empty set")
	}
	// Zero vs anything is π/2 > threshold, so a normal vector is added too.
	added, _ = u.Insert(linalg.Vector{1, 2, 3})
	if !added {
		t.Fatal("vector rejected against zero member")
	}
	// A second zero vector is identical to the zero member (angle 0):
	// covered, so dead-detector pixels collapse to one member.
	added, _ = u.Insert(linalg.Vector{0, 0, 0})
	if added {
		t.Fatal("duplicate zero vector admitted")
	}
	if u.MinPairwiseAngle() < 0 {
		t.Fatal("angle must be non-negative")
	}
}

func TestMinPairwiseAngleSmallSets(t *testing.T) {
	u, _ := NewUniqueSet(0.1)
	if got := u.MinPairwiseAngle(); got != math.Pi {
		t.Fatalf("empty set angle = %g", got)
	}
	u.Insert(linalg.Vector{1, 0})
	if got := u.MinPairwiseAngle(); got != math.Pi {
		t.Fatalf("singleton angle = %g", got)
	}
}

// TestCosineCompareMatchesAcos checks that the screening fast path (direct
// cosine comparison in withinCached) reaches the same membership decisions
// as the inverse-trigonometric reference it replaced.
func TestCosineCompareMatchesAcos(t *testing.T) {
	vectors := randVectors(17, 400, 24)
	for _, threshold := range []float64{0.02, DefaultThreshold, 0.5, 2.5, math.Pi} {
		u, _, err := Screen(vectors, threshold)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewUniqueSet(threshold)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range vectors {
			nv := v.Norm()
			covered := false
			for i := range ref.Members {
				if ref.angleCached(v, nv, i) <= ref.Threshold {
					covered = true
					break
				}
			}
			if !covered {
				ref.Members = append(ref.Members, v)
				ref.norms = append(ref.norms, nv)
			}
		}
		if len(u.Members) != len(ref.Members) {
			t.Fatalf("threshold %g: fast path kept %d members, acos reference %d",
				threshold, len(u.Members), len(ref.Members))
		}
		for i := range u.Members {
			for j := range u.Members[i] {
				if u.Members[i][j] != ref.Members[i][j] {
					t.Fatalf("threshold %g: member %d differs from reference", threshold, i)
				}
			}
		}
		// Covers must agree with the screening decision for every input.
		for _, v := range vectors {
			if !u.Covers(v) {
				t.Fatalf("threshold %g: screened input not covered by its unique set", threshold)
			}
		}
	}
}

// TestCoversZeroNormThresholds pins the zero-vector convention (angle π/2)
// through the cosine fast path.
func TestCoversZeroNormThresholds(t *testing.T) {
	u, err := NewUniqueSet(0.1)
	if err != nil {
		t.Fatal(err)
	}
	u.Insert(linalg.Vector{1, 0})
	if u.Covers(linalg.Vector{0, 0}) {
		t.Fatal("zero vector covered at threshold 0.1")
	}
	wide, err := NewUniqueSet(math.Pi / 2)
	if err != nil {
		t.Fatal(err)
	}
	wide.Insert(linalg.Vector{1, 0})
	if !wide.Covers(linalg.Vector{0, 0}) {
		t.Fatal("zero vector not covered at threshold π/2")
	}
}

// TestNaNThresholdRejected pins the NaN guard: a NaN threshold would
// otherwise pass both range comparisons and disable screening entirely.
func TestNaNThresholdRejected(t *testing.T) {
	if _, err := NewUniqueSet(math.NaN()); !errors.Is(err, ErrBadThreshold) {
		t.Fatalf("NaN threshold err = %v", err)
	}
	if _, _, err := Screen(randVectors(1, 4, 4), math.NaN()); !errors.Is(err, ErrBadThreshold) {
		t.Fatalf("Screen with NaN threshold err = %v", err)
	}
}

// The screening cosine threshold is cached on the set: eagerly by
// NewUniqueSet, lazily for bare-literal sets (the manager's merge
// inputs), so Insert/Covers never pay a trig call per candidate.
func TestCosineThresholdCached(t *testing.T) {
	u, err := NewUniqueSet(0.25)
	if err != nil {
		t.Fatal(err)
	}
	if !u.cosValid || u.cosThr != math.Cos(0.25) {
		t.Fatalf("NewUniqueSet did not cache cos: valid=%v cos=%g", u.cosValid, u.cosThr)
	}
	// Bare literal: first use fills the cache and screening still works.
	lit := &UniqueSet{Threshold: 0.3, Members: []linalg.Vector{{1, 0}}}
	lit.norms = []float64{1}
	if !lit.Covers(linalg.Vector{1, 0.01}) {
		t.Fatal("literal set does not cover a near-duplicate")
	}
	if !lit.cosValid || lit.cosThr != math.Cos(0.3) {
		t.Fatal("lazy cosine cache not filled on first use")
	}
}

// Move-to-front inserts must prepend to the probe order in place:
// amortized slice growth only, never a fresh O(K) allocation per added
// member (which made merge allocation volume quadratic).
func TestMoveToFrontPrependInPlace(t *testing.T) {
	u, err := NewUniqueSet(0.05)
	if err != nil {
		t.Fatal(err)
	}
	u.MoveToFront = true
	// Mutually orthogonal members (angle π/2 ≫ threshold): every insert adds.
	const n = 64
	vectors := make([]linalg.Vector, n)
	for i := range vectors {
		v := make(linalg.Vector, n)
		v[i] = 1
		vectors[i] = v
	}
	// Pre-reserve capacity so the adds below measure the prepend logic,
	// not append's occasional growth.
	u.Members = make([]linalg.Vector, 0, n)
	u.norms = make([]float64, 0, n)
	u.scan = make([]int, 0, n)
	for i, v := range vectors {
		before := cap(u.scan)
		added, _ := u.Insert(v)
		if !added {
			t.Fatalf("vector %d not added", i)
		}
		if cap(u.scan) != before {
			t.Fatalf("insert %d reallocated the probe order (cap %d → %d)", i, before, cap(u.scan))
		}
	}
	// Probe order is newest-first after pure adds.
	for i, idx := range u.scan {
		if idx != n-1-i {
			t.Fatalf("scan[%d] = %d, want %d", i, idx, n-1-i)
		}
	}
	// Membership decisions unchanged: a duplicate of member 0 is covered
	// and promoted without allocating at all.
	dup := vectors[0].Clone()
	allocs := testing.AllocsPerRun(20, func() {
		if added, _ := u.Insert(dup); added {
			t.Fatal("duplicate added")
		}
	})
	if allocs != 0 {
		t.Fatalf("duplicate insert allocates %.1f times", allocs)
	}
	if u.scan[0] != 0 {
		t.Fatalf("hit not promoted: scan[0] = %d", u.scan[0])
	}
}

// Covers reports whether v is within the threshold of some member.
func (u *UniqueSet) Covers(v linalg.Vector) bool {
	covered, _ := u.scanRange(v, v.Norm(), u.cosThreshold(), 0, len(u.Members))
	return covered
}

// MinPairwiseAngle returns the smallest angle between distinct members
// (π for sets smaller than 2); used to verify the screening invariant.
func (u *UniqueSet) MinPairwiseAngle() float64 {
	min := math.Pi
	for i := 0; i < len(u.Members); i++ {
		for j := i + 1; j < len(u.Members); j++ {
			if a := u.angleCached(u.Members[i], u.norms[i], j); a < min {
				min = a
			}
		}
	}
	return min
}

// angleCached computes the spectral angle between v (with precomputed norm
// nv) and member i, for the tests that need the actual angle; the
// screening loops use withinCached.
func (u *UniqueSet) angleCached(v linalg.Vector, nv float64, i int) float64 {
	m := u.Members[i]
	nm := u.norms[i]
	if a, degenerate := zeroAngle(nv, nm); degenerate {
		return a
	}
	c := v.Dot(m) / (nv * nm)
	if c > 1 {
		c = 1
	} else if c < -1 {
		c = -1
	}
	return math.Acos(c)
}
