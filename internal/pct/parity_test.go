package pct

import (
	"math/rand"
	"testing"

	"resilientfusion/internal/hsi"
	"resilientfusion/internal/linalg"
)

// Parity tests: the blocked/parallel kernels must match a plain scalar
// reference bit-for-bit. The reference implements the documented fixed
// reduction order with naive loops — contiguous shards of
// statShardPixels combined in ascending shard order, ascending
// accumulation within a shard — and no staging, tiling or goroutines, so
// any reassociation smuggled into the optimized kernels shows up as a
// one-ulp diff here. Sizes deliberately straddle every boundary: 1-pixel
// sets, non-multiples of the panel and block widths, shard-crossing
// sets, and Parallelism far above the work available.

var parityPar = []int{1, 2, 3, 7, 64}

func paritySet(seed int64, count, dim int) []linalg.Vector {
	rng := rand.New(rand.NewSource(seed))
	out := make([]linalg.Vector, count)
	for i := range out {
		v := make(linalg.Vector, dim)
		for j := range v {
			v[j] = rng.NormFloat64() * 100
		}
		out[i] = v
	}
	return out
}

// refMeanOf is the scalar reference for MeanOfPar's reduction order.
func refMeanOf(vectors []linalg.Vector) linalg.Vector {
	n := len(vectors[0])
	mean := make(linalg.Vector, n)
	for s := 0; s < linalg.ShardCount(len(vectors), statShardPixels); s++ {
		lo, hi := linalg.ShardRange(len(vectors), statShardPixels, s)
		sum := make(linalg.Vector, n)
		for _, v := range vectors[lo:hi] {
			for j, x := range v {
				sum[j] += x
			}
		}
		for j, x := range sum {
			mean[j] += x
		}
	}
	for j := range mean {
		mean[j] *= 1 / float64(len(vectors))
	}
	return mean
}

// refCovarianceSum is the scalar reference for CovarianceSumPar: naive
// full-square rank-1 updates per shard, shard partials combined in
// ascending order.
func refCovarianceSum(vectors []linalg.Vector, mean linalg.Vector) *linalg.Matrix {
	n := len(mean)
	sum := linalg.NewMatrix(n, n)
	for s := 0; s < linalg.ShardCount(len(vectors), statShardPixels); s++ {
		lo, hi := linalg.ShardRange(len(vectors), statShardPixels, s)
		partial := linalg.NewMatrix(n, n)
		dev := make(linalg.Vector, n)
		for _, v := range vectors[lo:hi] {
			for j := range dev {
				dev[j] = v[j] - mean[j]
			}
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					partial.Data[i*n+j] += dev[i] * dev[j]
				}
			}
		}
		for i, x := range partial.Data {
			sum.Data[i] += x
		}
	}
	return sum
}

// refTransformCube is the scalar reference for TransformCubePar's
// bias-folded projection: out[p][c] = A.Row(c)·v − A.Row(c)·mean. The
// bias accumulates in ascending band order. The projection follows the
// kernel's documented canonical order per shape: the 3-component fast
// path sums even-stride and odd-stride partials (each ascending) and
// combines them even+odd; every other component count accumulates in
// plain ascending band order.
func refTransformCube(cube *hsi.Cube, transform *linalg.Matrix, mean linalg.Vector) *hsi.Cube {
	comps, bands := transform.Rows, cube.Bands
	bias := make(linalg.Vector, comps)
	for c := 0; c < comps; c++ {
		for j := 0; j < bands; j++ {
			bias[c] += transform.At(c, j) * mean[j]
		}
	}
	out := hsi.MustNewCube(cube.Width, cube.Height, comps)
	for p := 0; p < cube.Pixels(); p++ {
		for c := 0; c < comps; c++ {
			var s float64
			if comps == 3 {
				var even, odd float64
				for j := 0; j < bands; j += 2 {
					even += float64(cube.Data[p*bands+j]) * transform.At(c, j)
				}
				for j := 1; j < bands; j += 2 {
					odd += float64(cube.Data[p*bands+j]) * transform.At(c, j)
				}
				s = even + odd
			} else {
				for j := 0; j < bands; j++ {
					s += float64(cube.Data[p*bands+j]) * transform.At(c, j)
				}
			}
			out.Data[p*comps+c] = float32(s - bias[c])
		}
	}
	return out
}

func TestMeanOfParityAcrossParallelism(t *testing.T) {
	for _, count := range []int{1, 3, statShardPixels - 1, statShardPixels, statShardPixels + 1, 2*statShardPixels + 17} {
		vs := paritySet(int64(count), count, 9)
		want := refMeanOf(vs)
		for _, par := range parityPar {
			got, err := MeanOfPar(vs, par)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want, 0) {
				t.Fatalf("count=%d par=%d: mean differs from scalar reference", count, par)
			}
		}
	}
}

func TestCovarianceSumParityAcrossParallelism(t *testing.T) {
	for _, tc := range []struct{ count, dim int }{
		{1, 5}, {covPanelPixels - 1, 7}, {covPanelPixels + 3, 24},
		{statShardPixels + covPanelPixels/2, 11}, {2*statShardPixels + 1, 3},
	} {
		vs := paritySet(int64(tc.count*10+tc.dim), tc.count, tc.dim)
		mean, err := MeanOf(vs)
		if err != nil {
			t.Fatal(err)
		}
		want := refCovarianceSum(vs, mean)
		for _, par := range parityPar {
			got, err := CovarianceSumPar(vs, mean, par)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want, 0) {
				t.Fatalf("count=%d dim=%d par=%d: covariance sum differs from scalar reference", tc.count, tc.dim, par)
			}
		}
	}
}

// CovarianceSumInto must zero and fill a dirty, reused destination to
// the exact bits of a fresh CovarianceSum — the contract that lets a
// worker keep one sum matrix across requests.
func TestCovarianceSumIntoReuse(t *testing.T) {
	dst := linalg.NewMatrix(9, 9)
	for i := range dst.Data {
		dst.Data[i] = 1e300 // poison: any surviving element breaks equality
	}
	for _, count := range []int{1, 7, covPanelPixels + 3, statShardPixels + 5} {
		vs := paritySet(int64(count), count, 9)
		mean, err := MeanOf(vs)
		if err != nil {
			t.Fatal(err)
		}
		want, err := CovarianceSum(vs, mean)
		if err != nil {
			t.Fatal(err)
		}
		if err := CovarianceSumInto(dst, vs, mean, 3); err != nil {
			t.Fatal(err)
		}
		if !dst.Equal(want, 0) {
			t.Fatalf("count=%d: reused destination differs from fresh sum", count)
		}
	}
	// Dimension mismatch is an error, not a resize.
	vs := paritySet(1, 4, 5)
	mean, _ := MeanOf(vs)
	if err := CovarianceSumInto(dst, vs, mean, 1); err == nil {
		t.Fatal("9x9 destination accepted for 5-band vectors")
	}
	// Empty vector set zeroes the destination (partial sum of nothing).
	dst.Data[0] = 42
	if err := CovarianceSumInto(dst, nil, make(linalg.Vector, 9), 1); err != nil {
		t.Fatal(err)
	}
	if dst.Data[0] != 0 {
		t.Fatal("empty set left the destination dirty")
	}
}

func TestTransformCubeParityAcrossParallelism(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, tc := range []struct{ w, h, bands, comps int }{
		{1, 1, 4, 3},                          // 1-pixel cube
		{transformBlockPixels/2 + 3, 1, 8, 3}, // sub-block, odd width
		{transformBlockPixels, 2, 6, 5},       // exact block multiple, comps > 3
		{33, 37, 12, 3},                       // blocks with ragged tail
	} {
		cube := hsi.MustNewCube(tc.w, tc.h, tc.bands)
		for i := range cube.Data {
			cube.Data[i] = float32(rng.NormFloat64() * 50)
		}
		transform := linalg.NewMatrix(tc.comps, tc.bands)
		for i := range transform.Data {
			transform.Data[i] = rng.NormFloat64()
		}
		mean := make(linalg.Vector, tc.bands)
		for j := range mean {
			mean[j] = rng.NormFloat64() * 20
		}
		want := refTransformCube(cube, transform, mean)
		for _, par := range parityPar {
			got, err := TransformCubePar(cube, transform, mean, par)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want, 0) {
				t.Fatalf("%dx%dx%d comps=%d par=%d: transform differs from scalar reference",
					tc.w, tc.h, tc.bands, tc.comps, par)
			}
		}
	}
}

// Parallelism beyond the pixel count must not change anything — the
// shard grid is fixed by the input size alone.
func TestKernelsDeterministicWithExcessParallelism(t *testing.T) {
	vs := paritySet(3, 5, 6)
	mean, err := MeanOfPar(vs, 1)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := MeanOfPar(vs, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !mean.Equal(wide, 0) {
		t.Fatal("MeanOfPar varies with excess parallelism")
	}
	c1, err := CovarianceSumPar(vs, mean, 1)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := CovarianceSumPar(vs, mean, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !c1.Equal(c2, 0) {
		t.Fatal("CovarianceSumPar varies with excess parallelism")
	}
}
