package core

import (
	"math"
	"math/rand"
	"testing"

	"resilientfusion/internal/linalg"
)

// Bulk-codec parity: the presized bulk encoders and the staging-view
// decoders must round-trip every float64 bit pattern exactly, for
// payload shapes that cross the bulk chunk boundaries, and regardless of
// whether the encoded vectors were individually allocated or views over
// one hsi staging buffer.

// hardVector fills a vector with adversarial bit patterns: ±0, ±Inf,
// NaN, denormals, and random full-range bits.
func hardVector(rng *rand.Rand, n int) linalg.Vector {
	v := make(linalg.Vector, n)
	for j := range v {
		switch j % 7 {
		case 0:
			v[j] = math.Copysign(0, -1)
		case 1:
			v[j] = math.Inf(1 - 2*(j%2))
		case 2:
			v[j] = math.NaN()
		case 3:
			v[j] = math.Float64frombits(1) // smallest denormal
		default:
			v[j] = math.Float64frombits(rng.Uint64())
		}
	}
	return v
}

func bitsEqual(a, b linalg.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestScreenRespBulkParity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// Dimensions straddling the 64-float bulk chunk and a K large enough
	// to make the staging backing span many vectors.
	for _, tc := range []struct{ k, n int }{{1, 1}, {3, 63}, {5, 64}, {7, 65}, {211, 13}} {
		vs := make([]linalg.Vector, tc.k)
		for i := range vs {
			vs[i] = hardVector(rng, tc.n)
		}
		got, err := DecodeScreenResp(AppendScreenResp(nil, &ScreenResp{Index: 9, Vectors: vs}))
		if err != nil {
			t.Fatal(err)
		}
		if got.Index != 9 || len(got.Vectors) != tc.k {
			t.Fatalf("k=%d n=%d: %+v", tc.k, tc.n, got)
		}
		for i := range vs {
			if !bitsEqual(got.Vectors[i], vs[i]) {
				t.Fatalf("k=%d n=%d: vector %d bits differ", tc.k, tc.n, i)
			}
		}
	}
}

// Vectors that are views over one hsi staging buffer (how screening
// actually produces them) must encode identically to standalone copies.
func TestScreenRespStagedVectorsParity(t *testing.T) {
	cube := smallCube(t, 9, 4, 21, 5)
	staged := cube.PixelRows()
	standalone := make([]linalg.Vector, len(staged))
	for i, v := range staged {
		standalone[i] = append(linalg.Vector(nil), v...)
	}
	a := AppendScreenResp(nil, &ScreenResp{Index: 2, Vectors: staged})
	b := AppendScreenResp(nil, &ScreenResp{Index: 2, Vectors: standalone})
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("byte %d differs", i)
		}
	}
}

func TestCovReqBulkParity(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	mean := hardVector(rng, 130)
	vs := make([]linalg.Vector, 17)
	for i := range vs {
		vs[i] = hardVector(rng, 130)
	}
	got, err := DecodeCovReq(AppendCovReq(nil, &CovReq{Part: 4, Mean: mean, Vectors: vs}))
	if err != nil {
		t.Fatal(err)
	}
	if got.Part != 4 || !bitsEqual(got.Mean, mean) {
		t.Fatal("mean bits differ")
	}
	for i := range vs {
		if !bitsEqual(got.Vectors[i], vs[i]) {
			t.Fatalf("vector %d bits differ", i)
		}
	}
	// Decoded vectors must be mutation-safe views: appending to one must
	// not clobber its neighbour in the shared backing.
	if len(got.Vectors) > 1 {
		first := append(linalg.Vector(nil), got.Vectors[1]...)
		_ = append(got.Vectors[0], 42)
		if !bitsEqual(got.Vectors[1], first) {
			t.Fatal("append on one staged vector overwrote its neighbour")
		}
	}
}

func TestCovRespBulkParity(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := 97 // odd size crossing the bulk chunk
	m := linalg.NewMatrix(n, n)
	for i := range m.Data {
		m.Data[i] = math.Float64frombits(rng.Uint64())
	}
	got, err := DecodeCovResp(AppendCovResp(nil, &CovResp{Part: 3, Sum: m}))
	if err != nil {
		t.Fatal(err)
	}
	if got.Part != 3 || !bitsEqual(linalg.Vector(got.Sum.Data), linalg.Vector(m.Data)) {
		t.Fatal("matrix bits differ")
	}
}

// Truncated bulk payloads must error cleanly, not over-read.
func TestBulkDecodeTruncation(t *testing.T) {
	vs := []linalg.Vector{{1, 2, 3}, {4, 5, 6}}
	enc := AppendScreenResp(nil, &ScreenResp{Index: 0, Vectors: vs})
	for _, cut := range []int{1, 8, 13, len(enc) - 1} {
		if _, err := DecodeScreenResp(enc[:len(enc)-cut]); err == nil {
			t.Fatalf("cut %d accepted", cut)
		}
	}
	encCov := AppendCovReq(nil, &CovReq{Part: 0, Mean: linalg.Vector{1, 2}, Vectors: vs[:0]})
	if _, err := DecodeCovReq(encCov[:len(encCov)-3]); err == nil {
		t.Fatal("truncated cov req accepted")
	}
}

func BenchmarkAppendScreenResp(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vs := make([]linalg.Vector, 64)
	for i := range vs {
		v := make(linalg.Vector, 210)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		vs[i] = v
	}
	resp := &ScreenResp{Index: 1, Vectors: vs}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = AppendScreenResp(nil, resp)
	}
}

func BenchmarkDecodeScreenResp(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vs := make([]linalg.Vector, 64)
	for i := range vs {
		v := make(linalg.Vector, 210)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		vs[i] = v
	}
	enc := AppendScreenResp(nil, &ScreenResp{Index: 1, Vectors: vs})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeScreenResp(enc); err != nil {
			b.Fatal(err)
		}
	}
}
