package core

import (
	"errors"
	"math/rand"
	"testing"

	"resilientfusion/internal/colormap"
	"resilientfusion/internal/hsi"
	"resilientfusion/internal/linalg"
	"resilientfusion/internal/spectral"
)

func smallCube(t *testing.T, w, h, b int, seed int64) *hsi.Cube {
	t.Helper()
	c := hsi.MustNewCube(w, h, b)
	rng := rand.New(rand.NewSource(seed))
	for i := range c.Data {
		c.Data[i] = float32(rng.Float64() * 100)
	}
	c.Wavelengths = hsi.DefaultWavelengths(b)
	return c
}

func TestScreenReqRoundTrip(t *testing.T) {
	cube := smallCube(t, 4, 3, 5, 1)
	req := &ScreenReq{Range: hsi.RowRange{Index: 7, Y0: 10, Y1: 13}, Cube: cube}
	b, err := AppendScreenReq(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeScreenReq(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Range != req.Range {
		t.Fatalf("range %v", got.Range)
	}
	if !got.Cube.Equal(cube, 0) {
		t.Fatal("cube mismatch")
	}
	if _, err := DecodeScreenReq([]byte{1, 2, 3}); !errors.Is(err, ErrWire) {
		t.Fatalf("garbage: %v", err)
	}
}

func TestScreenRespRoundTrip(t *testing.T) {
	resp := &ScreenResp{
		Index: 3,
		// Counters past 2^32 must survive the wire (large sub-cubes).
		Stats:   spectral.Stats{Scanned: 64, Comparisons: 1 << 40, SeqComparisons: 1<<40 - 7},
		Vectors: []linalg.Vector{{1, 2}, {3, 4}, {5, 6}},
	}
	got, err := DecodeScreenResp(AppendScreenResp(nil, resp))
	if err != nil {
		t.Fatal(err)
	}
	if got.Index != 3 || len(got.Vectors) != 3 {
		t.Fatalf("got %+v", got)
	}
	if got.Stats != resp.Stats {
		t.Fatalf("stats %+v, want %+v", got.Stats, resp.Stats)
	}
	for i := range resp.Vectors {
		if !got.Vectors[i].Equal(resp.Vectors[i], 0) {
			t.Fatalf("vector %d mismatch", i)
		}
	}
	// Empty unique set (empty sub-cube) is legal.
	empty := &ScreenResp{Index: 1}
	got, err = DecodeScreenResp(AppendScreenResp(nil, empty))
	if err != nil || len(got.Vectors) != 0 {
		t.Fatalf("empty roundtrip: %v %v", got, err)
	}
	if _, err := DecodeScreenResp(nil); !errors.Is(err, ErrWire) {
		t.Fatalf("nil: %v", err)
	}
	if _, err := DecodeScreenResp([]byte{255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255}); !errors.Is(err, ErrWire) {
		t.Fatalf("absurd counts: %v", err)
	}
}

func TestCovReqRespRoundTrip(t *testing.T) {
	req := &CovReq{
		Part:    2,
		Mean:    linalg.Vector{1, 2, 3},
		Vectors: []linalg.Vector{{4, 5, 6}, {7, 8, 9}},
	}
	got, err := DecodeCovReq(AppendCovReq(nil, req))
	if err != nil {
		t.Fatal(err)
	}
	if got.Part != 2 || !got.Mean.Equal(req.Mean, 0) || len(got.Vectors) != 2 {
		t.Fatalf("got %+v", got)
	}
	if _, err := DecodeCovReq([]byte{0}); !errors.Is(err, ErrWire) {
		t.Fatalf("short: %v", err)
	}

	m := linalg.NewMatrixFrom(2, 2, []float64{1, 2, 2, 4})
	resp := &CovResp{Part: 1, Sum: m}
	gotR, err := DecodeCovResp(AppendCovResp(nil, resp))
	if err != nil {
		t.Fatal(err)
	}
	if gotR.Part != 1 || !gotR.Sum.Equal(m, 0) {
		t.Fatalf("got %+v", gotR)
	}
	if _, err := DecodeCovResp([]byte{1, 0, 0, 0, 255, 255, 255, 0}); !errors.Is(err, ErrWire) {
		t.Fatalf("absurd n: %v", err)
	}
}

func TestTransformReqRoundTrip(t *testing.T) {
	tr := linalg.NewMatrixFrom(3, 4, []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	req := &TransformReq{
		Range:     hsi.RowRange{Index: 5, Y0: 0, Y1: 2},
		Mean:      linalg.Vector{1, 2, 3, 4},
		Transform: tr,
		Stretches: []colormap.Stretch{{Center: 0, Scale: 1}, {Center: 1, Scale: 2}, {Center: 2, Scale: 3}},
	}
	b, err := AppendTransformReq(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeTransformReq(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Range != req.Range || got.Cube != nil || !got.Transform.Equal(tr, 0) {
		t.Fatalf("got %+v", got)
	}
	if got.Stretches[2] != req.Stretches[2] {
		t.Fatalf("stretches %v", got.Stretches)
	}

	// With data attached.
	req.Cube = smallCube(t, 4, 2, 4, 2)
	b, err = AppendTransformReq(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	got, err = DecodeTransformReq(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cube == nil || !got.Cube.Equal(req.Cube, 0) {
		t.Fatal("attached cube lost")
	}
	if _, err := DecodeTransformReq([]byte{1}); !errors.Is(err, ErrWire) {
		t.Fatalf("short: %v", err)
	}
}

func TestTransformRespRoundTrip(t *testing.T) {
	resp := &TransformResp{
		Range: hsi.RowRange{Index: 2, Y0: 4, Y1: 6},
		Width: 3,
		RGB:   make([]byte, 2*3*3),
	}
	for i := range resp.RGB {
		resp.RGB[i] = byte(i)
	}
	got, err := DecodeTransformResp(AppendTransformResp(nil, resp))
	if err != nil {
		t.Fatal(err)
	}
	if got.Range != resp.Range || got.Width != 3 || len(got.RGB) != len(resp.RGB) {
		t.Fatalf("got %+v", got)
	}
	for i := range resp.RGB {
		if got.RGB[i] != resp.RGB[i] {
			t.Fatal("rgb bytes mismatch")
		}
	}
	if _, err := DecodeTransformResp([]byte{0, 0, 0, 0, 9, 0, 0, 0, 1, 0, 0, 0, 3, 0, 0, 0}); !errors.Is(err, ErrWire) {
		t.Fatalf("y1<y0: %v", err)
	}
}

func TestCacheMissRoundTrip(t *testing.T) {
	idx, err := DecodeCacheMiss(AppendCacheMiss(nil, 9))
	if err != nil || idx != 9 {
		t.Fatalf("%d %v", idx, err)
	}
	if _, err := DecodeCacheMiss(nil); !errors.Is(err, ErrWire) {
		t.Fatalf("nil: %v", err)
	}
}

// AppendTransformResp appends a serialized transform response to dst —
// the reference encoding of the slab frames the worker builds in place.
func AppendTransformResp(dst []byte, resp *TransformResp) []byte {
	dst = grow(dst, slabRespHeader+len(resp.RGB))
	return append(appendSlabHeader(dst, resp.Range, resp.Width), resp.RGB...)
}

// AppendFuseReq appends a serialized tile-fusion request to dst.
func AppendFuseReq(dst []byte, req *FuseReq) ([]byte, error) { return AppendScreenReq(dst, req) }
