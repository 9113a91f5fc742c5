package core

import (
	"bytes"
	"encoding/hex"
	"math"
	"testing"

	"resilientfusion/internal/colormap"
	"resilientfusion/internal/hsi"
	"resilientfusion/internal/linalg"
	"resilientfusion/internal/resilient"
	"resilientfusion/internal/spectral"
)

// The wire format is pinned: every constant below is what the encoders
// emitted before they became append-style (generated from that tree), so
// a codec change that alters a single byte of any message kind — or that
// fails to carry a float32 bit pattern through unchanged — fails here.

// goldenCube is a 3×2×2 tile whose samples are the bit patterns a codec
// is most likely to damage.
func goldenCube(wavelengths bool) *hsi.Cube {
	c := hsi.MustNewCube(3, 2, 2)
	bits := []uint32{
		0x00000000, 0x80000000, // +0, -0
		0x00000001, 0x807fffff, // smallest and largest-magnitude denormals
		0x7f800000, 0xff800000, // +Inf, -Inf
		0x7fc00001, 0xffc12345, // quiet NaNs with payloads
		0x7fa00000, 0x7f800001, // signalling NaNs
		0x3fc00000, 0xc2f6e979, // 1.5, -123.456
	}
	for i, b := range bits {
		c.Data[i] = math.Float32frombits(b)
	}
	if wavelengths {
		c.Wavelengths = []float64{400.5, math.Float64frombits(0x7ff8000000000abc)}
	}
	return c
}

func goldenTransformReq(rr hsi.RowRange, c *hsi.Cube) *TransformReq {
	return &TransformReq{
		Range:     rr,
		Mean:      linalg.Vector{1, 2},
		Transform: linalg.NewMatrixFrom(3, 2, []float64{0.6, 0.8, -0.8, 0.6, 0, 1}),
		Stretches: []colormap.Stretch{{Center: 0.5, Scale: 2}, {Center: -1, Scale: 0.25}, {Center: 0, Scale: 1}},
		Cube:      c,
	}
}

func goldenSlab(rr hsi.RowRange) *TransformResp {
	rgb := make([]byte, rr.Rows()*3*3)
	for i := range rgb {
		rgb[i] = byte(7*i + 1)
	}
	return &TransformResp{Range: rr, Width: 3, RGB: rgb}
}

func TestWireGolden(t *testing.T) {
	rr := hsi.RowRange{Index: 3, Y0: 40, Y1: 42}
	withWL, noWL := goldenCube(true), goldenCube(false)
	screenResp := &ScreenResp{
		Index:   2,
		Stats:   spectral.Stats{Scanned: 6, Comparisons: 1 << 33, SeqComparisons: 15},
		Vectors: []linalg.Vector{{1, -2}, {math.Inf(1), math.Float64frombits(0x7ff8000000000001)}},
	}
	covReq := &CovReq{
		Part:    1,
		Mean:    linalg.Vector{1, 2},
		Vectors: []linalg.Vector{{0.5, -0.5}, {2, math.Copysign(0, -1)}},
	}
	covResp := &CovResp{Part: 3, Sum: linalg.NewMatrixFrom(2, 2, []float64{1, 2, 2, 5e-324})}

	plain := func(f func([]byte) []byte) func([]byte) ([]byte, error) {
		return func(dst []byte) ([]byte, error) { return f(dst), nil }
	}
	cases := []struct {
		name   string
		append func(dst []byte) ([]byte, error)
		golden string
	}{
		{"ScreenReq/wavelengths", func(dst []byte) ([]byte, error) {
			return AppendScreenReq(dst, &ScreenReq{Range: rr, Cube: withWL})
		}, goldenScreenReqWL},
		{"ScreenReq/bare", func(dst []byte) ([]byte, error) {
			return AppendScreenReq(dst, &ScreenReq{Range: rr, Cube: noWL})
		}, goldenScreenReqBare},
		// A fuse request is a screening request under another kind.
		{"FuseReq/wavelengths", func(dst []byte) ([]byte, error) {
			return AppendFuseReq(dst, &FuseReq{Range: rr, Cube: withWL})
		}, goldenScreenReqWL},
		{"FuseReq/bare", func(dst []byte) ([]byte, error) {
			return AppendFuseReq(dst, &FuseReq{Range: rr, Cube: noWL})
		}, goldenScreenReqBare},
		{"TransformReq/wavelengths", func(dst []byte) ([]byte, error) {
			return AppendTransformReq(dst, goldenTransformReq(rr, withWL))
		}, goldenTransformReqWL},
		{"TransformReq/bare", func(dst []byte) ([]byte, error) {
			return AppendTransformReq(dst, goldenTransformReq(rr, noWL))
		}, goldenTransformReqBare},
		{"TransformReq/cached", func(dst []byte) ([]byte, error) {
			return AppendTransformReq(dst, goldenTransformReq(rr, nil))
		}, goldenTransformReqCached},
		// A fuse response is a transform response under another kind.
		{"TransformResp", plain(func(dst []byte) []byte { return AppendTransformResp(dst, goldenSlab(rr)) }),
			goldenTransformResp},
		{"ScreenResp", plain(func(dst []byte) []byte { return AppendScreenResp(dst, screenResp) }),
			goldenScreenResp},
		{"ScreenResp/empty", plain(func(dst []byte) []byte { return AppendScreenResp(dst, &ScreenResp{Index: 7}) }),
			goldenScreenRespEmpty},
		{"CovReq", plain(func(dst []byte) []byte { return AppendCovReq(dst, covReq) }), goldenCovReq},
		{"CovResp", plain(func(dst []byte) []byte { return AppendCovResp(dst, covResp) }), goldenCovResp},
		{"CacheMiss", plain(func(dst []byte) []byte { return AppendCacheMiss(dst, 9) }), "09000000"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := hex.DecodeString(tc.golden)
			if err != nil {
				t.Fatal(err)
			}
			// Onto nil (a standalone buffer), behind a frame's
			// headroom (how every message is really sent), and behind an
			// arbitrary prefix.
			for _, prefix := range [][]byte{nil, resilient.NewFrame(0), []byte("prefix")} {
				n := len(prefix)
				got, err := tc.append(prefix)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got[n:], want) {
					t.Errorf("behind %d bytes the encoder emits\n%x\nwant\n%x", n, got[n:], want)
				}
			}
		})
	}
}

// TestSlabFrameGolden pins the worker's in-place reply: a slab written
// through newSlabFrame's view is byte-identical to AppendTransformResp of
// the same slab.
func TestSlabFrameGolden(t *testing.T) {
	rr := hsi.RowRange{Index: 3, Y0: 40, Y1: 42}
	slab := goldenSlab(rr)
	frame, rgb := newSlabFrame(rr, slab.Width, rr.Rows()*slab.Width)
	copy(rgb, slab.RGB)
	want, _ := hex.DecodeString(goldenTransformResp)
	if got := frame[resilient.Headroom:]; !bytes.Equal(got, want) {
		t.Fatalf("slab frame payload\n%x\nwant\n%x", got, want)
	}
}

// TestWireCubeBitsSurviveRoundTrip decodes the golden requests and checks
// every sample and wavelength bit pattern, NaN payloads included.
func TestWireCubeBitsSurviveRoundTrip(t *testing.T) {
	for _, wl := range []bool{true, false} {
		src := goldenCube(wl)
		enc, err := AppendScreenReq(nil, &ScreenReq{Range: hsi.RowRange{Y1: 2}, Cube: src})
		if err != nil {
			t.Fatal(err)
		}
		req, err := DecodeScreenReq(enc)
		if err != nil {
			t.Fatal(err)
		}
		for i := range src.Data {
			if got, want := math.Float32bits(req.Cube.Data[i]), math.Float32bits(src.Data[i]); got != want {
				t.Errorf("wavelengths=%v sample %d: bits %08x, want %08x", wl, i, got, want)
			}
		}
		if len(req.Cube.Wavelengths) != len(src.Wavelengths) {
			t.Fatalf("wavelengths=%v: decoded %d wavelengths", wl, len(req.Cube.Wavelengths))
		}
		for i := range src.Wavelengths {
			if got, want := math.Float64bits(req.Cube.Wavelengths[i]), math.Float64bits(src.Wavelengths[i]); got != want {
				t.Errorf("wavelength %d: bits %016x, want %016x", i, got, want)
			}
		}
	}
}

const (
	goldenScreenReqWL = "03000000280000002a0000004853494301000100030000000200000002000000" +
		"0000000000087940bc0a00000000f87f000000000000008001000000ffff7f80" +
		"0000807f000080ff0100c07f4523c1ff0000a07f0100807f0000c03f79e9f6c2"
	goldenScreenReqBare = "03000000280000002a0000004853494301000000030000000200000002000000" +
		"000000000000008001000000ffff7f800000807f000080ff0100c07f4523c1ff" +
		"0000a07f0100807f0000c03f79e9f6c2"
	goldenTransformReqWL = "03000000280000002a000000010000000200000003000000000000000000f03f" +
		"0000000000000040333333333333e33f9a9999999999e93f9a9999999999e9bf" +
		"333333333333e33f0000000000000000000000000000f03f000000000000e03f" +
		"0000000000000040000000000000f0bf000000000000d03f0000000000000000" +
		"000000000000f03f485349430100010003000000020000000200000000000000" +
		"00087940bc0a00000000f87f000000000000008001000000ffff7f800000807f" +
		"000080ff0100c07f4523c1ff0000a07f0100807f0000c03f79e9f6c2"
	goldenTransformReqBare = "03000000280000002a000000010000000200000003000000000000000000f03f" +
		"0000000000000040333333333333e33f9a9999999999e93f9a9999999999e9bf" +
		"333333333333e33f0000000000000000000000000000f03f000000000000e03f" +
		"0000000000000040000000000000f0bf000000000000d03f0000000000000000" +
		"000000000000f03f485349430100000003000000020000000200000000000000" +
		"0000008001000000ffff7f800000807f000080ff0100c07f4523c1ff0000a07f" +
		"0100807f0000c03f79e9f6c2"
	goldenTransformReqCached = "03000000280000002a000000000000000200000003000000000000000000f03f" +
		"0000000000000040333333333333e33f9a9999999999e93f9a9999999999e9bf" +
		"333333333333e33f0000000000000000000000000000f03f000000000000e03f" +
		"0000000000000040000000000000f0bf000000000000d03f0000000000000000" +
		"000000000000f03f"
	goldenTransformResp = "03000000280000002a0000000300000001080f161d242b323940474e555c636a" +
		"7178"
	goldenScreenResp = "020000000200000002000000060000000000000000000000020000000f000000" +
		"00000000000000000000f03f00000000000000c0000000000000f07f01000000" +
		"0000f87f"
	goldenScreenRespEmpty = "0700000000000000000000000000000000000000000000000000000000000000" +
		"00000000"
	goldenCovReq = "010000000200000002000000000000000000f03f000000000000004000000000" +
		"0000e03f000000000000e0bf00000000000000400000000000000080"
	goldenCovResp = "0300000002000000000000000000f03f00000000000000400000000000000040" +
		"0100000000000000"
)
