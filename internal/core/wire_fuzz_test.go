package core

import (
	"bytes"
	"testing"

	"resilientfusion/internal/colormap"
	"resilientfusion/internal/hsi"
	"resilientfusion/internal/linalg"
	"resilientfusion/internal/spectral"
)

// Message kinds for FuzzWireDecoders' dispatch byte, one per wire
// envelope.
const (
	fuzzScreenReq = iota
	fuzzScreenResp
	fuzzCovReq
	fuzzCovResp
	fuzzTransformReq
	fuzzTransformResp
	fuzzCacheMiss
	fuzzKinds
)

// FuzzWireDecoders drives every wire envelope decoder with arbitrary
// bytes. Properties: no decoder panics or over-allocates on corrupt
// input, and any payload a decoder accepts canonicalizes — re-encoding
// the decoded value and decoding again reproduces the same bytes.
// Comparing encodings (not structs) keeps the check exact in the
// presence of NaN payloads, which the codec preserves bit-for-bit.
func FuzzWireDecoders(f *testing.F) {
	cube := hsi.MustNewCube(3, 2, 2)
	for i := range cube.Data {
		cube.Data[i] = float32(i) * 0.5
	}
	cube.Wavelengths = []float64{500, 600}

	if seed, err := AppendScreenReq(nil, &ScreenReq{
		Range: hsi.RowRange{Index: 1, Y0: 0, Y1: 2},
		Cube:  cube,
	}); err == nil {
		f.Add(uint8(fuzzScreenReq), seed)
	}
	f.Add(uint8(fuzzScreenResp), AppendScreenResp(nil, &ScreenResp{
		Index:   2,
		Stats:   spectral.Stats{Scanned: 6, Comparisons: 12, SeqComparisons: 15},
		Vectors: []linalg.Vector{{1, 2}, {3, 4}},
	}))
	f.Add(uint8(fuzzCovReq), AppendCovReq(nil, &CovReq{
		Part:    1,
		Mean:    linalg.Vector{1, 2},
		Vectors: []linalg.Vector{{0.5, -0.5}, {2, 4}},
	}))
	f.Add(uint8(fuzzCovResp), AppendCovResp(nil, &CovResp{
		Part: 3,
		Sum:  linalg.NewMatrixFrom(2, 2, []float64{1, 2, 2, 5}),
	}))
	for _, withCube := range []*hsi.Cube{nil, cube} {
		if seed, err := AppendTransformReq(nil, &TransformReq{
			Range:     hsi.RowRange{Index: 0, Y0: 0, Y1: 2},
			Mean:      linalg.Vector{1, 2},
			Transform: linalg.NewMatrixFrom(1, 2, []float64{0.6, 0.8}),
			Stretches: []colormap.Stretch{{Center: 0.5, Scale: 2}},
			Cube:      withCube,
		}); err == nil {
			f.Add(uint8(fuzzTransformReq), seed)
		}
	}
	f.Add(uint8(fuzzTransformResp), AppendTransformResp(nil, &TransformResp{
		Range: hsi.RowRange{Index: 0, Y0: 0, Y1: 2},
		Width: 3,
		RGB:   bytes.Repeat([]byte{10, 20, 30}, 6),
	}))
	f.Add(uint8(fuzzCacheMiss), AppendCacheMiss(nil, 7))
	f.Add(uint8(fuzzScreenReq), []byte{})
	f.Add(uint8(fuzzScreenResp), []byte{1, 2, 3})

	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		check := func(enc1 []byte, err1 error, redecode func([]byte) ([]byte, error)) {
			if err1 != nil {
				t.Fatalf("re-encoding a decoded message failed: %v", err1)
			}
			enc2, err2 := redecode(enc1)
			if err2 != nil {
				t.Fatalf("decode of re-encoded message failed: %v", err2)
			}
			if !bytes.Equal(enc1, enc2) {
				t.Fatalf("encoding not canonical: %d bytes then %d bytes differ", len(enc1), len(enc2))
			}
		}
		switch kind % fuzzKinds {
		case fuzzScreenReq:
			v, err := DecodeScreenReq(data)
			if err != nil {
				return
			}
			enc, encErr := AppendScreenReq(nil, v)
			check(enc, encErr, func(p []byte) ([]byte, error) {
				v2, err := DecodeScreenReq(p)
				if err != nil {
					return nil, err
				}
				return AppendScreenReq(nil, v2)
			})
		case fuzzScreenResp:
			v, err := DecodeScreenResp(data)
			if err != nil {
				return
			}
			check(AppendScreenResp(nil, v), nil, func(p []byte) ([]byte, error) {
				v2, err := DecodeScreenResp(p)
				if err != nil {
					return nil, err
				}
				return AppendScreenResp(nil, v2), nil
			})
		case fuzzCovReq:
			v, err := DecodeCovReq(data)
			if err != nil {
				return
			}
			check(AppendCovReq(nil, v), nil, func(p []byte) ([]byte, error) {
				v2, err := DecodeCovReq(p)
				if err != nil {
					return nil, err
				}
				return AppendCovReq(nil, v2), nil
			})
		case fuzzCovResp:
			v, err := DecodeCovResp(data)
			if err != nil {
				return
			}
			check(AppendCovResp(nil, v), nil, func(p []byte) ([]byte, error) {
				v2, err := DecodeCovResp(p)
				if err != nil {
					return nil, err
				}
				return AppendCovResp(nil, v2), nil
			})
		case fuzzTransformReq:
			v, err := DecodeTransformReq(data)
			if err != nil {
				return
			}
			enc, encErr := AppendTransformReq(nil, v)
			check(enc, encErr, func(p []byte) ([]byte, error) {
				v2, err := DecodeTransformReq(p)
				if err != nil {
					return nil, err
				}
				return AppendTransformReq(nil, v2)
			})
		case fuzzTransformResp:
			v, err := DecodeTransformResp(data)
			if err != nil {
				return
			}
			check(AppendTransformResp(nil, v), nil, func(p []byte) ([]byte, error) {
				v2, err := DecodeTransformResp(p)
				if err != nil {
					return nil, err
				}
				return AppendTransformResp(nil, v2), nil
			})
		case fuzzCacheMiss:
			idx, err := DecodeCacheMiss(data)
			if err != nil {
				return
			}
			enc := AppendCacheMiss(nil, idx)
			idx2, err := DecodeCacheMiss(enc)
			if err != nil || idx2 != idx {
				t.Fatalf("cache-miss round trip: idx %d -> %d, err %v", idx, idx2, err)
			}
		}
	})
}
