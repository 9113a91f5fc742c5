package fuse

import (
	"encoding/binary"
	"math"
	"testing"

	"resilientfusion/internal/hsi"
)

// tileKernels returns the registered algorithms that have a tile kernel,
// in sorted name order.
func tileKernels() []Algorithm {
	var out []Algorithm
	for _, name := range Names() {
		if a, _ := Lookup(name); a.FuseTile != nil {
			out = append(out, a)
		}
	}
	return out
}

// fuzzTile builds a w×h×bands tile (each side 1..8) whose samples are
// data's little-endian float32 bit patterns, repeated to fill the tile.
func fuzzTile(w, h, bands uint8, data []byte) *hsi.Cube {
	c := hsi.MustNewCube(1+int(w%8), 1+int(h%8), 1+int(bands%8))
	if n := len(data) / 4; n > 0 {
		for i := range c.Data {
			c.Data[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*(i%n):]))
		}
	}
	return c
}

// samples encodes float32 samples as fuzz input bytes.
func samples(vs ...float32) []byte {
	out := make([]byte, 0, 4*len(vs))
	for _, v := range vs {
		out = binary.LittleEndian.AppendUint32(out, math.Float32bits(v))
	}
	return out
}

// FuzzFuseTile feeds every tile kernel arbitrary sample bit patterns and
// shapes down to 1×1×1: each call returns its RGB bytes or an error, and
// never panics — a worker panic is a failed job.
func FuzzFuseTile(f *testing.F) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	seeds := [][]byte{
		samples(nan),
		samples(120, 121, nan, 119, 122, 118, 125, 117),
		samples(inf),
		samples(-inf),
		samples(100, inf, 90, -inf, 80, 70, 60, 50),
		samples(65535),
		samples(10, 65535, 12, 11, 9, 13, 10, 8),
		samples(42), // every band constant
		nil,         // all zero
	}
	kernels := tileKernels()
	for alg := range kernels {
		for _, s := range seeds {
			f.Add(uint8(alg), uint8(7), uint8(7), uint8(11), s)
			f.Add(uint8(alg), uint8(0), uint8(0), uint8(0), s)
		}
	}
	f.Fuzz(func(t *testing.T, alg, w, h, bands uint8, data []byte) {
		a := kernels[int(alg)%len(kernels)]
		tile := fuzzTile(w, h, bands, data)
		rgb := make([]byte, tile.Pixels()*3)
		// An error is an answer; only a panic fails.
		_ = a.FuseTile(tile, 1, rgb)
	})
}
