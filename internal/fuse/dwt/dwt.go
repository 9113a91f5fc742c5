// Package dwt implements discrete-wavelet-transform fusion as a pure-Go
// tiled kernel: a multi-level 2D Haar transform per band, detail
// subbands selected by an activity score (variance + histogram entropy
// of the coefficient magnitudes), the deepest approximation averaged,
// and the fused coefficients inverse-transformed into one plane.
//
// Per tile, the bands are split into three contiguous groups; each group
// fuses into one intensity plane that is min/max-stretched into the R, G
// or B channel (same composite reading as the pyramid path).
//
// Odd extents are handled by pairing (0,1), (2,3), … and copying the
// unpaired tail sample into the approximation half, so the transform is
// exactly invertible at every tile shape — including the single-row
// slabs small tiles decompose into.
//
// Determinism contract: only the per-band forward transform fans out
// (linalg.ParallelShards, one shard per band, each writing its own
// slot); scoring, selection, merging and the inverse transform run
// sequentially in fixed band/level/subband order, so output is
// bit-identical at every parallelism setting.
package dwt

import (
	"fmt"
	"math"

	"resilientfusion/internal/hsi"
	"resilientfusion/internal/linalg"
)

// maxLevels caps the decomposition depth.
const maxLevels = 3

// entropyBins is the histogram resolution of the entropy term.
const entropyBins = 64

// Levels returns the number of 2D Haar decomposition steps for a w×h
// plane: halve while the short side stays at least 8 samples, capped at
// maxLevels, and at least one step so degenerate tiles still fuse
// through the wavelet domain.
func Levels(w, h int) int {
	m := w
	if h < m {
		m = h
	}
	l := 1
	for s := m; s >= 8 && l < maxLevels; s = (s + 1) / 2 {
		l++
	}
	return l
}

// Fuse fuses tile into packed RGB (3 bytes per pixel, row-major). It is
// a pure function of the tile contents; rgb must hold tile.Pixels()*3
// bytes.
func Fuse(tile *hsi.Cube, parallelism int, rgb []byte) error {
	if err := tile.Validate(); err != nil {
		return err
	}
	if len(rgb) < tile.Pixels()*3 {
		return fmt.Errorf("dwt: rgb buffer %d for %d pixels", len(rgb), tile.Pixels())
	}
	for ch, g := range bandGroups(tile.Bands) {
		plane := fuseGroup(tile, g.lo, g.hi, parallelism)
		writeChannel(rgb, plane, ch)
	}
	return nil
}

// group is a contiguous half-open band interval.
type group struct{ lo, hi int }

// bandGroups splits bands into three contiguous groups (first groups get
// the extra bands); with fewer than 3 bands trailing groups reuse the
// last band so every channel gets a plane.
func bandGroups(bands int) [3]group {
	var out [3]group
	base, extra := bands/3, bands%3
	lo := 0
	for i := 0; i < 3; i++ {
		n := base
		if i < extra {
			n++
		}
		if n == 0 {
			n = 1
			if lo >= bands {
				lo = bands - 1
			}
		}
		out[i] = group{lo: lo, hi: lo + n}
		if out[i].hi > bands {
			out[i].hi = bands
		}
		lo = out[i].hi
	}
	return out
}

// region is one rectangular coefficient region of the packed transform
// plane: origin (x0, y0), extent w×h.
type region struct{ x0, y0, w, h int }

// subbands returns the coefficient layout of a levels-deep transform of
// a w×h plane: per level the three detail regions (LH: horizontal
// detail below, HL: vertical detail right, HH: diagonal corner), plus
// the final approximation region. Approximation halves ceil-wise each
// level, matching the odd-length pairing rule.
func subbands(w, h, levels int) (details [][3]region, approx region) {
	cw, ch := w, h
	details = make([][3]region, levels)
	for l := 0; l < levels; l++ {
		aw, ah := (cw+1)/2, (ch+1)/2
		details[l] = [3]region{
			{x0: aw, y0: 0, w: cw - aw, h: ah},       // HL
			{x0: 0, y0: ah, w: aw, h: ch - ah},       // LH
			{x0: aw, y0: ah, w: cw - aw, h: ch - ah}, // HH
		}
		cw, ch = aw, ah
	}
	return details, region{x0: 0, y0: 0, w: cw, h: ch}
}

// fuseGroup fuses the band planes of [lo, hi) into one intensity plane
// via per-subband activity selection in the Haar domain.
func fuseGroup(tile *hsi.Cube, lo, hi, parallelism int) []float64 {
	w, h := tile.Width, tile.Height
	n := hi - lo
	levels := Levels(w, h)

	// Forward transform per band: one shard per band, own slot each.
	coeffs := make([][]float64, n)
	linalg.ParallelShards(n, parallelism, func(b int) {
		plane := bandPlane(tile, lo+b)
		forward(plane, w, h, levels)
		coeffs[b] = plane
	})

	details, approx := subbands(w, h, levels)
	fused := make([]float64, w*h)

	// Detail subbands: per level and subband pick the source band with
	// the highest activity score, ascending band order with strict > so
	// ties resolve to the lowest band.
	for l := 0; l < levels; l++ {
		for s := 0; s < 3; s++ {
			r := details[l][s]
			if r.w == 0 || r.h == 0 {
				continue
			}
			best, bestScore := 0, activity(coeffs[0], w, r)
			for b := 1; b < n; b++ {
				if sc := activity(coeffs[b], w, r); sc > bestScore {
					best, bestScore = b, sc
				}
			}
			copyRegion(fused, coeffs[best], w, r)
		}
	}

	// Deepest approximation: average across bands in ascending order.
	inv := 1 / float64(n)
	for y := approx.y0; y < approx.y0+approx.h; y++ {
		for x := approx.x0; x < approx.x0+approx.w; x++ {
			var sum float64
			for b := 0; b < n; b++ {
				sum += coeffs[b][y*w+x]
			}
			fused[y*w+x] = sum * inv
		}
	}

	inverse(fused, w, h, levels)
	return fused
}

// bandPlane copies band b of the tile into a row-major float64 plane.
func bandPlane(tile *hsi.Cube, b int) []float64 {
	out := make([]float64, tile.Pixels())
	bands := tile.Bands
	for p := range out {
		out[p] = float64(tile.Data[p*bands+b])
	}
	return out
}

// activity scores a subband region: coefficient variance plus the
// entropy of a 64-bin histogram of |coefficient| normalized by the
// region max. Both terms accumulate in row-major scan order.
func activity(coeffs []float64, stride int, r region) float64 {
	count := r.w * r.h
	var sum, maxAbs float64
	for y := r.y0; y < r.y0+r.h; y++ {
		for x := r.x0; x < r.x0+r.w; x++ {
			v := coeffs[y*stride+x]
			sum += v
			if a := math.Abs(v); a > maxAbs {
				maxAbs = a
			}
		}
	}
	mean := sum / float64(count)
	var variance float64
	var hist [entropyBins]int
	for y := r.y0; y < r.y0+r.h; y++ {
		for x := r.x0; x < r.x0+r.w; x++ {
			v := coeffs[y*stride+x]
			d := v - mean
			variance += d * d
			// |v| <= maxAbs, so f is at most entropyBins-1 or NaN (0/0, a
			// NaN coefficient, Inf/Inf); NaN fails f > 0 and never
			// reaches int().
			bin := 0
			if f := math.Abs(v) / maxAbs * (entropyBins - 1); f > 0 {
				bin = int(f)
			}
			hist[bin]++
		}
	}
	variance /= float64(count)
	var entropy float64
	for _, c := range hist {
		if c == 0 {
			continue
		}
		p := float64(c) / float64(count)
		entropy -= p * math.Log2(p)
	}
	return variance + entropy
}

// copyRegion copies region r of src into dst (same stride).
func copyRegion(dst, src []float64, stride int, r region) {
	for y := r.y0; y < r.y0+r.h; y++ {
		row := y * stride
		copy(dst[row+r.x0:row+r.x0+r.w], src[row+r.x0:row+r.x0+r.w])
	}
}

// haarForward1D transforms n samples read from buf with the given
// stride in place: pair averages packed first, pair half-differences
// after, an odd tail sample copied to the end of the approximation.
func haarForward1D(buf []float64, n, stride int, tmp []float64) {
	half := (n + 1) / 2
	for i := 0; i+1 < n; i += 2 {
		a, b := buf[i*stride], buf[(i+1)*stride]
		tmp[i/2] = (a + b) / 2
		tmp[half+i/2] = (a - b) / 2
	}
	if n%2 == 1 {
		tmp[half-1] = buf[(n-1)*stride]
	}
	for i := 0; i < n; i++ {
		buf[i*stride] = tmp[i]
	}
}

// haarInverse1D inverts haarForward1D.
func haarInverse1D(buf []float64, n, stride int, tmp []float64) {
	half := (n + 1) / 2
	for i := 0; i+1 < n; i += 2 {
		s, d := buf[(i/2)*stride], buf[(half+i/2)*stride]
		tmp[i] = s + d
		tmp[i+1] = s - d
	}
	if n%2 == 1 {
		tmp[n-1] = buf[(half-1)*stride]
	}
	for i := 0; i < n; i++ {
		buf[i*stride] = tmp[i]
	}
}

// forward runs a levels-deep 2D Haar transform in place: per level all
// rows of the current approximation region, then all columns.
func forward(plane []float64, w, h, levels int) {
	tmp := make([]float64, max(w, h))
	cw, ch := w, h
	for l := 0; l < levels; l++ {
		for y := 0; y < ch; y++ {
			haarForward1D(plane[y*w:], cw, 1, tmp)
		}
		for x := 0; x < cw; x++ {
			haarForward1D(plane[x:], ch, w, tmp)
		}
		cw, ch = (cw+1)/2, (ch+1)/2
	}
}

// inverse undoes forward: levels in reverse order, columns then rows.
func inverse(plane []float64, w, h, levels int) {
	tmp := make([]float64, max(w, h))
	// Recompute the per-level region extents forward, then walk back.
	dims := make([][2]int, levels)
	cw, ch := w, h
	for l := 0; l < levels; l++ {
		dims[l] = [2]int{cw, ch}
		cw, ch = (cw+1)/2, (ch+1)/2
	}
	for l := levels - 1; l >= 0; l-- {
		cw, ch = dims[l][0], dims[l][1]
		for x := 0; x < cw; x++ {
			haarInverse1D(plane[x:], ch, w, tmp)
		}
		for y := 0; y < ch; y++ {
			haarInverse1D(plane[y*w:], cw, 1, tmp)
		}
	}
}

// writeChannel min/max-stretches plane to [0, 255] and stores it in
// channel ch of the packed RGB buffer. A flat plane maps to 0.
func writeChannel(rgb []byte, plane []float64, ch int) {
	lo, hi := plane[0], plane[0]
	for _, v := range plane {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	scale := 0.0
	if hi > lo {
		scale = 255 / (hi - lo)
	}
	for i, v := range plane {
		s := math.Round((v - lo) * scale)
		if s < 0 {
			s = 0
		} else if s > 255 {
			s = 255
		}
		rgb[i*3+ch] = byte(s)
	}
}
