// Package core implements the paper's primary contribution: the
// distributed, intrusion-tolerant spectral-screening PCT fusion pipeline.
// A manager thread partitions the hyper-spectral cube into sub-cubes and
// drives replicated workers through the 8 algorithm steps over the
// resilient layer; workers overlap communication with computation by
// holding prefetched sub-problems, and the sub-cube count (granularity)
// is a tunable multiple of the worker count, exactly as evaluated in the
// paper's Figures 4 and 5.
package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"resilientfusion/internal/colormap"
	"resilientfusion/internal/hsi"
	"resilientfusion/internal/linalg"
	"resilientfusion/internal/resilient"
	"resilientfusion/internal/spectral"
)

// Application message kinds (all below resilient.CtrlBase).
const (
	// KindScreenReq carries a sub-cube to screen (step 1).
	KindScreenReq uint16 = iota + 1
	// KindScreenResp returns a sub-cube's unique set.
	KindScreenResp
	// KindCovReq carries a unique-set part and the mean (step 4).
	KindCovReq
	// KindCovResp returns a covariance partial sum.
	KindCovResp
	// KindTransformReq asks a worker to transform + color-map a cached
	// sub-cube (steps 7–8); it carries the data too on cache misses.
	KindTransformReq
	// KindTransformResp returns a color-mapped image slab.
	KindTransformResp
	// KindCacheMiss reports that a worker no longer holds a sub-cube
	// (it was regenerated); the manager resends with data.
	KindCacheMiss
	// KindStop shuts a worker down gracefully.
	KindStop
	// KindFuseReq carries a sub-cube for a tile-kernel algorithm
	// (pyramid, dwt): the whole per-tile fusion in one request.
	KindFuseReq
	// KindFuseResp returns a tile kernel's fused RGB slab.
	KindFuseResp
)

// ErrWire reports malformed fusion payloads.
var ErrWire = errors.New("core: malformed wire payload")

// --- primitives ---
//
// Every encoder is append-style: AppendX grows dst once by the message's
// exact size and writes the fields in place behind whatever dst already
// holds, so a sender that starts from resilient.NewFrame gets its message
// laid out behind reserved header room and the layers below never copy it
// (AppendX onto nil gives a standalone exact-size buffer). Float payloads — sub-cube samples,
// unique-set vectors, covariance matrices, the transform — are encoded
// and decoded in bulk by tight loops, one pass over the bytes. Vector
// sets additionally decode into a single staging backing (two
// allocations total, mirroring hsi.Cube.PixelRows) instead of one
// allocation per vector.

var appendU32 = binary.LittleEndian.AppendUint32

// grow returns dst with room for n more bytes, reallocating at most once
// and to exactly that size. (slices.Grow rounds up, and under the race
// detector allocates the extension twice, which would blur the copy-budget
// tests CI runs with -race.)
func grow(dst []byte, n int) []byte {
	if cap(dst)-len(dst) >= n {
		return dst
	}
	out := make([]byte, len(dst), len(dst)+n)
	copy(out, dst)
	return out
}

// encodeF64s fills dst (exactly 8·len(vs) bytes) with vs little-endian.
func encodeF64s(dst []byte, vs []float64) {
	_ = dst[:8*len(vs)] // one bounds check up front
	for i, v := range vs {
		binary.LittleEndian.PutUint64(dst[i*8:], math.Float64bits(v))
	}
}

// decodeF64s fills dst from exactly 8·len(dst) bytes of src.
func decodeF64s(src []byte, dst []float64) {
	_ = src[:8*len(dst)]
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[i*8:]))
	}
}

// appendF64s appends vs to dst (which the caller has already grown).
func appendF64s(dst []byte, vs []float64) []byte {
	n := len(dst)
	dst = dst[:n+8*len(vs)]
	encodeF64s(dst[n:], vs)
	return dst
}

// appendVectors appends a vector set back to back.
func appendVectors(dst []byte, vs []linalg.Vector) []byte {
	for _, v := range vs {
		dst = appendF64s(dst, v)
	}
	return dst
}

type reader struct {
	b   []byte
	off int
}

func (r *reader) u32() (uint32, error) {
	if r.off+4 > len(r.b) {
		return 0, ErrWire
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v, nil
}

func (r *reader) f64s(n int) ([]float64, error) {
	raw, err := r.bytes(8 * n)
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	decodeF64s(raw, out)
	return out, nil
}

// f64Vectors decodes count vectors of dimension n as views over one
// staging backing — the decode-side analogue of the hsi staging views.
// Callers retaining a subset (the manager keeps unique-set members) pin
// the whole backing, the same trade PixelRows makes.
func (r *reader) f64Vectors(count, n int) ([]linalg.Vector, error) {
	if count < 0 || n < 0 || (n > 0 && count > (1<<40)/n) {
		return nil, ErrWire
	}
	raw, err := r.bytes(8 * count * n)
	if err != nil {
		return nil, err
	}
	backing := make([]float64, count*n)
	decodeF64s(raw, backing)
	out := make([]linalg.Vector, count)
	for i := range out {
		// Three-index slices: an append on one vector reallocates rather
		// than clobbering its neighbour in the shared backing.
		out[i] = linalg.Vector(backing[i*n : (i+1)*n : (i+1)*n])
	}
	return out, nil
}

func (r *reader) bytes(n int) ([]byte, error) {
	if n < 0 || r.off+n > len(r.b) {
		return nil, ErrWire
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out, nil
}

// --- ScreenReq: index, y0, y1, cube ---

// ScreenReq is a screening sub-problem.
type ScreenReq struct {
	Range hsi.RowRange
	Cube  *hsi.Cube
}

// AppendScreenReq appends a serialized screening request to dst.
func AppendScreenReq(dst []byte, req *ScreenReq) ([]byte, error) {
	dst = grow(dst, 12+int(req.Cube.EncodedSize()))
	dst = appendU32(dst, uint32(req.Range.Index))
	dst = appendU32(dst, uint32(req.Range.Y0))
	dst = appendU32(dst, uint32(req.Range.Y1))
	return req.Cube.AppendTo(dst)
}

// DecodeScreenReq parses a screening request.
func DecodeScreenReq(p []byte) (*ScreenReq, error) {
	r := &reader{b: p}
	idx, err := r.u32()
	if err != nil {
		return nil, err
	}
	y0, err := r.u32()
	if err != nil {
		return nil, err
	}
	y1, err := r.u32()
	if err != nil {
		return nil, err
	}
	cube, err := readWireCube(p[r.off:])
	if err != nil {
		return nil, err
	}
	return &ScreenReq{
		Range: hsi.RowRange{Index: int(idx), Y0: int(y0), Y1: int(y1)},
		Cube:  cube,
	}, nil
}

// readWireCube decodes an embedded cube straight out of the payload. The
// bytes present bound the decoder: a valid encoding never claims more
// than its payload holds, so a corrupt header is rejected before it can
// demand a giant sample allocation.
func readWireCube(p []byte) (*hsi.Cube, error) {
	cube, err := hsi.DecodeCube(p)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrWire, err)
	}
	return cube, nil
}

// --- ScreenResp: index, K, n, stats, vectors ---

// ScreenResp carries a sub-cube's unique set back to the manager, plus
// the screening workload the worker measured (the manager aggregates
// Result.ScreenStats from these so experiment reporting sees the whole
// job's screening cost, actual and sequential-equivalent).
type ScreenResp struct {
	Index   int
	Stats   spectral.Stats
	Vectors []linalg.Vector
}

// screenRespHeader is the fixed prefix: index, K, n (u32 each) plus the
// three stats counters (u64 each — comparison counts overflow u32 on
// large sub-cubes).
const screenRespHeader = 12 + 24

// AppendScreenResp appends a serialized screening response to dst (all
// vectors share the unique set's dimension).
func AppendScreenResp(dst []byte, resp *ScreenResp) []byte {
	n := 0
	if len(resp.Vectors) > 0 {
		n = len(resp.Vectors[0])
	}
	dst = grow(dst, screenRespHeader+8*len(resp.Vectors)*n)
	dst = appendU32(dst, uint32(resp.Index))
	dst = appendU32(dst, uint32(len(resp.Vectors)))
	dst = appendU32(dst, uint32(n))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(resp.Stats.Scanned))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(resp.Stats.Comparisons))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(resp.Stats.SeqComparisons))
	return appendVectors(dst, resp.Vectors)
}

// DecodeScreenResp parses a screening response; the vectors are views
// over one staging backing.
func DecodeScreenResp(p []byte) (*ScreenResp, error) {
	r := &reader{b: p}
	idx, err := r.u32()
	if err != nil {
		return nil, err
	}
	k, err := r.u32()
	if err != nil {
		return nil, err
	}
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if k > 1<<24 || n > 1<<20 {
		return nil, ErrWire
	}
	var st spectral.Stats
	for _, dst := range []*int{&st.Scanned, &st.Comparisons, &st.SeqComparisons} {
		raw, err := r.bytes(8)
		if err != nil {
			return nil, err
		}
		v := binary.LittleEndian.Uint64(raw)
		if v > math.MaxInt {
			return nil, ErrWire
		}
		*dst = int(v)
	}
	vectors, err := r.f64Vectors(int(k), int(n))
	if err != nil {
		return nil, err
	}
	return &ScreenResp{Index: int(idx), Stats: st, Vectors: vectors}, nil
}

// --- CovReq: part, count, n, mean, vectors ---

// CovReq asks a worker for a covariance partial sum over a slice of the
// unique set.
type CovReq struct {
	Part    int
	Mean    linalg.Vector
	Vectors []linalg.Vector
}

// AppendCovReq appends a serialized covariance request to dst.
func AppendCovReq(dst []byte, req *CovReq) []byte {
	n := len(req.Mean)
	dst = grow(dst, 12+8*n+8*len(req.Vectors)*n)
	dst = appendU32(dst, uint32(req.Part))
	dst = appendU32(dst, uint32(len(req.Vectors)))
	dst = appendU32(dst, uint32(n))
	dst = appendF64s(dst, req.Mean)
	return appendVectors(dst, req.Vectors)
}

// DecodeCovReq parses a covariance request; the vectors are views over
// one staging backing.
func DecodeCovReq(p []byte) (*CovReq, error) {
	r := &reader{b: p}
	part, err := r.u32()
	if err != nil {
		return nil, err
	}
	count, err := r.u32()
	if err != nil {
		return nil, err
	}
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if count > 1<<24 || n > 1<<20 {
		return nil, ErrWire
	}
	mean, err := r.f64s(int(n))
	if err != nil {
		return nil, err
	}
	vectors, err := r.f64Vectors(int(count), int(n))
	if err != nil {
		return nil, err
	}
	return &CovReq{Part: int(part), Mean: mean, Vectors: vectors}, nil
}

// --- CovResp: part, n, matrix ---

// CovResp returns a covariance partial sum.
type CovResp struct {
	Part int
	Sum  *linalg.Matrix
}

// AppendCovResp appends a serialized covariance response to dst (the n×n
// sum is a single bulk encode).
func AppendCovResp(dst []byte, resp *CovResp) []byte {
	dst = grow(dst, 8+8*len(resp.Sum.Data))
	dst = appendU32(dst, uint32(resp.Part))
	dst = appendU32(dst, uint32(resp.Sum.Rows))
	return appendF64s(dst, resp.Sum.Data)
}

// DecodeCovResp parses a covariance response.
func DecodeCovResp(p []byte) (*CovResp, error) {
	r := &reader{b: p}
	part, err := r.u32()
	if err != nil {
		return nil, err
	}
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if n > 1<<16 {
		return nil, ErrWire
	}
	data, err := r.f64s(int(n) * int(n))
	if err != nil {
		return nil, err
	}
	return &CovResp{Part: int(part), Sum: linalg.NewMatrixFrom(int(n), int(n), data)}, nil
}

// --- TransformReq: index, flags, n, comps, mean, transform, stretches, [cube] ---

// TransformReq asks for steps 7–8 on a sub-cube. When Cube is nil the
// worker uses its cached copy from the screening phase; the manager
// resends data after a cache miss or reissue.
type TransformReq struct {
	Range     hsi.RowRange
	Mean      linalg.Vector
	Transform *linalg.Matrix // comps×n
	Stretches []colormap.Stretch
	Cube      *hsi.Cube // optional
}

// AppendTransformReq appends a serialized transform request to dst.
func AppendTransformReq(dst []byte, req *TransformReq) ([]byte, error) {
	size := 24 + 8*(len(req.Mean)+len(req.Transform.Data)+2*len(req.Stretches))
	hasData := uint32(0)
	if req.Cube != nil {
		hasData = 1
		size += int(req.Cube.EncodedSize())
	}
	dst = grow(dst, size)
	dst = appendU32(dst, uint32(req.Range.Index))
	dst = appendU32(dst, uint32(req.Range.Y0))
	dst = appendU32(dst, uint32(req.Range.Y1))
	dst = appendU32(dst, hasData)
	dst = appendU32(dst, uint32(len(req.Mean)))
	dst = appendU32(dst, uint32(req.Transform.Rows))
	dst = appendF64s(dst, req.Mean)
	dst = appendF64s(dst, req.Transform.Data)
	for _, s := range req.Stretches {
		dst = appendF64s(dst, []float64{s.Center, s.Scale})
	}
	if req.Cube != nil {
		return req.Cube.AppendTo(dst)
	}
	return dst, nil
}

// DecodeTransformReq parses a transform request.
func DecodeTransformReq(p []byte) (*TransformReq, error) {
	r := &reader{b: p}
	idx, err := r.u32()
	if err != nil {
		return nil, err
	}
	y0, err := r.u32()
	if err != nil {
		return nil, err
	}
	y1, err := r.u32()
	if err != nil {
		return nil, err
	}
	hasData, err := r.u32()
	if err != nil {
		return nil, err
	}
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	comps, err := r.u32()
	if err != nil {
		return nil, err
	}
	if n > 1<<20 || comps > 64 {
		return nil, ErrWire
	}
	mean, err := r.f64s(int(n))
	if err != nil {
		return nil, err
	}
	tdata, err := r.f64s(int(comps) * int(n))
	if err != nil {
		return nil, err
	}
	out := &TransformReq{
		Range:     hsi.RowRange{Index: int(idx), Y0: int(y0), Y1: int(y1)},
		Mean:      mean,
		Transform: linalg.NewMatrixFrom(int(comps), int(n), tdata),
	}
	for i := 0; i < int(comps); i++ {
		cs, err := r.f64s(2)
		if err != nil {
			return nil, err
		}
		out.Stretches = append(out.Stretches, colormap.Stretch{Center: cs[0], Scale: cs[1]})
	}
	if hasData == 1 {
		cube, err := readWireCube(p[r.off:])
		if err != nil {
			return nil, err
		}
		out.Cube = cube
	}
	return out, nil
}

// --- TransformResp: index, y0, y1, width, rgb ---

// TransformResp returns the color-mapped slab for a sub-cube: 3 bytes
// per pixel, row-major.
type TransformResp struct {
	Range hsi.RowRange
	Width int
	RGB   []byte
}

// slabRespHeader is the fixed prefix of a transform response: index, y0,
// y1, width (u32 each); the RGB slab follows.
const slabRespHeader = 16

func appendSlabHeader(dst []byte, rr hsi.RowRange, width int) []byte {
	dst = appendU32(dst, uint32(rr.Index))
	dst = appendU32(dst, uint32(rr.Y0))
	dst = appendU32(dst, uint32(rr.Y1))
	return appendU32(dst, uint32(width))
}

// newSlabFrame starts a transform (or fuse) response frame for a tile of
// the given pixel count: the header is in place and rgb views the slab
// bytes behind it, so the kernel writes the reply where it will be sent
// from.
func newSlabFrame(rr hsi.RowRange, width, pixels int) (frame, rgb []byte) {
	frame = appendSlabHeader(resilient.NewFrame(slabRespHeader+3*pixels), rr, width)
	n := len(frame)
	frame = frame[:n+3*pixels]
	return frame, frame[n:]
}

// DecodeTransformResp parses a transform response; RGB is a view into p.
func DecodeTransformResp(p []byte) (*TransformResp, error) {
	r := &reader{b: p}
	idx, err := r.u32()
	if err != nil {
		return nil, err
	}
	y0, err := r.u32()
	if err != nil {
		return nil, err
	}
	y1, err := r.u32()
	if err != nil {
		return nil, err
	}
	w, err := r.u32()
	if err != nil {
		return nil, err
	}
	if w > 1<<20 || y1 < y0 {
		return nil, ErrWire
	}
	rows := int(y1) - int(y0)
	rgb, err := r.bytes(rows * int(w) * 3)
	if err != nil {
		return nil, err
	}
	return &TransformResp{
		Range: hsi.RowRange{Index: int(idx), Y0: int(y0), Y1: int(y1)},
		Width: int(w),
		RGB:   rgb,
	}, nil
}

// --- CacheMiss: index ---

// AppendCacheMiss appends a serialized cache-miss notice to dst.
func AppendCacheMiss(dst []byte, index int) []byte { return appendU32(dst, uint32(index)) }

// DecodeCacheMiss parses a cache-miss notice.
func DecodeCacheMiss(p []byte) (int, error) {
	r := &reader{b: p}
	idx, err := r.u32()
	return int(idx), err
}

// --- Fuse: tile-kernel algorithms (pyramid, dwt) ---
//
// A fuse request ships a sub-cube exactly like a screening request, and
// a fuse response returns the tile's color-mapped slab exactly like a
// transform response, so both reuse those codecs byte-for-byte: the
// message kind, not the payload layout, is what distinguishes the
// single-phase tile-kernel exchange from the multi-phase pct protocol.

// FuseReq carries a sub-cube for one whole-tile fusion.
type FuseReq = ScreenReq

// FuseResp returns a tile's fused RGB slab.
type FuseResp = TransformResp

// DecodeFuseReq parses a tile-fusion request.
func DecodeFuseReq(p []byte) (*FuseReq, error) { return DecodeScreenReq(p) }
