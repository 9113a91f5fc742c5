package hsi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// Binary cube format ("HSIC"):
//
//	magic   [4]byte  "HSIC"
//	version uint16   currently 1
//	flags   uint16   bit 0: wavelength table present
//	width   uint32
//	height  uint32
//	bands   uint32
//	[wavelengths]  bands × float64 (if flag bit 0)
//	data    width·height·bands × float32
//
// All fields little-endian. The format is deliberately trivial: the paper's
// pipeline streams raw sub-cubes between machines, so the on-disk format
// mirrors the wire representation.
//
// Samples cross the codec in one pass: encodeF32s/decodeF32s move them
// straight between Cube.Data and the encoded bytes. The in-memory forms
// (AppendTo, DecodeCube) run that loop over the whole sample array; the
// io forms (StreamWriter, ReadCube) run it over codecChunk-sized windows
// of a single scratch buffer handed directly to the caller's Writer or
// Reader — no bufio layer in between.

var (
	cubeMagic = [4]byte{'H', 'S', 'I', 'C'}

	// ErrBadFormat is returned when decoding malformed cube bytes.
	ErrBadFormat = errors.New("hsi: bad cube format")
	// ErrCubeTooLarge is returned by ReadCubeLimit when the header's
	// claimed dimensions exceed the caller's size bound.
	ErrCubeTooLarge = errors.New("hsi: cube exceeds size limit")
)

const (
	codecVersion       = 1
	flagHasWavelengths = 1 << 0
	headerBytes        = 20
	// maxReasonableDim guards against allocating absurd buffers from
	// corrupt headers.
	maxReasonableDim = 1 << 20
	// codecChunk is the io forms' scratch window in bytes: large enough
	// that a tile is a few dozen Read/Write calls, small enough to stay
	// cache-resident between the copy and the conversion pass.
	codecChunk = 1 << 18
)

// encodeF32s fills dst (exactly 4·len(src) bytes) with src little-endian.
// Four samples per iteration over fixed-size windows: the bounds checks
// hoist out and the loop runs at memory-copy speed.
func encodeF32s(dst []byte, src []float32) {
	dst = dst[:4*len(src)]
	n := len(src) &^ 3
	for i := 0; i < n; i += 4 {
		s := src[i : i+4 : i+4]
		b := dst[4*i : 4*i+16 : 4*i+16]
		binary.LittleEndian.PutUint32(b[0:4], math.Float32bits(s[0]))
		binary.LittleEndian.PutUint32(b[4:8], math.Float32bits(s[1]))
		binary.LittleEndian.PutUint32(b[8:12], math.Float32bits(s[2]))
		binary.LittleEndian.PutUint32(b[12:16], math.Float32bits(s[3]))
	}
	for i := n; i < len(src); i++ {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(src[i]))
	}
}

// decodeF32s fills dst from exactly 4·len(dst) bytes of src; the mirror of
// encodeF32s. Bit patterns (NaN payloads, ±0, denormals) pass unchanged.
func decodeF32s(dst []float32, src []byte) {
	src = src[:4*len(dst)]
	n := len(dst) &^ 3
	for i := 0; i < n; i += 4 {
		d := dst[i : i+4 : i+4]
		b := src[4*i : 4*i+16 : 4*i+16]
		d[0] = math.Float32frombits(binary.LittleEndian.Uint32(b[0:4]))
		d[1] = math.Float32frombits(binary.LittleEndian.Uint32(b[4:8]))
		d[2] = math.Float32frombits(binary.LittleEndian.Uint32(b[8:12]))
		d[3] = math.Float32frombits(binary.LittleEndian.Uint32(b[12:16]))
	}
	for i := n; i < len(dst); i++ {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
}

// appendHeader appends the fixed header and the optional wavelength table.
func appendHeader(dst []byte, width, height, bands int, wavelengths []float64) []byte {
	var flags uint16
	if wavelengths != nil {
		flags |= flagHasWavelengths
	}
	dst = append(dst, cubeMagic[:]...)
	dst = binary.LittleEndian.AppendUint16(dst, codecVersion)
	dst = binary.LittleEndian.AppendUint16(dst, flags)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(width))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(height))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(bands))
	for _, wl := range wavelengths {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(wl))
	}
	return dst
}

// cubeHeader is a validated fixed header.
type cubeHeader struct {
	width, height, bands int
	hasWavelengths       bool
}

// parseHeader validates the 20-byte fixed header.
func parseHeader(hdr []byte) (cubeHeader, error) {
	if [4]byte(hdr[:4]) != cubeMagic {
		return cubeHeader{}, fmt.Errorf("%w: bad magic %q", ErrBadFormat, hdr[:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:]); v != codecVersion {
		return cubeHeader{}, fmt.Errorf("%w: unsupported version %d", ErrBadFormat, v)
	}
	h := cubeHeader{
		width:          int(binary.LittleEndian.Uint32(hdr[8:])),
		height:         int(binary.LittleEndian.Uint32(hdr[12:])),
		bands:          int(binary.LittleEndian.Uint32(hdr[16:])),
		hasWavelengths: binary.LittleEndian.Uint16(hdr[6:])&flagHasWavelengths != 0,
	}
	if h.width <= 0 || h.height <= 0 || h.bands <= 0 ||
		h.width > maxReasonableDim || h.height > maxReasonableDim || h.bands > maxReasonableDim {
		return cubeHeader{}, fmt.Errorf("%w: dims %dx%dx%d", ErrBadFormat, h.width, h.height, h.bands)
	}
	return h, nil
}

// wavelengthBytes is the encoded size of the wavelength table (0 if absent).
func (h cubeHeader) wavelengthBytes() int {
	if h.hasWavelengths {
		return 8 * h.bands
	}
	return 0
}

// encodedSize is the byte count the header claims for the whole cube. Each
// dim is at most 2^20, so the product cannot overflow int64.
func (h cubeHeader) encodedSize() int64 {
	return headerBytes + int64(h.wavelengthBytes()) + 4*int64(h.width)*int64(h.height)*int64(h.bands)
}

// decodeWavelengths parses the wavelength table from exactly 8·bands bytes.
func decodeWavelengths(src []byte) []float64 {
	out := make([]float64, len(src)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[i*8:]))
	}
	return out
}

// AppendTo appends the cube's HSIC encoding to dst, growing it at most
// once, and returns the extended slice. The bytes are identical to
// WriteTo's; this is the form for callers that already hold the
// destination buffer (the wire encoders append a tile behind their own
// header fields).
func (c *Cube) AppendTo(dst []byte) ([]byte, error) {
	if err := c.Validate(); err != nil {
		return dst, err
	}
	dst = slices.Grow(dst, int(c.EncodedSize()))
	dst = appendHeader(dst, c.Width, c.Height, c.Bands, c.Wavelengths)
	n := len(dst)
	dst = dst[:n+4*len(c.Data)]
	encodeF32s(dst[n:], c.Data)
	return dst, nil
}

// DecodeCube parses an HSIC encoding held in memory, converting samples
// straight out of p. It accepts and rejects exactly what ReadCube does on
// the same bytes; the bytes present bound the allocation, so a corrupt
// header cannot demand more sample memory than p could fill. Bytes past
// the encoded cube are ignored, and the cube shares nothing with p.
func DecodeCube(p []byte) (*Cube, error) {
	if len(p) < headerBytes {
		return nil, fmt.Errorf("%w: header: %d bytes", ErrBadFormat, len(p))
	}
	h, err := parseHeader(p[:headerBytes])
	if err != nil {
		return nil, err
	}
	if size := h.encodedSize(); size > int64(len(p)) {
		return nil, fmt.Errorf("%w: header claims %d bytes, have %d", ErrBadFormat, size, len(p))
	}
	c := &Cube{Width: h.width, Height: h.height, Bands: h.bands}
	p = p[headerBytes:]
	if n := h.wavelengthBytes(); n > 0 {
		c.Wavelengths = decodeWavelengths(p[:n])
		p = p[n:]
	}
	c.Data = make([]float32, h.width*h.height*h.bands)
	decodeF32s(c.Data, p)
	return c, nil
}

// WriteTo serializes the cube to w, returning the number of bytes written.
// It is the one-shot form of StreamWriter: the bytes are identical.
func (c *Cube) WriteTo(w io.Writer) (int64, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	sw, err := NewStreamWriter(w, c.Width, c.Height, c.Bands, c.Wavelengths)
	if err != nil {
		return 0, err
	}
	if err := sw.WriteSamples(c.Data); err != nil {
		return sw.Written(), err
	}
	return sw.Written(), sw.Close()
}

// StreamWriter encodes a cube in HSIC format incrementally: the header is
// emitted up front from the declared geometry and samples are appended in
// BIP order in caller-chosen slices (typically bounded row windows), so a
// scene larger than memory can be encoded — or digested — without ever
// materializing its full sample array. Cube.WriteTo is implemented over
// it; the two produce bit-identical bytes for the same geometry and data.
type StreamWriter struct {
	w         io.Writer
	remaining int   // samples still owed before Close
	n         int64 // bytes written
	buf       []byte
}

// NewStreamWriter writes the HSIC header for the given geometry and
// returns a writer expecting exactly width·height·bands samples.
// wavelengths may be nil; when present its length must equal bands.
func NewStreamWriter(w io.Writer, width, height, bands int, wavelengths []float64) (*StreamWriter, error) {
	if width <= 0 || height <= 0 || bands <= 0 {
		return nil, fmt.Errorf("%w: %dx%dx%d", ErrShape, width, height, bands)
	}
	if wavelengths != nil && len(wavelengths) != bands {
		return nil, fmt.Errorf("%w: %d wavelengths for %d bands", ErrShape, len(wavelengths), bands)
	}
	sw := &StreamWriter{w: w, remaining: width * height * bands}
	hdr := appendHeader(make([]byte, 0, headerBytes+8*len(wavelengths)), width, height, bands, wavelengths)
	if _, err := w.Write(hdr); err != nil {
		return nil, err
	}
	sw.n = int64(len(hdr))
	return sw, nil
}

// WriteSamples appends samples in BIP order. Callers may slice the stream
// arbitrarily (per row window, per tile); only the concatenated order
// matters. Writing more samples than the declared geometry holds is an
// error.
func (sw *StreamWriter) WriteSamples(samples []float32) error {
	if len(samples) > sw.remaining {
		return fmt.Errorf("%w: %d samples past the declared geometry", ErrShape, len(samples)-sw.remaining)
	}
	sw.remaining -= len(samples)
	// Encode in chunks to bound the scratch buffer (sized once, from the
	// samples the geometry still owed on the first call).
	if sw.buf == nil {
		sw.buf = make([]byte, min(codecChunk, 4*(len(samples)+sw.remaining)))
	}
	for len(samples) > 0 {
		n := min(len(samples), len(sw.buf)/4)
		b := sw.buf[:4*n]
		encodeF32s(b, samples[:n])
		if _, err := sw.w.Write(b); err != nil {
			return err
		}
		sw.n += int64(len(b))
		samples = samples[n:]
	}
	return nil
}

// Written returns the number of bytes encoded so far.
func (sw *StreamWriter) Written() int64 { return sw.n }

// Close errors if the sample count does not match the declared geometry.
func (sw *StreamWriter) Close() error {
	if sw.remaining != 0 {
		return fmt.Errorf("%w: %d samples short of the declared geometry", ErrShape, sw.remaining)
	}
	return nil
}

// ReadCube deserializes a cube from r.
func ReadCube(r io.Reader) (*Cube, error) { return ReadCubeLimit(r, 0) }

// ReadCubeLimit is ReadCube with an upper bound on the encoded cube
// size, checked against the header's *claimed* dimensions before any
// sample buffer is allocated. Callers decoding untrusted input (the
// fusion service's upload path) need this: a 20-byte header can
// otherwise demand a multi-terabyte allocation. limit <= 0 disables the
// bound. It reads exactly the encoded cube from r, never past it.
func ReadCubeLimit(r io.Reader, limit int64) (*Cube, error) {
	var hdr [headerBytes]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrBadFormat, err)
	}
	h, err := parseHeader(hdr[:])
	if err != nil {
		return nil, err
	}
	if claimed := h.encodedSize(); limit > 0 && claimed > limit {
		return nil, fmt.Errorf("%w: header claims %d bytes, limit %d", ErrCubeTooLarge, claimed, limit)
	}

	c := &Cube{Width: h.width, Height: h.height, Bands: h.bands}
	if n := h.wavelengthBytes(); n > 0 {
		buf := make([]byte, n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, fmt.Errorf("%w: wavelengths: %v", ErrBadFormat, err)
		}
		c.Wavelengths = decodeWavelengths(buf)
	}

	c.Data = make([]float32, h.width*h.height*h.bands)
	const chunk = codecChunk / 4
	buf := make([]byte, 4*min(chunk, len(c.Data)))
	for off := 0; off < len(c.Data); off += chunk {
		end := min(off+chunk, len(c.Data))
		b := buf[:4*(end-off)]
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, fmt.Errorf("%w: samples: %v", ErrBadFormat, err)
		}
		decodeF32s(c.Data[off:end], b)
	}
	return c, nil
}

// SaveFile writes the cube to path in HSIC format.
func (c *Cube) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := c.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile reads a cube in HSIC format from path.
func LoadFile(path string) (*Cube, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCube(f)
}

// EncodedSize returns the exact number of bytes WriteTo will produce,
// used by the performance model to charge network transfer costs.
func (c *Cube) EncodedSize() int64 {
	n := int64(headerBytes)
	if c.Wavelengths != nil {
		n += int64(8 * len(c.Wavelengths))
	}
	return n + int64(4*len(c.Data))
}
