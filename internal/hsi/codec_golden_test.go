package hsi

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/iotest"
)

// goldenCube is a 3×2×2 cube whose samples are the float32 bit patterns a
// codec is most likely to damage.
func goldenCube(wavelengths bool) *Cube {
	c := MustNewCube(3, 2, 2)
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

// The HSIC bytes are pinned: these are what WriteTo emitted before the
// codec went bulk (generated from that tree).
const (
	goldenHSICWavelengths = "48534943010001000300000002000000020000000000000000087940bc0a0000" +
		"0000f87f000000000000008001000000ffff7f800000807f000080ff0100c07f" +
		"4523c1ff0000a07f0100807f0000c03f79e9f6c2"
	goldenHSICBare = "4853494301000000030000000200000002000000000000000000008001000000" +
		"ffff7f800000807f000080ff0100c07f4523c1ff0000a07f0100807f0000c03f" +
		"79e9f6c2"
)

// sameBits reports whether two cubes are identical down to every sample
// and wavelength bit pattern (NaN payloads included).
func sameBits(a, b *Cube) bool {
	if a.Width != b.Width || a.Height != b.Height || a.Bands != b.Bands ||
		len(a.Data) != len(b.Data) || len(a.Wavelengths) != len(b.Wavelengths) ||
		(a.Wavelengths == nil) != (b.Wavelengths == nil) {
		return false
	}
	for i := range a.Data {
		if math.Float32bits(a.Data[i]) != math.Float32bits(b.Data[i]) {
			return false
		}
	}
	for i := range a.Wavelengths {
		if math.Float64bits(a.Wavelengths[i]) != math.Float64bits(b.Wavelengths[i]) {
			return false
		}
	}
	return true
}

// TestCodecGolden pins every encoder to the golden bytes and every
// decoder to the golden cube, bit for bit.
func TestCodecGolden(t *testing.T) {
	for _, tc := range []struct {
		wavelengths bool
		golden      string
	}{{true, goldenHSICWavelengths}, {false, goldenHSICBare}} {
		want, err := hex.DecodeString(tc.golden)
		if err != nil {
			t.Fatal(err)
		}
		c := goldenCube(tc.wavelengths)

		var buf bytes.Buffer
		if _, err := c.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("wavelengths=%v: WriteTo emits\n%x\nwant\n%x", tc.wavelengths, buf.Bytes(), want)
		}
		got, err := c.AppendTo([]byte("prefix"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Errorf("wavelengths=%v: AppendTo emits\n%x\nwant prefix+\n%x", tc.wavelengths, got, want)
		}
		// One sample at a time through the stream writer: chunking must
		// not show in the bytes.
		buf.Reset()
		sw, err := NewStreamWriter(&buf, c.Width, c.Height, c.Bands, c.Wavelengths)
		if err != nil {
			t.Fatal(err)
		}
		for i := range c.Data {
			if err := sw.WriteSamples(c.Data[i : i+1]); err != nil {
				t.Fatal(err)
			}
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) || sw.Written() != int64(len(want)) {
			t.Errorf("wavelengths=%v: StreamWriter emits %d bytes (Written %d)\n%x\nwant\n%x",
				tc.wavelengths, buf.Len(), sw.Written(), buf.Bytes(), want)
		}

		for name, decode := range map[string]func() (*Cube, error){
			"DecodeCube": func() (*Cube, error) { return DecodeCube(want) },
			"ReadCube":   func() (*Cube, error) { return ReadCube(bytes.NewReader(want)) },
			// One byte per Read: the reader's chunking must not show either.
			"ReadCube/dribble": func() (*Cube, error) { return ReadCube(iotest.OneByteReader(bytes.NewReader(want))) },
		} {
			d, err := decode()
			if err != nil {
				t.Fatalf("wavelengths=%v %s: %v", tc.wavelengths, name, err)
			}
			if !sameBits(d, c) {
				t.Errorf("wavelengths=%v %s: decoded cube differs from the source", tc.wavelengths, name)
			}
		}
	}
}

// TestDecodeCubeMatchesReadCube feeds both decoders the same bytes —
// valid, truncated at every length, corrupt in every header field, and
// with trailing garbage — and requires the same verdict and the same
// cube.
func TestDecodeCubeMatchesReadCube(t *testing.T) {
	valid, _ := hex.DecodeString(goldenHSICWavelengths)
	bare, _ := hex.DecodeString(goldenHSICBare)
	patch := func(off int, b ...byte) []byte {
		p := append([]byte(nil), valid...)
		copy(p[off:], b)
		return p
	}
	inputs := map[string][]byte{
		"nil":             nil,
		"bad magic":       patch(0, 'X'),
		"bad version":     patch(4, 2),
		"zero width":      patch(8, 0, 0, 0, 0),
		"zero bands":      patch(16, 0, 0, 0, 0),
		"absurd height":   patch(12, 0, 0, 0x20, 0), // 1<<21 rows
		"oversized claim": patch(12, 0xff, 0xff, 0x0f, 0),
		"negative dim":    patch(8, 0xff, 0xff, 0xff, 0xff),
		"trailing bytes":  append(append([]byte(nil), valid...), "trailing"...),
		"unknown flag":    patch(6, 0x03),
	}
	for n := 0; n <= len(valid); n++ {
		inputs[fmt.Sprintf("wavelengths[:%d]", n)] = valid[:n]
	}
	for n := 0; n <= len(bare); n++ {
		inputs[fmt.Sprintf("bare[:%d]", n)] = bare[:n]
	}
	for name, p := range inputs {
		fromBytes, errB := DecodeCube(p)
		fromReader, errR := ReadCube(bytes.NewReader(p))
		if (errB == nil) != (errR == nil) {
			t.Errorf("%s: DecodeCube err=%v, ReadCube err=%v", name, errB, errR)
			continue
		}
		if errB != nil {
			if !errors.Is(errB, ErrBadFormat) || !errors.Is(errR, ErrBadFormat) {
				t.Errorf("%s: want ErrBadFormat from both, got %v / %v", name, errB, errR)
			}
			continue
		}
		if !sameBits(fromBytes, fromReader) {
			t.Errorf("%s: the two decoders disagree", name)
		}
	}
}
