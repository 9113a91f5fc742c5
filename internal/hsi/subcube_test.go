package hsi

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPartitionCoversExactly(t *testing.T) {
	f := func(height uint16, parts uint8) bool {
		h := int(height%500) + 1
		p := int(parts%40) + 1
		rs := Partition(h, p)
		if len(rs) != p {
			return false
		}
		y := 0
		for i, r := range rs {
			if r.Index != i || r.Y0 != y || r.Y1 < r.Y0 {
				return false
			}
			y = r.Y1
		}
		if y != h {
			return false
		}
		// Balanced: sizes differ by at most one row.
		mn, mx := rs[0].Rows(), rs[0].Rows()
		for _, r := range rs {
			if r.Rows() < mn {
				mn = r.Rows()
			}
			if r.Rows() > mx {
				mx = r.Rows()
			}
		}
		return mx-mn <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionEdgeCases(t *testing.T) {
	if Partition(10, 0) != nil {
		t.Fatal("parts=0 should be nil")
	}
	if Partition(-1, 3) != nil {
		t.Fatal("negative height should be nil")
	}
	rs := Partition(3, 5) // more parts than rows
	if len(rs) != 5 {
		t.Fatalf("len = %d", len(rs))
	}
	total := 0
	for _, r := range rs {
		total += r.Rows()
	}
	if total != 3 {
		t.Fatalf("total rows %d", total)
	}
}

func TestExtractInsertRoundTrip(t *testing.T) {
	c := testCube(t, 8, 10, 4, 11)
	dst := MustNewCube(8, 10, 4)
	for _, rr := range Partition(c.Height, 3) {
		sub, err := Extract(c, rr)
		if err != nil {
			t.Fatal(err)
		}
		if sub.Cube.Height != rr.Rows() || sub.Cube.Width != c.Width || sub.Cube.Bands != c.Bands {
			t.Fatalf("sub shape %v", sub.Cube)
		}
		if err := sub.Insert(dst); err != nil {
			t.Fatal(err)
		}
	}
	if !dst.Equal(c, 0) {
		t.Fatal("Extract+Insert did not reassemble the cube")
	}
}

func TestExtractCopies(t *testing.T) {
	c := testCube(t, 4, 4, 2, 12)
	sub, err := Extract(c, RowRange{Index: 0, Y0: 1, Y1: 3})
	if err != nil {
		t.Fatal(err)
	}
	orig := c.Spectrum(0, 1)[0]
	sub.Cube.Data[0] = orig + 100
	if c.Spectrum(0, 1)[0] != orig {
		t.Fatal("Extract shares storage with parent")
	}
}

func TestExtractErrors(t *testing.T) {
	c := testCube(t, 4, 4, 2, 13)
	for _, rr := range []RowRange{{Y0: -1, Y1: 2}, {Y0: 0, Y1: 5}, {Y0: 3, Y1: 2}} {
		if _, err := Extract(c, rr); !errors.Is(err, ErrShape) {
			t.Errorf("Extract(%v) err = %v", rr, err)
		}
	}
}

func TestInsertErrors(t *testing.T) {
	c := testCube(t, 4, 4, 2, 14)
	sub, err := Extract(c, RowRange{Y0: 0, Y1: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.Insert(MustNewCube(5, 4, 2)); !errors.Is(err, ErrShape) {
		t.Fatalf("width mismatch: %v", err)
	}
	if err := sub.Insert(MustNewCube(4, 1, 2)); !errors.Is(err, ErrShape) {
		t.Fatalf("height overflow: %v", err)
	}
	sub.Range.Y1 = 3 // now inconsistent with sub.Cube.Height
	if err := sub.Insert(MustNewCube(4, 4, 2)); !errors.Is(err, ErrShape) {
		t.Fatalf("inconsistent range: %v", err)
	}
}

func TestPixelVectors(t *testing.T) {
	c := testCube(t, 3, 2, 4, 15)
	sub, err := Extract(c, RowRange{Y0: 0, Y1: 2})
	if err != nil {
		t.Fatal(err)
	}
	vs := sub.PixelVectors()
	if len(vs) != 6 {
		t.Fatalf("len = %d", len(vs))
	}
	if !vs[4].Equal(c.Pixel(1, 1), 0) {
		t.Fatal("PixelVectors order mismatch")
	}
}

func TestEmptyRowRange(t *testing.T) {
	c := testCube(t, 3, 3, 2, 16)
	sub, err := Extract(c, RowRange{Y0: 2, Y1: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Cube.Height != 0 || len(sub.PixelVectors()) != 0 {
		t.Fatal("empty range should produce an empty sub-cube")
	}
	if err := sub.Insert(c.Clone()); err != nil {
		t.Fatalf("inserting empty range: %v", err)
	}
}

func TestRowRangeString(t *testing.T) {
	got := RowRange{Index: 2, Y0: 10, Y1: 20}.String()
	if got != "subcube#2[rows 10:20)" {
		t.Fatalf("String = %q", got)
	}
}

func TestPartitionRandomizedReassembly(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		h := 1 + rng.Intn(40)
		p := 1 + rng.Intn(10)
		c := testCube(t, 3, h, 2, int64(trial))
		dst := MustNewCube(3, h, 2)
		for _, rr := range Partition(h, p) {
			sub, err := Extract(c, rr)
			if err != nil {
				t.Fatal(err)
			}
			if err := sub.Insert(dst); err != nil {
				t.Fatal(err)
			}
		}
		if !dst.Equal(c, 0) {
			t.Fatalf("reassembly failed h=%d p=%d", h, p)
		}
	}
}

// Insert copies the SubCube's samples back into the matching rows of dst.
// It is the inverse of Extract and is used by the manager to assemble
// transformed results.
func (s *SubCube) Insert(dst *Cube) error {
	if dst.Width != s.Cube.Width || dst.Bands != s.Cube.Bands {
		return fmt.Errorf("%w: insert %s into %s", ErrShape, s.Cube, dst)
	}
	if s.Range.Y0 < 0 || s.Range.Y1 > dst.Height || s.Range.Rows() != s.Cube.Height {
		return fmt.Errorf("%w: insert rows [%d,%d) into height %d", ErrShape, s.Range.Y0, s.Range.Y1, dst.Height)
	}
	start := s.Range.Y0 * dst.Width * dst.Bands
	copy(dst.Data[start:start+len(s.Cube.Data)], s.Cube.Data)
	return nil
}
