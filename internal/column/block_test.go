package column

import (
	"slices"
	"testing"
)

// Reader gives every numeric encoding the same rows in both element types,
// a plain one through positions too, hands out storage itself where no
// conversion is needed, and refuses what is not a number in the asked-for
// domain.
func TestReaderAcrossEncodings(t *testing.T) {
	vals := make([]int64, 700)
	dates := make([]int32, len(vals))
	floats := make([]float64, len(vals))
	for i := range vals {
		vals[i] = int64(i/9) - 30
		dates[i] = int32(vals[i])
		floats[i] = float64(vals[i])
	}
	plain := NewInt64("v", vals)
	view, _ := GatherRange(CompressInt64(plain), 128, 640)
	for _, c := range []Column{plain, NewDate("v", dates), CompressInt64(plain), CompressDate(NewDate("v", dates)), view} {
		base := 0
		if c == view {
			base = 128
		}
		ints, ok := Reader[int64](c, nil)
		flts, ok2 := Reader[float64](c, nil)
		if !ok || !ok2 {
			t.Fatalf("%T: no reader", c)
		}
		for _, r := range [][2]int{{0, c.Len()}, {0, 0}, {5, 6}, {127, 129}, {128, 384}, {200, c.Len()}} {
			if got := ints(r[0], r[1], make([]int64, 0, 8)); !slices.Equal(got, vals[base+r[0]:base+r[1]]) {
				t.Fatalf("%T: int64 rows [%d,%d) differ", c, r[0], r[1])
			}
			if got := flts(r[0], r[1], nil); !slices.Equal(got, floats[base+r[0]:base+r[1]]) {
				t.Fatalf("%T: float64 rows [%d,%d) differ", c, r[0], r[1])
			}
		}
	}
	pos := []int32{699, 3, 3, 0, 512, 41}
	for _, c := range []Column{plain, NewDate("v", dates), NewFloat64("v", floats)} {
		want, _ := Reader[float64](c.Gather(pos), nil)
		through, ok := Reader[float64](c, pos)
		if !ok || !slices.Equal(through(1, 5, nil), want(1, 5, nil)) {
			t.Fatalf("%T: rows read through positions differ from the gathered rows", c)
		}
	}
	if _, ok := Reader[int64](CompressInt64(plain), pos); ok {
		t.Fatal("a bit-packed column is not read through positions")
	}
	if narrow, ok := Reader[int32](NewDate("v", dates), pos); !ok || !slices.Equal(narrow(0, 6, nil), []int32{dates[699], dates[3], dates[3], dates[0], dates[512], dates[41]}) {
		t.Fatal("dates read as int32 at their positions")
	}
	for _, c := range []Column{plain, CompressDate(NewDate("v", dates)), NewFloat64("f", floats)} {
		if _, ok := Reader[int32](c, nil); ok {
			t.Fatalf("%T must not read as int32", c)
		}
	}
	if got, _ := Reader[int64](plain, nil); &got(10, 20, nil)[0] != &vals[10] {
		t.Fatal("an int64 read of a plain int64 column should be a view, not a copy")
	}
	fc := NewFloat64("f", floats)
	if got, ok := Reader[float64](fc, nil); !ok || &got(3, 9, nil)[0] != &floats[3] {
		t.Fatal("a float64 read of a float column should be a view")
	}
	if _, ok := Reader[int64](fc, nil); ok {
		t.Fatal("a float column must not read as integers")
	}
	if _, ok := Reader[float64](NewString("s", []string{"a"}), nil); ok {
		t.Fatal("a string column is not numeric")
	}
}

// GatherRange views share storage and weigh what a gather of the same rows
// weighs, for every column type.
func TestGatherRangeViews(t *testing.T) {
	vals := make([]int64, 1000)
	strs := make([]string, len(vals))
	for i := range vals {
		vals[i] = int64(i % 37)
		strs[i] = string(rune('a' + i%5))
	}
	pos := Range(256, 901).Explicit()
	for _, c := range []Column{NewInt64("i", vals), NewString("s", strs), CompressInt64(NewInt64("p", vals))} {
		v, ok := GatherRange(c, 256, 901)
		g := c.Gather(pos)
		if !ok || v.Len() != g.Len() || v.Bytes() != g.Bytes() || v.Name() != c.Name() || Encoding(v) != Encoding(c) {
			t.Fatalf("%T: view (ok %v) has Len %d, Bytes %d; gather has %d, %d", c, ok, v.Len(), v.Bytes(), g.Len(), g.Bytes())
		}
	}
	v, _ := GatherRange(NewInt64("i", vals), 256, 901)
	if got := v.(*Int64Column).Values; &got[0] != &vals[256] || cap(got) != len(got) {
		t.Fatal("plain view should alias the rows with its capacity clipped")
	}
	if _, ok := GatherRange(CompressInt64(NewInt64("p", vals)), 3, 500); ok {
		t.Fatal("a bit-packed range starting inside a block cannot be shared")
	}
}
