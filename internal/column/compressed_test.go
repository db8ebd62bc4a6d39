package column

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCompressInt64Roundtrip(t *testing.T) {
	vals := []int64{5, 5, 5, 6, 7, 100, -3, 0, 42}
	c := CompressInt64(NewInt64("x", vals))
	if c.Name() != "x" || c.Type() != Int64 || c.Len() != len(vals) {
		t.Fatal("metadata wrong")
	}
	for i, v := range vals {
		if c.Value(i) != v {
			t.Fatalf("Value(%d) = %d, want %d", i, c.Value(i), v)
		}
	}
	d := c.Decompress()
	for i, v := range vals {
		if d.Values[i] != v {
			t.Fatalf("Decompress[%d] = %d, want %d", i, d.Values[i], v)
		}
	}
	// Gather preserves the encoding (late materialization): survivors are
	// re-packed, and only Decompress flattens them.
	g := c.Gather([]int32{5, 0, 6}).(*CompressedInt64Column)
	if got := g.Decompress().Values; got[0] != 100 || got[1] != 5 || got[2] != -3 {
		t.Fatalf("Gather = %v", got)
	}
}

func TestCompressionShrinksNarrowDomains(t *testing.T) {
	// A realistic benchmark column: values 0..10 (lo_discount).
	vals := make([]int64, 100000)
	rng := rand.New(rand.NewSource(1))
	for i := range vals {
		vals[i] = rng.Int63n(11)
	}
	plain := NewInt64("discount", vals)
	c := CompressInt64(plain)
	if c.Bytes() >= plain.Bytes()/10 {
		t.Fatalf("0..10 domain should compress >10x: %d vs %d bytes", c.Bytes(), plain.Bytes())
	}
}

func TestCompressConstantColumn(t *testing.T) {
	vals := make([]int64, 1000)
	c := CompressInt64(NewInt64("zero", vals))
	// Width-0 blocks: only the per-block header remains.
	if c.Bytes() >= 100 {
		t.Fatalf("constant column should be ~9 B per 128 rows, got %d", c.Bytes())
	}
	for i := range vals {
		if c.Value(i) != 0 {
			t.Fatal("constant decode wrong")
		}
	}
}

func TestCompressDateRoundtrip(t *testing.T) {
	vals := []int32{19920101, 19920102, 19981231, 19950615}
	c := CompressDate(NewDate("d", vals))
	if c.Type() != Date || c.Len() != 4 || c.Name() != "d" {
		t.Fatal("metadata wrong")
	}
	d := c.Decompress()
	for i, v := range vals {
		if d.Values[i] != v {
			t.Fatalf("date decode[%d] = %d, want %d", i, d.Values[i], v)
		}
	}
	g := c.Gather([]int32{2}).(*CompressedDateColumn)
	if g.Value(0) != 19981231 {
		t.Fatal("date gather wrong")
	}
	if c.Bytes() >= NewDate("d", vals).Bytes()*3 {
		t.Fatal("tiny column overhead out of bounds")
	}
}

func TestMaterializedAndCompress(t *testing.T) {
	i64 := NewInt64("a", []int64{1, 2, 3})
	date := NewDate("d", []int32{1, 2})
	str := NewString("s", []string{"x"})
	flt := NewFloat64("f", []float64{1.5})

	ci := Compress(i64)
	if _, ok := ci.(*CompressedInt64Column); !ok {
		t.Fatal("int64 should compress")
	}
	cd := Compress(date)
	if _, ok := cd.(*CompressedDateColumn); !ok {
		t.Fatal("date should compress")
	}
	if Compress(str) != Column(str) || Compress(flt) != Column(flt) {
		t.Fatal("string/float should pass through")
	}
	if m := Materialized(ci).(*Int64Column); m.Values[2] != 3 {
		t.Fatal("Materialized int decode wrong")
	}
	if m := Materialized(cd).(*DateColumn); m.Values[1] != 2 {
		t.Fatal("Materialized date decode wrong")
	}
	if Materialized(str) != Column(str) {
		t.Fatal("Materialized should pass plain columns through")
	}
}

// Property: encode/decode round-trips for arbitrary values, including
// extremes, and every position is randomly addressable.
func TestCompressRoundtripProperty(t *testing.T) {
	f := func(seed int64, extreme bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(500) + 1
		vals := make([]int64, n)
		for i := range vals {
			if extreme {
				vals[i] = int64(rng.Uint64())
			} else {
				vals[i] = rng.Int63n(1 << 20)
			}
		}
		c := CompressInt64(NewInt64("x", vals))
		for i, v := range vals {
			if c.Value(i) != v {
				return false
			}
		}
		return c.Len() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBitsFor(t *testing.T) {
	cases := map[uint64]uint8{0: 0, 1: 1, 2: 2, 3: 2, 255: 8, 256: 9, math.MaxUint64: 64}
	for x, want := range cases {
		if got := bitsFor(x); got != want {
			t.Fatalf("bitsFor(%d) = %d, want %d", x, got, want)
		}
	}
}

func TestWidth64Boundary(t *testing.T) {
	// Values spanning the full int64 range force 64-bit packing.
	vals := []int64{math.MinInt64, math.MaxInt64, 0, -1, 1}
	c := CompressInt64(NewInt64("x", vals))
	for i, v := range vals {
		if c.Value(i) != v {
			t.Fatalf("full-range decode[%d] = %d, want %d", i, c.Value(i), v)
		}
	}
}

// Row ranges outside the column panic, as a slice expression would — a view
// or a scan must never reach rows its column does not have.
func TestSliceBoundsPanic(t *testing.T) {
	vals := make([]int64, 300)
	packed := CompressInt64(NewInt64("x", vals))
	dates := CompressDate(NewDate("d", make([]int32, 300)))
	for label, slice := range map[string]func(lo, hi int){
		"range": func(lo, hi int) { GatherRange(packed, lo, hi) },
		"scan":  func(lo, hi int) { Scan(packed, Interval[int64]{}, Range(lo, hi), nil) },
		"date":  func(lo, hi int) { Scan(dates, Interval[int64]{}, Range(lo, hi), nil) },
	} {
		for _, b := range [][2]int{{-1, 10}, {20, 10}, {0, 301}, {301, 301}} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s.Slice(%d, %d) did not panic", label, b[0], b[1])
					}
				}()
				slice(b[0], b[1])
			}()
		}
		slice(0, 0)
		slice(100, 100)
	}
	// A list is held to the same bounds as a range, by its ends.
	for _, c := range []Column{packed, dates, NewInt64("x", vals)} {
		for _, list := range [][]int32{{-1, 5}, {5, 300}, {300}} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("Scan(%T) over the rows %v did not panic", c, list)
					}
				}()
				Scan(c, Interval[int64]{Lo: 0, Hi: 1}, Positions(list), nil)
			}()
		}
		Scan(c, Interval[int64]{Lo: 0, Hi: 1}, Positions([]int32{0, 299}), nil)
	}
}

// A zero-row column packs to nothing and every kernel accepts it.
func TestCompressEmptyColumn(t *testing.T) {
	c := CompressInt64(NewInt64("x", nil))
	if c.Len() != 0 || c.Bytes() != 0 || len(c.Decompress().Values) != 0 {
		t.Fatalf("empty column: Len %d, Bytes %d", c.Len(), c.Bytes())
	}
	if g := c.Gather(nil); g.Len() != 0 || g.Bytes() != 0 {
		t.Fatalf("empty gather: Len %d, Bytes %d", g.Len(), g.Bytes())
	}
	if got, ok := Scan(c, Interval[int64]{Lo: 0, Hi: math.MaxInt64}, All(0), nil); !ok || len(got) != 0 {
		t.Fatalf("scan of an empty column selected %v", got)
	}
}

func TestEncodingNames(t *testing.T) {
	i64 := NewInt64("a", []int64{1, 2})
	cases := []struct {
		col  Column
		want string
	}{
		{i64, "plain"},
		{NewFloat64("f", []float64{1}), "plain"},
		{NewDate("d", []int32{1}), "plain"},
		{NewString("s", []string{"x"}), "dict"},
		{CompressInt64(i64), "bitpack"},
		{CompressDate(NewDate("d", []int32{1, 2})), "bitpack"},
	}
	for _, tc := range cases {
		if got := Encoding(tc.col); got != tc.want {
			t.Fatalf("Encoding(%T) = %q, want %q", tc.col, got, tc.want)
		}
	}
}

// TestDecompressedBytesMetering: every Decompress adds the materialized byte
// count to the process-wide counter; code-domain scans add nothing.
func TestDecompressedBytesMetering(t *testing.T) {
	vals := make([]int64, 256)
	for i := range vals {
		vals[i] = int64(i / 29) // clustered: real runs of equal values
	}
	bp := CompressInt64(NewInt64("k", vals))
	cd := CompressDate(NewDate("d", []int32{1, 2, 3, 4}))

	before := DecompressedBytes()
	dense, sparse := make([]int32, 100), []int32{3, 131, 140, 255}
	for i := range dense {
		dense[i] = int32(20 + i)
	}
	for _, sel := range []PosList{All(len(vals)), Positions(dense), Positions(sparse)} {
		Scan(bp, Interval[int64]{Lo: 2, Hi: 5}, sel, nil)
	}
	if got := DecompressedBytes(); got != before {
		t.Fatalf("code-domain scans metered %d bytes", got-before)
	}

	bp.Decompress()
	if got := DecompressedBytes() - before; got != 256*8 {
		t.Fatalf("bitpack decompress metered %d bytes, want %d", got, 256*8)
	}
	before = DecompressedBytes()
	cd.Decompress()
	if got := DecompressedBytes() - before; got != 4*4 {
		t.Fatalf("date decompress metered %d bytes, want %d", got, 4*4)
	}
}
