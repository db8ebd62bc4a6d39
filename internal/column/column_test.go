package column

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestTypeStringAndWidth(t *testing.T) {
	cases := []struct {
		typ   Type
		name  string
		width int
	}{
		{Int64, "int64", 8},
		{Float64, "float64", 8},
		{Date, "date", 4},
		{String, "string", 4},
	}
	for _, c := range cases {
		if got := c.typ.String(); got != c.name {
			t.Errorf("Type(%d).String() = %q, want %q", c.typ, got, c.name)
		}
		if got := c.typ.Width(); got != c.width {
			t.Errorf("Type(%s).Width() = %d, want %d", c.name, got, c.width)
		}
	}
	if got := Type(99).String(); got != "type(99)" {
		t.Errorf("unknown type String() = %q", got)
	}
	if got := Type(99).Width(); got != 8 {
		t.Errorf("unknown type Width() = %d, want 8", got)
	}
}

func TestInt64Column(t *testing.T) {
	c := NewInt64("a", []int64{10, 20, 30, 40})
	if c.Name() != "a" || c.Type() != Int64 || c.Len() != 4 {
		t.Fatalf("metadata wrong: %s %s %d", c.Name(), c.Type(), c.Len())
	}
	if c.Bytes() != 32 {
		t.Fatalf("Bytes() = %d, want 32", c.Bytes())
	}
	g := c.Gather([]int32{3, 1}).(*Int64Column)
	if g.Values[0] != 40 || g.Values[1] != 20 {
		t.Fatalf("Gather wrong: %v", g.Values)
	}
}

func TestFloat64Column(t *testing.T) {
	c := NewFloat64("f", []float64{1.5, 2.5, 3.5})
	if c.Type() != Float64 || c.Len() != 3 || c.Bytes() != 24 {
		t.Fatalf("metadata wrong")
	}
	g := c.Gather([]int32{2}).(*Float64Column)
	if g.Values[0] != 3.5 {
		t.Fatalf("Gather wrong: %v", g.Values)
	}
}

func TestDateColumn(t *testing.T) {
	c := NewDate("d", []int32{100, 200})
	if c.Type() != Date || c.Bytes() != 8 {
		t.Fatalf("metadata wrong")
	}
	g := c.Gather([]int32{1, 0}).(*DateColumn)
	if g.Values[0] != 200 || g.Values[1] != 100 {
		t.Fatalf("Gather wrong: %v", g.Values)
	}
}

func TestStringColumnEncoding(t *testing.T) {
	vals := []string{"cherry", "apple", "banana", "apple", "cherry"}
	c := NewString("s", vals)
	if c.Len() != 5 {
		t.Fatalf("Len = %d", c.Len())
	}
	if !sort.StringsAreSorted(c.Dict) {
		t.Fatalf("dictionary not sorted: %v", c.Dict)
	}
	for i, v := range vals {
		if c.Value(i) != v {
			t.Fatalf("Value(%d) = %q, want %q", i, c.Value(i), v)
		}
	}
	if code, ok := c.Code("banana"); !ok || c.Dict[code] != "banana" {
		t.Fatalf("Code(banana) = %d,%v", code, ok)
	}
	if _, ok := c.Code("durian"); ok {
		t.Fatalf("Code(durian) should miss")
	}
	if lb := c.LowerBound("b"); c.Dict[lb] != "banana" {
		t.Fatalf("LowerBound(b) = %d (%q)", lb, c.Dict[lb])
	}
	if lb := c.LowerBound("zzz"); int(lb) != len(c.Dict) {
		t.Fatalf("LowerBound past end = %d", lb)
	}
}

// Order preservation: code comparison must agree with string comparison.
func TestStringColumnOrderPreserving(t *testing.T) {
	f := func(a, b string) bool {
		c := NewString("s", []string{a, b})
		return (a < b) == (c.Codes[0] < c.Codes[1]) && (a == b) == (c.Codes[0] == c.Codes[1])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStringColumnGatherSharesDict(t *testing.T) {
	c := NewString("s", []string{"x", "y", "z"})
	g := c.Gather([]int32{2, 0}).(*StringColumn)
	if g.Value(0) != "z" || g.Value(1) != "x" {
		t.Fatalf("Gather values wrong")
	}
	if &g.Dict[0] != &c.Dict[0] {
		t.Fatalf("Gather should share the dictionary")
	}
}

func TestStringColumnBytesIncludesDict(t *testing.T) {
	c := NewString("s", []string{"ab", "cd"})
	// 2 rows * 4 bytes codes + 4 bytes dictionary characters.
	if c.Bytes() != 2*4+4 {
		t.Fatalf("Bytes() = %d", c.Bytes())
	}
}
