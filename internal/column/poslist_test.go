package column

import (
	"slices"
	"testing"
)

// The reference for PosList is the explicit []int32 it stands for: every
// operation of the sum type must give what the same operation on the slice
// gives, whichever arm holds the positions.

func refIntersect(a, b []int32) []int32 {
	var out []int32
	for _, x := range a {
		if slices.Contains(b, x) {
			out = append(out, x)
		}
	}
	return out
}

func refUnion(a, b []int32) []int32 {
	out := slices.Clone(a)
	for _, x := range b {
		if !slices.Contains(a, x) {
			out = append(out, x)
		}
	}
	slices.Sort(out)
	return out
}

// checkPosList holds p to ref through every accessor, and every sub-range of
// p to the same sub-slice of ref.
func checkPosList(t *testing.T, what string, p PosList, ref []int32) {
	t.Helper()
	if p.Len() != len(ref) || p.Bytes() != 4*int64(len(ref)) {
		t.Fatalf("%s: Len %d, Bytes %d for %v", what, p.Len(), p.Bytes(), ref)
	}
	if got := p.Explicit(); !slices.Equal(got, ref) {
		t.Fatalf("%s: Explicit %v, want %v", what, got, ref)
	}
	if got := p.AppendTo([]int32{-7}); got[0] != -7 || !slices.Equal(got[1:], ref) {
		t.Fatalf("%s: AppendTo %v, want -7 then %v", what, got, ref)
	}
	if lo, hi, ok := p.AsRange(); ok {
		if hi-lo != len(ref) || (len(ref) > 0 && (int(ref[0]) != lo || int(ref[len(ref)-1]) != hi-1)) {
			t.Fatalf("%s: AsRange [%d, %d) for %v", what, lo, hi, ref)
		}
	}
	for i := 0; i <= len(ref); i++ {
		for j := i; j <= len(ref); j++ {
			s := p.Slice(i, j)
			if s.Len() != j-i || !slices.Equal(s.Explicit(), ref[i:j]) {
				t.Fatalf("%s: Slice(%d, %d) = %v, want %v", what, i, j, s.Explicit(), ref[i:j])
			}
		}
	}
}

// fuzzOperand decodes one list and its reference from the fuzz input:
// a range, a strictly ascending list in either constructor (so that a list
// that happens to be a run is seen in both arms), or positions in any order
// with repeats, as a join emits them.
func fuzzOperand(next func() int) (p PosList, ref []int32, ascending bool) {
	kind := next() % 4
	if kind == 0 {
		lo, n := next(), next()%40
		for i := 0; i < n; i++ {
			ref = append(ref, int32(lo+i))
		}
		return Range(lo, lo+n), ref, true
	}
	if kind == 3 {
		for n := next() % 9; n > 0; n-- {
			ref = append(ref, int32(next()))
		}
		return Positions(slices.Clone(ref)), ref, false
	}
	base := next()
	for w := 0; w < 3; w++ {
		bits := next()
		for b := 0; b < 8; b++ {
			if bits>>b&1 == 1 {
				ref = append(ref, int32(base+8*w+b))
			}
		}
	}
	if kind == 1 {
		return Ascending(slices.Clone(ref)), ref, true
	}
	return Positions(slices.Clone(ref)), ref, true
}

func FuzzPosList(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		a, aref, aAsc := fuzzOperand(next)
		b, bref, bAsc := fuzzOperand(next)
		checkPosList(t, "a", a, aref)
		checkPosList(t, "b", b, bref)
		checkPosList(t, "Concat", Concat([]PosList{a, b, {}, a}), slices.Concat(aref, bref, aref))
		if aAsc && bAsc {
			checkPosList(t, "Intersect", a.Intersect(b), refIntersect(aref, bref))
			checkPosList(t, "Union", a.Union(b), refUnion(aref, bref))
			// Chunk results of one selection, in chunk order, restitch.
			cut := next()
			lo := a.Intersect(Range(0, cut))
			hi := a.Intersect(Range(cut, 1<<20))
			checkPosList(t, "restitched", Concat([]PosList{lo, hi}), aref)
		}
	})
}

// The range arm does constant work and writes no list: the point of the sum
// type (a billion-row identity selection must not be a four-gigabyte fill).
func TestRangeArmAllocatesNothing(t *testing.T) {
	const n = 1 << 30
	chunks := []PosList{Range(0, n/2), {}, Range(n/2, n)}
	allocs := testing.AllocsPerRun(100, func() {
		all := Concat(chunks)
		lo, hi, ok := all.Intersect(Range(7, n+5)).Slice(1, 100).AsRange()
		if !ok || lo != 8 || hi != 107 || all.Len() != n || All(n).Union(Range(n, n+1)).Len() != n+1 {
			t.Fatalf("got [%d, %d) %v, Len %d", lo, hi, ok, all.Len())
		}
	})
	if allocs != 0 {
		t.Fatalf("range operations allocate %v times", allocs)
	}
	list := Ascending([]int32{3, 4, 9, 12, 13})
	allocs = testing.AllocsPerRun(100, func() {
		if got := list.Intersect(Range(4, 13)); got.Len() != 3 || got.Explicit()[0] != 4 {
			t.Fatalf("sub-slice %v", got.Explicit())
		}
	})
	if allocs != 0 {
		t.Fatalf("list ∩ range allocates %v times", allocs)
	}
}
