package column

import "slices"

// PosList is a selection vector: the row positions one operator hands the
// next. CoGaDB-style operator-at-a-time processing passes position lists
// between the selection operators of a query before final materialization.
//
// It is a sum of two arms. A range is the run lo, lo+1, …, lo+n−1 held as two
// integers: the identity selection of a predicate-less scan, a stitched run
// of chunk ranges, the probe side of a join whose every row matched once. It
// is O(1) to build, measure, sub-range, intersect with another range and
// recognize — Gather asks AsRange and reaches GatherRange without a list
// ever being written. An explicit list holds anything else. The zero value
// is the empty selection. A PosList is immutable: no method writes to a list,
// so results may share one (Slice, Intersect with a range, Explicit).
type PosList struct {
	list  []int32 // the explicit arm; nil for a range
	lo, n int32   // the range arm
}

// Range returns the selection of rows lo, lo+1, …, hi−1.
func Range(lo, hi int) PosList { return PosList{lo: int32(lo), n: int32(hi - lo)} }

// All returns the selection of every row of a column with n rows.
func All(n int) PosList { return Range(0, n) }

// Positions wraps an explicit list of positions, in any order, without
// copying or inspecting it. An empty list is the zero value, so the explicit
// arm always holds a position.
func Positions(list []int32) PosList {
	if len(list) == 0 {
		return PosList{}
	}
	return PosList{list: list}
}

// Ascending wraps a strictly ascending list — the output of a selection.
// Such a list is a run exactly when its ends are as far apart as it is long,
// so a selection that kept every row of a range becomes the range arm.
func Ascending(list []int32) PosList {
	if n := len(list); n > 0 && int(list[n-1])-int(list[0]) == n-1 {
		return Range(int(list[0]), int(list[0])+n)
	}
	return Positions(list)
}

// Len returns the number of positions.
func (p PosList) Len() int {
	if p.list != nil {
		return len(p.list)
	}
	return int(p.n)
}

// Bytes returns the footprint the device heap and the bus account for: four
// bytes a position in either arm, because the simulated co-processor holds
// the list explicitly whatever the host does.
func (p PosList) Bytes() int64 { return int64(p.Len()) * 4 }

// AsRange reports whether p is held as a range, and if so which rows
// [lo, hi) it selects. The empty selection is a range.
func (p PosList) AsRange() (lo, hi int, ok bool) {
	return int(p.lo), int(p.lo + p.n), p.list == nil
}

// Explicit returns the positions as a slice for a kernel to loop over: the
// list itself (not to be written to) for the explicit arm, a newly filled
// one for a range.
func (p PosList) Explicit() []int32 {
	if p.list != nil || p.n == 0 {
		return p.list
	}
	return p.AppendTo(make([]int32, 0, p.n))
}

// AppendTo appends the positions to dst.
func (p PosList) AppendTo(dst []int32) []int32 {
	if p.list != nil {
		return append(dst, p.list...)
	}
	return appendRange(slices.Grow(dst, int(p.n)), int(p.lo), int(p.n))
}

// Slice returns positions i … j−1 of the list, sharing its storage.
func (p PosList) Slice(i, j int) PosList {
	if p.list != nil {
		return Positions(p.list[i:j:j])
	}
	if i < 0 || i > j || j > int(p.n) {
		panic("column: position slice out of range")
	}
	return Range(int(p.lo)+i, int(p.lo)+j)
}

// Intersect computes the intersection of two ascending position lists: the
// conjunction of two selections. With a range on either side the result is a
// range or a sub-slice of the other list, found by two binary searches.
func (p PosList) Intersect(q PosList) PosList {
	if p.list == nil {
		p, q = q, p
	}
	if q.list == nil {
		lo, hi, _ := q.AsRange()
		if p.list == nil {
			plo, phi, _ := p.AsRange()
			lo = max(lo, plo)
			return Range(lo, max(lo, min(hi, phi)))
		}
		i, _ := slices.BinarySearch(p.list, int32(lo))
		j, _ := slices.BinarySearch(p.list, int32(hi))
		return Ascending(p.list[i:j:j])
	}
	a, b := p.list, q.list
	out := make([]int32, 0, min(len(a), len(b)))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return Ascending(out)
}

// Union computes the union of two ascending position lists: the disjunction
// of two selections. Two ranges that touch or overlap stay a range.
func (p PosList) Union(q PosList) PosList {
	if p.Len() == 0 {
		return q
	}
	if q.Len() == 0 {
		return p
	}
	if p.list == nil && q.list == nil {
		plo, phi, _ := p.AsRange()
		qlo, qhi, _ := q.AsRange()
		if plo <= qhi && qlo <= phi {
			return Range(min(plo, qlo), max(phi, qhi))
		}
	}
	a, b := p.Explicit(), q.Explicit()
	out := make([]int32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return Ascending(out)
}

// Concat returns the positions of parts one after the other. Ranges that
// continue each other — the chunks of an identity scan, the morsels of a
// selection that kept everything — join into one range; otherwise one list
// is written, once.
func Concat(parts []PosList) PosList {
	var run PosList
	total, isRun := 0, true
	for _, p := range parts {
		if p.Len() == 0 {
			continue
		}
		if total == 0 {
			run.lo = p.lo
		}
		isRun = isRun && p.list == nil && run.lo+run.n == p.lo
		run.n += p.n
		total += p.Len()
	}
	if isRun {
		return run
	}
	out := make([]int32, 0, total)
	for _, p := range parts {
		out = p.AppendTo(out)
	}
	return Positions(out)
}
