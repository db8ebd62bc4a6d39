package engine

import (
	"fmt"
	"math"

	"robustdb/internal/column"
	"robustdb/internal/par"
)

// JoinResult holds the aligned match positions of a join: row i of the join
// output is (Left[LeftPos[i]], Right[RightPos[i]]).
type JoinResult struct {
	LeftPos  column.PosList
	RightPos column.PosList
}

// NumRows returns the number of join matches.
func (r *JoinResult) NumRows() int { return r.RightPos.Len() }

// keyReader reads rows [lo, hi) of a join key column as int64 keys: a view of
// the column where it stores int64s, otherwise decoded a block at a time (or
// translated from dictionary codes) into scratch. See column.Reader.
type keyReader func(lo, hi int, scratch []int64) []int64

// joinKeyReaders resolves both key columns of a join together. Integer and
// date keys, plain or compressed, read through column.Reader — a compressed
// key column is decoded a morsel at a time, never materialized whole.
// Dictionary-encoded string keys join on their integer codes: when both
// sides share one dictionary (Gather propagates the dictionary by
// reference), codes compare directly; otherwise a code→code bridge is built
// once — build-side codes translate into the probe side's code domain, with
// −1 marking build values absent from the probe dictionary (−1 never equals
// a probe code, so unmatched build rows simply find no partner). String
// joins therefore never materialize or hash a single string. bridged reports
// that build keys went through such a bridge, and so that a negative one is
// no key at all.
func joinKeyReaders(build, probe column.Column) (bk, pk keyReader, bridged bool, err error) {
	bs, bok := build.(*column.StringColumn)
	ps, pok := probe.(*column.StringColumn)
	if bok != pok {
		return nil, nil, false, fmt.Errorf("join: cannot join %s (%T) with %s (%T)",
			build.Name(), build, probe.Name(), probe)
	}
	if !bok {
		br, ok := column.Reader[int64](build)
		if !ok {
			return nil, nil, false, fmt.Errorf("join: unsupported key column type %T (%s)", build, build.Name())
		}
		pr, ok := column.Reader[int64](probe)
		if !ok {
			return nil, nil, false, fmt.Errorf("join: unsupported key column type %T (%s)", probe, probe.Name())
		}
		return br, pr, false, nil
	}
	if len(bs.Dict) == len(ps.Dict) && (len(bs.Dict) == 0 || &bs.Dict[0] == &ps.Dict[0]) {
		// Shared dictionary: one code domain on both sides.
		return codeReader(bs.Codes, nil), codeReader(ps.Codes, nil), false, nil
	}
	bridge := make([]int64, len(bs.Dict))
	for c, s := range bs.Dict {
		if code, ok := ps.Code(s); ok {
			bridge[c] = int64(code)
		} else {
			bridge[c] = -1
		}
	}
	return codeReader(bs.Codes, bridge), codeReader(ps.Codes, nil), true, nil
}

// sized returns scratch with length n, reallocated if its capacity is short.
func sized(scratch []int64, n int) []int64 {
	if cap(scratch) < n {
		return make([]int64, n)
	}
	return scratch[:n]
}

// codeReader reads dictionary codes as join keys, through bridge if given.
func codeReader(codes []int32, bridge []int64) keyReader {
	return func(lo, hi int, scratch []int64) []int64 {
		keys := sized(scratch, hi-lo)
		for i, c := range codes[lo:hi] {
			if bridge != nil {
				keys[i] = bridge[c]
			} else {
				keys[i] = int64(c)
			}
		}
		return keys
	}
}

// fibMul is the 64-bit Fibonacci hashing constant (2^64 / φ, odd). A single
// multiply spreads consecutive keys across the high bits, which is where the
// partition index and slot index are taken from.
const fibMul = 0x9E3779B97F4A7C15

func fibHash(k int64) uint64 { return uint64(k) * fibMul }

// joinPartitionBits selects 2^4 = 16 partitions for hash-layout inputs large
// enough to parallelize; below the morsel grain a single partition avoids all
// partitioning overhead. The partition count depends only on the input size,
// so the table — and therefore match order — is identical at every worker
// count.
const joinPartitionBits = 4

// The density rule: a direct-address table spends a zeroed slot on every
// value of the key domain and saves each build row its hashing, partitioning
// and insertion and each probe row a multiply, a partition lookup and a
// compare-and-step loop, so the domain may be as wide as
// directSlotsPerBuildRow slots a build row plus directSlotsPerProbeRow a
// probe row. The constants are the lower ends of the break-even the sweep of
// DESIGN.md §19 found (32–64 and 2–4); BenchmarkJoinLayout keeps a case on
// each side.
const (
	directSlotsPerBuildRow = 32
	directSlotsPerProbeRow = 2
)

// dense is the rule, for a domain [0, width]. The group-by asks it too, of
// rows that are all probes (numberCodes).
func dense(width uint64, buildRows, probeRows int) bool {
	return width < directSlotsPerBuildRow*uint64(buildRows)+directSlotsPerProbeRow*uint64(probeRows)
}

// joinLayout is how buildJoinTable arranges the table. Callers pass
// layoutAuto; tests force the other two to hold them to each other.
type joinLayout uint8

const (
	layoutAuto joinLayout = iota // by the density rule
	layoutDirect
	layoutHash
)

// slotTable is open addressing (linear probe, power-of-two) from an integer
// key to a positive number: one partition of the join's hash layout, where
// that is the first build row of the key's chain + 1, and the hashed arm of
// the group-by, where it is the key's group + 1 (numberCodes).
type slotTable struct {
	shift uint    // hash right-shift for the slot index
	mask  uint32  // slot mask (power-of-two size − 1)
	key   []int64 // slot → key, valid where head ≠ 0
	head  []int32 // slot → the key's number, 0 when empty
	dup   bool    // some key of a join partition occurs twice
}

// newSlotTable sizes a table for rows keys at a load factor ≤ 0.5, so that
// probing always ends at an empty slot; the top pbits of a hash are spent.
func newSlotTable(rows int, pbits uint) slotTable {
	slots, slotBits := 8, uint(3)
	for slots < 2*rows {
		slots <<= 1
		slotBits++
	}
	return slotTable{shift: 64 - pbits - slotBits, mask: uint32(slots - 1), key: make([]int64, slots), head: make([]int32, slots)}
}

// slot returns the slot of key k (with h = fibHash(k)): the one that holds
// it, or the empty one it belongs in. It is the one probe loop of the engine.
func (p *slotTable) slot(k int64, h uint64) uint32 {
	s := uint32(h>>p.shift) & p.mask
	for p.head[s] != 0 && p.key[s] != k {
		s = (s + 1) & p.mask
	}
	return s
}

// joinTable maps a key to the chain of build rows that hold it, in one of
// two layouts chosen when it is built. Rows are stored + 1 throughout, so
// that 0 is "none" and freshly allocated arrays need no fill. Chains list
// build rows in ascending order, which makes the probe emit matches in
// exactly the order the NestedLoopJoin reference produces — in both layouts,
// because neither the direct slots nor the hash slots decide anything but
// where a chain starts.
type joinTable struct {
	// Direct layout (parts == nil): head[k − min] starts key k's chain. The
	// slot at index last belongs to no key and stays 0; keys outside the
	// domain are clamped onto it (k − min is taken unsigned, so keys below
	// min land far above).
	min  uint64
	last uint64
	head []int32
	// Hash layout: 1 << pbits partitions by the top hash bits.
	pbits uint
	parts []slotTable

	next   []int32 // build row → next build row with the same key + 1, 0 at the end
	unique bool    // no key occurs twice: every chain is one row long, next is unused
}

// buildJoinTable constructs the build-side table over rows [0, n) read
// through key, for a probe side of probeRows rows. With dropNegative, rows
// with a negative key — the bridge's "absent from the probe dictionary" — are
// left out of the table and of the domain. Every parallel phase writes
// disjoint index ranges and the direct scatter is serial, so the finished
// table is byte-identical regardless of worker count.
func buildJoinTable(ctx *Ctx, key keyReader, n, probeRows int, dropNegative bool, layout joinLayout) *joinTable {
	// Hoist the keys once, and find the domain they span.
	keys := make([]int64, n)
	ctx.forEachMorselNoErr(n, func(_, lo, hi int) {
		copy(keys[lo:hi], key(lo, hi, keys[lo:lo:hi])) // decoded in place, or copied from the column
	})
	mn, mx, rows := int64(math.MaxInt64), int64(math.MinInt64), 0
	for _, k := range keys {
		if !dropNegative || k >= 0 {
			mn, mx, rows = min(mn, k), max(mx, k), rows+1
		}
	}
	if rows == 0 {
		return &joinTable{head: make([]int32, 1), unique: true}
	}
	// The width is computed unsigned: keys near both ends of int64 span more
	// than int64 holds, and must fall to the hash layout, not wrap.
	width := uint64(mx) - uint64(mn)
	if layout == layoutAuto {
		layout = layoutHash
		if dense(width, rows, probeRows) {
			layout = layoutDirect
		}
	}
	if layout == layoutDirect {
		return buildDirect(keys, mn, width, dropNegative)
	}
	return buildHashed(ctx, keys, dropNegative)
}

// buildDirect scatters the build rows into one slot per key of the domain.
// Walking the rows downwards and prepending leaves every chain ascending.
func buildDirect(keys []int64, mn int64, width uint64, dropNegative bool) *joinTable {
	t := &joinTable{min: uint64(mn), last: width + 1, head: make([]int32, width+2), unique: true}
	for i := len(keys) - 1; i >= 0; i-- {
		k := keys[i]
		if dropNegative && k < 0 {
			continue
		}
		s := uint64(k) - uint64(mn)
		if t.head[s] != 0 {
			if t.unique {
				t.unique, t.next = false, make([]int32, len(keys))
			}
			t.next[i] = t.head[s]
		}
		t.head[s] = int32(i + 1)
	}
	return t
}

// buildHashed builds the partitioned open-addressing layout: count rows per
// (morsel, partition), scatter the rows to their partitions in global row
// order, then index each partition on its own.
func buildHashed(ctx *Ctx, keys []int64, dropNegative bool) *joinTable {
	n := len(keys)
	var pbits uint
	if n > par.DefaultMorselRows {
		pbits = joinPartitionBits
	}
	numParts := 1 << pbits
	t := &joinTable{pbits: pbits, parts: make([]slotTable, numParts), next: make([]int32, n)}

	numMorsels := par.Morsels(n)
	counts := make([][]int32, numMorsels)
	ctx.forEachMorselNoErr(n, func(mi, lo, hi int) {
		cnt := make([]int32, numParts)
		for _, k := range keys[lo:hi] {
			if dropNegative && k < 0 {
				continue
			}
			cnt[fibHash(k)>>(64-pbits)]++
		}
		counts[mi] = cnt
	})

	// Prefix-sum the counts into scatter offsets: partition p receives its
	// rows morsel by morsel, i.e. in ascending global row order.
	rows := make([][]int32, numParts)
	for p := range rows {
		var run int32
		for mi := range counts {
			c := counts[mi][p]
			counts[mi][p] = run
			run += c
		}
		rows[p] = make([]int32, run)
	}

	// Each (morsel, partition) pair writes a disjoint region, so the fan-out
	// is race-free.
	ctx.forEachMorselNoErr(n, func(mi, lo, hi int) {
		off := counts[mi]
		for i := lo; i < hi; i++ {
			if dropNegative && keys[i] < 0 {
				continue
			}
			p := fibHash(keys[i]) >> (64 - pbits)
			rows[p][off[p]] = int32(i)
			off[p]++
		}
	})

	// Index each partition. Inserting its rows downwards with prepends
	// leaves every per-key chain in ascending build-row order; a row belongs
	// to one partition, so the writes to next are disjoint too.
	ctx.forEachNNoErr(numParts, func(p int) {
		t.parts[p] = newSlotTable(len(rows[p]), pbits)
		part := &t.parts[p]
		for c := len(rows[p]) - 1; c >= 0; c-- {
			row := rows[p][c]
			k := keys[row]
			s := part.slot(k, fibHash(k))
			if part.head[s] != 0 {
				part.dup = true
			}
			part.key[s], t.next[row], part.head[s] = k, part.head[s], row+1
		}
	})
	t.unique = true
	for p := range t.parts {
		t.unique = t.unique && !t.parts[p].dup
	}
	return t
}

// first returns the first build row + 1 of key k's chain, 0 when absent.
// The direct arm is one subtraction, one clamp and one load, and inlines
// into the probe loops.
func (t *joinTable) first(k int64) int32 {
	if t.parts == nil {
		return t.head[min(uint64(k)-t.min, t.last)]
	}
	return t.hashed(k)
}

// hashed is first for the hash layout, kept out of line so that first fits
// the inlining budget.
//
//go:noinline
func (t *joinTable) hashed(k int64) int32 {
	h := fibHash(k)
	p := &t.parts[h>>(64-t.pbits)]
	return p.head[p.slot(k, h)]
}

// probe appends the matches of keys — the probe rows base, base+1, … — to
// the two buffers, which hold len(keys) positions each: build rows to lout,
// probe rows to rout.
func (t *joinTable) probe(keys []int64, base int, lout, rout []int32) ([]int32, []int32) {
	if !t.unique {
		for i, k := range keys {
			for c := t.first(k); c != 0; c = t.next[c-1] {
				lout = append(lout, c-1)
				rout = append(rout, int32(base+i))
			}
		}
		return lout, rout
	}
	// At most one match a probe row: every row is written where the next
	// match belongs, and the count moves on only past a match — no branch
	// for the processor to mispredict on a half-selective dimension.
	lout, rout = lout[:len(keys)], rout[:len(keys)]
	cnt := 0
	for i, k := range keys {
		c := t.first(k)
		lout[cnt], rout[cnt] = c-1, int32(base+i)
		cnt += int(uint32(-c) >> 31)
	}
	return lout[:cnt], rout[:cnt]
}

// semiProbe appends to out, which holds len(keys) positions, the probe rows
// among base, base+1, … whose key the table has.
func (t *joinTable) semiProbe(keys []int64, base int, out []int32) []int32 {
	out = out[:len(keys)]
	cnt := 0
	for i, k := range keys {
		out[cnt] = int32(base + i)
		cnt += int(uint32(-t.first(k)) >> 31)
	}
	return out[:cnt]
}

// joinKeep is what of its matches an equi-join hands back.
type joinKeep uint8

const (
	keepBoth      joinKeep = iota // build and probe row of every match: HashJoin
	keepProbe                     // the probe row of every match: a join that keeps no build column
	keepProbeOnce                 // each matching probe row once: SemiJoin
)

// equiJoin is every hash join: it probes the table built on build.buildKey
// with every row of probe.probeKey, a morsel per task into pooled buffers,
// and stitches the matches in morsel (= probe) order. Where no build row is
// asked for and none can match twice — a semi join, or unique build keys —
// no build position is written at all, and left stays empty.
func equiJoin(ctx *Ctx, what string, build *Batch, buildKey string, probe *Batch, probeKey string, keep joinKeep, layout joinLayout) (left, right column.PosList, err error) {
	bk, err := build.column(ctx, buildKey)
	if err != nil {
		return left, right, fmt.Errorf("%s build side: %w", what, err)
	}
	pk, err := probe.column(ctx, probeKey)
	if err != nil {
		return left, right, fmt.Errorf("%s probe side: %w", what, err)
	}
	n := pk.Len()
	if bk.Len() > math.MaxInt32 || n > math.MaxInt32 {
		return left, right, fmt.Errorf("%s: %d build and %d probe rows, int32 positions cannot address them", what, bk.Len(), n)
	}
	bkeys, pkeys, bridged, err := joinKeyReaders(bk, pk)
	if err != nil || bk.Len() == 0 || n == 0 {
		return left, right, err
	}
	ht := buildJoinTable(ctx, bkeys, bk.Len(), n, bridged, layout)
	once := keep == keepProbeOnce || keep == keepProbe && ht.unique

	m := par.Morsels(n)
	perL, perR := make([][]int32, m), make([][]int32, m)
	ctx.forEachMorselNoErr(n, func(mi, lo, hi int) {
		scratch := par.GetInt64(hi - lo)
		keys := pkeys(lo, hi, scratch)
		if once {
			perR[mi] = ht.semiProbe(keys, lo, par.GetInt32(hi-lo))
		} else {
			perL[mi], perR[mi] = ht.probe(keys, lo, par.GetInt32(hi-lo), par.GetInt32(hi-lo))
		}
		par.PutInt64(scratch)
	})
	total := 0
	for _, r := range perR {
		total += len(r)
	}
	// Probe rows that matched at most once each and n times in all are the
	// rows 0 … n−1: the range says so without a list being written.
	if total == n && (once || ht.unique) {
		right = column.Range(0, n)
	} else {
		right = stitch(perR, total)
	}
	if keep == keepBoth {
		left = stitch(perL, total)
	}
	for mi := range perR {
		par.PutInt32(perL[mi])
		par.PutInt32(perR[mi])
	}
	return left, right, nil
}

// stitch copies the per-morsel buffers, total positions in all, into one list.
func stitch(per [][]int32, total int) column.PosList {
	out := make([]int32, 0, total)
	for _, s := range per {
		out = append(out, s...)
	}
	return column.Positions(out)
}

// HashJoin computes the inner equi-join of left and right on
// left.leftKey = right.rightKey. The table is built on the left
// (conventionally the smaller, filtered dimension side) and probed with the
// right. Matches preserve the probe order, like CoGaDB's join kernel; ties
// on one probe row list build rows in ascending order. The result is
// bit-identical at every worker count, including serial (nil ctx), and in
// either table layout.
func HashJoin(ctx *Ctx, left *Batch, leftKey string, right *Batch, rightKey string) (*JoinResult, error) {
	l, r, err := equiJoin(ctx, "hash join", left, leftKey, right, rightKey, keepBoth, layoutAuto)
	if err != nil {
		return nil, err
	}
	return &JoinResult{LeftPos: l, RightPos: r}, nil
}

// SemiJoin returns the probe-side positions that have at least one build-side
// match, in ascending order. It implements the invisible-join style filtering
// of star schema plans: filter a dimension, semi-join the fact table's
// foreign key.
func SemiJoin(ctx *Ctx, build *Batch, buildKey string, probe *Batch, probeKey string) (column.PosList, error) {
	_, pos, err := equiJoin(ctx, "semi join", build, buildKey, probe, probeKey, keepProbeOnce, layoutAuto)
	return pos, err
}

// NestedLoopJoin is the O(n·m) reference join used by tests to validate
// HashJoin. It produces matches in probe order with build-order ties, the
// same order HashJoin emits.
func NestedLoopJoin(left *Batch, leftKey string, right *Batch, rightKey string) (*JoinResult, error) {
	lk, err := left.Column(leftKey)
	if err != nil {
		return nil, err
	}
	rk, err := right.Column(rightKey)
	if err != nil {
		return nil, err
	}
	lkeys, rkeys, _, err := joinKeyReaders(lk, rk)
	if err != nil {
		return nil, err
	}
	var l, r []int32
	buildKeys := lkeys(0, lk.Len(), nil)
	for j, kj := range rkeys(0, rk.Len(), nil) {
		for i, ki := range buildKeys {
			if ki == kj {
				l, r = append(l, int32(i)), append(r, int32(j))
			}
		}
	}
	return &JoinResult{LeftPos: column.Positions(l), RightPos: column.Positions(r)}, nil
}

// MaterializeJoin returns the requested columns of both sides at the rows of
// a join result, as one batch of res.NumRows() rows whichever columns it
// keeps. Column name collisions are an error; plans qualify names up front.
func MaterializeJoin(ctx *Ctx, res *JoinResult, left *Batch, leftCols []string, right *Batch, rightCols []string) (*Batch, error) {
	lp, err := left.Project(leftCols...)
	if err != nil {
		return nil, err
	}
	rp, err := right.Project(rightCols...)
	if err != nil {
		return nil, err
	}
	return newBatch(res.NumRows(), append(lp.GatherCtx(ctx, res.LeftPos).cols, rp.GatherCtx(ctx, res.RightPos).cols...))
}

// Join is the inner equi-join of left and right on left.leftKey =
// right.rightKey with the named columns of each side kept: HashJoin and
// MaterializeJoin in one call, which knows that a join keeping no build
// column needs no build rows.
func Join(ctx *Ctx, left *Batch, leftKey string, leftCols []string, right *Batch, rightKey string, rightCols []string) (*Batch, error) {
	keep := keepBoth
	if len(leftCols) == 0 {
		keep = keepProbe
	}
	l, r, err := equiJoin(ctx, "hash join", left, leftKey, right, rightKey, keep, layoutAuto)
	if err != nil {
		return nil, err
	}
	return MaterializeJoin(ctx, &JoinResult{LeftPos: l, RightPos: r}, left, leftCols, right, rightCols)
}
