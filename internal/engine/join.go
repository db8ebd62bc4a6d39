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

// keyReader reads rows [lo, hi) of a key column as int64 keys: a view of the
// column where it stores int64s row for row, otherwise read into scratch.
// See column.Reader.
type keyReader func(lo, hi int, scratch []int64) []int64

// keysOf reads a key column at the positions at (nil: row for row) as Ts:
// the dictionary codes of a string column, the values of any other
// (column.Reader). Codes and dates are stored as int32s.
func keysOf[T int32 | int64](c column.Column, at []int32) (func(lo, hi int, scratch []T) []T, bool) {
	if s, ok := c.(*column.StringColumn); ok {
		return column.ValueReader[T](s.Codes, at), true
	}
	return column.Reader[T](c, at)
}

// joinKeyReaders resolves both key columns of a join together, each read at
// its positions as int64 keys. Integer and date keys, plain or compressed,
// read through column.Reader — a compressed key column is decoded a morsel
// at a time, never materialized whole. Dictionary-encoded string keys join
// on their integer codes: when both sides share one dictionary (Gather
// propagates the dictionary by reference), codes compare directly;
// otherwise a code→code bridge is built once — build-side codes translate
// into the probe side's code domain, with −1 marking build values absent
// from the probe dictionary (−1 never equals a probe code, so unmatched
// build rows simply find no partner). String joins therefore never
// materialize or hash a single string. bridged reports that build keys went
// through such a bridge, and so that a negative one is no key at all.
func joinKeyReaders(build, probe column.Column, bat, pat []int32) (bk, pk keyReader, bridged bool, err error) {
	bs, bok := build.(*column.StringColumn)
	ps, pok := probe.(*column.StringColumn)
	if bok != pok {
		return nil, nil, false, fmt.Errorf("join: cannot join %s (%T) with %s (%T)",
			build.Name(), build, probe.Name(), probe)
	}
	bk, ok := keysOf[int64](build, bat)
	if !ok {
		return nil, nil, false, fmt.Errorf("join: unsupported key column type %T (%s)", build, build.Name())
	}
	if pk, ok = keysOf[int64](probe, pat); !ok {
		return nil, nil, false, fmt.Errorf("join: unsupported key column type %T (%s)", probe, probe.Name())
	}
	if !bok || len(bs.Dict) == len(ps.Dict) && (len(bs.Dict) == 0 || &bs.Dict[0] == &ps.Dict[0]) {
		return bk, pk, false, nil // a shared dictionary is one code domain on both sides
	}
	bridge := make([]int64, len(bs.Dict))
	for c, s := range bs.Dict {
		if code, ok := ps.Code(s); ok {
			bridge[c] = int64(code)
		} else {
			bridge[c] = -1
		}
	}
	codes := bk
	return func(lo, hi int, scratch []int64) []int64 {
		keys := codes(lo, hi, scratch) // int32 codes widen into scratch, never a view
		for i, c := range keys {
			keys[i] = bridge[c]
		}
		return keys
	}, pk, true, nil
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

// slotsFor is the slot count of a table for rows keys, a power of two at
// least 8 at a load factor ≤ 0.5, so that probing always ends at an empty
// slot, and its logarithm.
func slotsFor(rows int) (slots int, bits uint) {
	slots, bits = 8, 3
	for slots < 2*rows {
		slots <<= 1
		bits++
	}
	return slots, bits
}

// newSlotTable sizes a table for rows keys; the top pbits of a hash are
// spent. Its head is head, of slotsFor(rows) slots, or a new array where
// head is nil.
func newSlotTable(rows int, pbits uint, head []int32) slotTable {
	slots, bits := slotsFor(rows)
	if head == nil {
		head = make([]int32, slots)
	}
	return slotTable{shift: 64 - pbits - bits, mask: uint32(slots - 1), key: make([]int64, slots), head: head}
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
	// head[slot] starts the chain of the key at slot. Direct layout (parts ==
	// nil): key k's slot is k − min. The slot at index last belongs to no key
	// and stays 0; keys outside the domain are clamped onto it (k − min is
	// taken unsigned, so keys below min land far above).
	min  uint64
	last uint64
	head []int32
	// Hash layout: 1 << pbits partitions by the top hash bits, whose heads
	// lie end to end in head, partition p's from starts[p]: a key's slot is
	// the one its partition finds for it (hashSlots), and min is 0.
	pbits  uint
	parts  []slotTable
	starts []int32

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
	t.starts = make([]int32, numParts+1)
	for p := range rows {
		slots, _ := slotsFor(len(rows[p]))
		t.starts[p+1] = t.starts[p] + int32(slots)
	}
	t.last = uint64(t.starts[numParts])
	t.head = make([]int32, t.last+1)
	ctx.forEachNNoErr(numParts, func(p int) {
		t.parts[p] = newSlotTable(len(rows[p]), pbits, t.head[t.starts[p]:t.starts[p+1]:t.starts[p+1]])
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

// hashSlots writes the slot of every key of a hashed table to slots: the
// one its partition holds it in, or the empty one it would be in.
func hashSlots[K int32 | int64](t *joinTable, keys []K, slots []int32) {
	for i, k := range keys {
		h := fibHash(int64(k))
		p := h >> (64 - t.pbits)
		slots[i] = t.starts[p] + int32(t.parts[p].slot(int64(k), h))
	}
}

// probe appends the matches of the probe rows base, base+1, … whose keys
// lie at slots of the table — direct: the keys themselves — to rout, which
// holds len(slots) positions, and their build rows to lout, which holds as
// many; a nil lout writes each matching probe row once. It is the one probe
// loop of both layouts and every key width; the table's header is hoisted
// out of the rows, each of which then costs a subtraction, a clamp and a
// load.
func probe[K int32 | int64](t *joinTable, slots []K, base int, lout, rout []int32) ([]int32, []int32) {
	head, mn, last := t.head, t.min, t.last
	first := func(k K) int32 { return head[min(uint64(k)-mn, last)] }
	if lout != nil && !t.unique {
		for i, k := range slots {
			for c := first(k); c != 0; c = t.next[c-1] {
				lout = append(lout, c-1)
				rout = append(rout, int32(base+i))
			}
		}
		return lout, rout
	}
	// At most one match a probe row: every row is written where the next
	// match belongs, and the count moves on only past a match — no branch
	// for the processor to mispredict on a half-selective dimension.
	rout, cnt := rout[:len(slots)], 0
	if lout == nil {
		for i, k := range slots {
			rout[cnt] = int32(base + i)
			cnt += int(uint32(-first(k)) >> 31)
		}
		return nil, rout[:cnt]
	}
	lout = lout[:len(slots)]
	for i, k := range slots {
		c := first(k)
		lout[cnt], rout[cnt] = c-1, int32(base+i)
		cnt += int(uint32(-c) >> 31)
	}
	return lout[:cnt], rout[:cnt]
}

// probeAll probes the table with rows [0, n) of a probe key read through
// read, a morsel per task into pooled buffers, keeping the build rows of
// the matches where keepBuild says so.
func probeAll[K int32 | int64](ctx *Ctx, t *joinTable, read func(lo, hi int, scratch []K) []K, n int, keepBuild bool) (perL, perR [][]int32) {
	perL, perR = make([][]int32, par.Morsels(n)), make([][]int32, par.Morsels(n))
	ctx.forEachMorselNoErr(n, func(mi, lo, hi int) {
		var lout []int32
		if keepBuild {
			lout = par.Get[int32](hi - lo)
		}
		rout, scratch := par.Get[int32](hi-lo), par.Get[K](hi-lo)
		keys := read(lo, hi, scratch)
		if t.parts == nil {
			perL[mi], perR[mi] = probe(t, keys, lo, lout, rout)
		} else {
			slots := par.Get[int32](hi - lo)[:hi-lo]
			hashSlots(t, keys, slots)
			perL[mi], perR[mi] = probe(t, slots, lo, lout, rout)
			par.Put(slots)
		}
		par.Put(scratch)
	})
	return perL, perR
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
	bc, err := build.find(buildKey)
	if err != nil {
		return left, right, fmt.Errorf("%s build side: %w", what, err)
	}
	pc, err := probe.find(probeKey)
	if err != nil {
		return left, right, fmt.Errorf("%s probe side: %w", what, err)
	}
	m, n := build.NumRows(), probe.NumRows()
	if m > math.MaxInt32 || n > math.MaxInt32 {
		return left, right, fmt.Errorf("%s: %d build and %d probe rows, int32 positions cannot address them", what, m, n)
	}
	bsrc, bat := bc.stored()
	psrc, pat := pc.stored()
	bkeys, pkeys, bridged, err := joinKeyReaders(bsrc, psrc, bat, pat)
	if err != nil || m == 0 || n == 0 {
		return left, right, err
	}
	ht := buildJoinTable(ctx, bkeys, m, n, bridged, layout)
	once := keep == keepProbeOnce || keep == keepProbe && ht.unique

	// Keys stored as int32s — dates, dictionary codes — probe as they are.
	var perL, perR [][]int32
	if narrow, ok := keysOf[int32](psrc, pat); ok {
		perL, perR = probeAll(ctx, ht, narrow, n, !once)
	} else {
		perL, perR = probeAll(ctx, ht, pkeys, n, !once)
	}
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
		par.Put(perL[mi])
		par.Put(perR[mi])
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
	lkeys, rkeys, _, err := joinKeyReaders(lk, rk, nil, nil)
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
