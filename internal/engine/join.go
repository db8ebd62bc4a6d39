package engine

import (
	"fmt"

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
func (r *JoinResult) NumRows() int { return len(r.LeftPos) }

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
// joins therefore never materialize or hash a single string.
func joinKeyReaders(build, probe column.Column) (keyReader, keyReader, error) {
	bs, bok := build.(*column.StringColumn)
	ps, pok := probe.(*column.StringColumn)
	if bok != pok {
		return nil, nil, fmt.Errorf("join: cannot join %s (%T) with %s (%T)",
			build.Name(), build, probe.Name(), probe)
	}
	if !bok {
		br, ok := column.Reader[int64](build)
		if !ok {
			return nil, nil, fmt.Errorf("join: unsupported key column type %T (%s)", build, build.Name())
		}
		pr, ok := column.Reader[int64](probe)
		if !ok {
			return nil, nil, fmt.Errorf("join: unsupported key column type %T (%s)", probe, probe.Name())
		}
		return br, pr, nil
	}
	if len(bs.Dict) == len(ps.Dict) && (len(bs.Dict) == 0 || &bs.Dict[0] == &ps.Dict[0]) {
		// Shared dictionary: one code domain on both sides.
		return codeReader(bs.Codes, nil), codeReader(ps.Codes, nil), nil
	}
	bridge := make([]int64, len(bs.Dict))
	for c, s := range bs.Dict {
		if code, ok := ps.Code(s); ok {
			bridge[c] = int64(code)
		} else {
			bridge[c] = -1
		}
	}
	return codeReader(bs.Codes, bridge), codeReader(ps.Codes, nil), nil
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

// joinPartitionBits selects 2^4 = 16 partitions for inputs large enough to
// parallelize; below the morsel grain a single partition avoids all
// partitioning overhead. The partition count depends only on the input size,
// so the table layout — and therefore match order — is identical at every
// worker count.
const joinPartitionBits = 4

// joinPart is one partition of the build table: an open-addressing
// (linear-probe, power-of-two) index from key to a chain of build rows.
// Chains list build rows in ascending order, which makes the probe emit
// matches in exactly the order the previous map-based join (and the
// NestedLoopJoin reference) produced.
type joinPart struct {
	shift uint    // hash right-shift for the slot index
	mask  uint32  // slot mask (power-of-two size − 1)
	key   []int64 // slot → key, valid where head ≥ 0
	head  []int32 // slot → first chain entry, −1 when the slot is empty
	next  []int32 // chain entry → next entry with the same key, −1 at end
	rows  []int32 // chain entry → build row
}

// lookup returns the first chain entry for key k (with h = fibHash(k)), or
// −1 when the key is absent. The load factor is kept ≤ 0.5, so probing always
// terminates at an empty slot.
func (p *joinPart) lookup(k int64, h uint64) int32 {
	if len(p.head) == 0 {
		return -1
	}
	s := uint32(h>>p.shift) & p.mask
	for {
		c := p.head[s]
		if c < 0 {
			return -1
		}
		if p.key[s] == k {
			return c
		}
		s = (s + 1) & p.mask
	}
}

type joinTable struct {
	pbits uint
	parts []joinPart
}

func (t *joinTable) partOf(h uint64) *joinPart {
	if t.pbits == 0 {
		return &t.parts[0]
	}
	return &t.parts[h>>(64-t.pbits)]
}

// buildJoinTable constructs the partitioned build-side table. The three
// phases (count, scatter, per-partition insert) each fan out over disjoint
// index ranges, and partition contents are laid out in global row order, so
// the finished table is byte-identical regardless of worker count.
func buildJoinTable(ctx *Ctx, key keyReader, n int) *joinTable {
	var pbits uint
	if n > par.DefaultMorselRows {
		pbits = joinPartitionBits
	}
	numParts := 1 << pbits
	t := &joinTable{pbits: pbits, parts: make([]joinPart, numParts)}

	// Phase 1: hoist keys once and count rows per (morsel, partition).
	keys := make([]int64, n)
	numMorsels := par.Morsels(n)
	counts := make([][]int32, numMorsels)
	ctx.forEachMorselNoErr(n, func(mi, lo, hi int) {
		cnt := make([]int32, numParts)
		copy(keys[lo:hi], key(lo, hi, keys[lo:lo:hi])) // decoded in place, or copied from the column
		for _, k := range keys[lo:hi] {
			cnt[fibHash(k)>>(64-pbits)]++
		}
		counts[mi] = cnt
	})

	// Prefix-sum the counts into scatter offsets: partition p receives its
	// rows morsel by morsel, i.e. in ascending global row order.
	for p := 0; p < numParts; p++ {
		var run int32
		for mi := 0; mi < numMorsels; mi++ {
			c := counts[mi][p]
			counts[mi][p] = run
			run += c
		}
		t.parts[p].rows = make([]int32, run)
	}

	// Phase 2: scatter rows into their partitions. Each (morsel, partition)
	// pair writes a disjoint region, so the fan-out is race-free.
	ctx.forEachMorselNoErr(n, func(mi, lo, hi int) {
		off := counts[mi]
		for i := lo; i < hi; i++ {
			p := fibHash(keys[i]) >> (64 - pbits)
			t.parts[p].rows[off[p]] = int32(i)
			off[p]++
		}
	})

	// Phase 3: build each partition's open-addressing index. Inserting in
	// descending chain order with prepends leaves every per-key chain in
	// ascending build-row order.
	ctx.forEachNNoErr(numParts, func(p int) {
		part := &t.parts[p]
		nrows := len(part.rows)
		slots := 8
		var slotBits uint = 3
		for slots < 2*nrows { // load factor ≤ 0.5
			slots <<= 1
			slotBits++
		}
		part.mask = uint32(slots - 1)
		part.shift = 64 - pbits - slotBits
		part.key = make([]int64, slots)
		part.head = make([]int32, slots)
		for s := range part.head {
			part.head[s] = -1
		}
		part.next = make([]int32, nrows)
		for c := nrows - 1; c >= 0; c-- {
			k := keys[part.rows[c]]
			s := uint32(fibHash(k)>>part.shift) & part.mask
			for {
				if part.head[s] < 0 {
					part.key[s] = k
					part.head[s] = int32(c)
					part.next[c] = -1
					break
				}
				if part.key[s] == k {
					part.next[c] = part.head[s]
					part.head[s] = int32(c)
					break
				}
				s = (s + 1) & part.mask
			}
		}
	})
	return t
}

// HashJoin computes the inner equi-join of left and right on
// left.leftKey = right.rightKey. The hash table is built on the left
// (conventionally the smaller, filtered dimension side) and probed with the
// right. Matches preserve the probe order, like CoGaDB's join kernel; ties
// on one probe row list build rows in ascending order. The result is
// bit-identical at every worker count, including serial (nil ctx).
func HashJoin(ctx *Ctx, left *Batch, leftKey string, right *Batch, rightKey string) (*JoinResult, error) {
	lk, err := left.Column(leftKey)
	if err != nil {
		return nil, fmt.Errorf("hash join build side: %w", err)
	}
	rk, err := right.Column(rightKey)
	if err != nil {
		return nil, fmt.Errorf("hash join probe side: %w", err)
	}
	lkeys, rkeys, err := joinKeyReaders(lk, rk)
	if err != nil {
		return nil, err
	}
	ht := buildJoinTable(ctx, lkeys, lk.Len())

	n := rk.Len()
	res := &JoinResult{}
	if par.Morsels(n) <= 1 {
		if n == 0 {
			return res, nil
		}
		// Serial probe; preallocate from the probe-side cardinality estimate
		// (≈ one match per probe row) instead of growing from nil.
		res.LeftPos = make(column.PosList, 0, n)
		res.RightPos = make(column.PosList, 0, n)
		probeJoinRange(ht, rkeys, 0, n, &res.LeftPos, &res.RightPos)
		if len(res.LeftPos) == 0 {
			res.LeftPos, res.RightPos = nil, nil
		}
		return res, nil
	}

	// Parallel probe into arena-backed per-morsel buffers, stitched back in
	// morsel (= probe) order.
	numMorsels := par.Morsels(n)
	perL := make([]column.PosList, numMorsels)
	perR := make([]column.PosList, numMorsels)
	ctx.forEachMorselNoErr(n, func(mi, lo, hi int) {
		lbuf := par.GetPos(hi - lo)
		rbuf := par.GetPos(hi - lo)
		probeJoinRange(ht, rkeys, lo, hi, &lbuf, &rbuf)
		perL[mi], perR[mi] = lbuf, rbuf
	})
	total := 0
	for _, s := range perL {
		total += len(s)
	}
	if total == 0 {
		for mi := range perL {
			par.PutPos(perL[mi])
			par.PutPos(perR[mi])
		}
		return res, nil
	}
	res.LeftPos = make(column.PosList, 0, total)
	res.RightPos = make(column.PosList, 0, total)
	for mi := range perL {
		res.LeftPos = append(res.LeftPos, perL[mi]...)
		res.RightPos = append(res.RightPos, perR[mi]...)
		par.PutPos(perL[mi])
		par.PutPos(perR[mi])
	}
	return res, nil
}

// probeJoinRange probes rows [lo, hi) of the probe side (at most a morsel)
// against the table, appending matches to the position buffers. The keys of
// the range are read once, into pooled scratch if they need decoding.
func probeJoinRange(ht *joinTable, key keyReader, lo, hi int, lout, rout *column.PosList) {
	scratch := par.GetInt64(hi - lo)
	for i, k := range key(lo, hi, scratch) {
		h := fibHash(k)
		part := ht.partOf(h)
		for c := part.lookup(k, h); c >= 0; c = part.next[c] {
			*lout = append(*lout, part.rows[c])
			*rout = append(*rout, int32(lo+i))
		}
	}
	par.PutInt64(scratch)
}

// SemiJoin returns the probe-side positions that have at least one build-side
// match, in ascending order. It implements the invisible-join style filtering
// of star schema plans: filter a dimension, semi-join the fact table's
// foreign key.
func SemiJoin(ctx *Ctx, build *Batch, buildKey string, probe *Batch, probeKey string) (column.PosList, error) {
	bk, err := build.Column(buildKey)
	if err != nil {
		return nil, fmt.Errorf("semi join build side: %w", err)
	}
	pk, err := probe.Column(probeKey)
	if err != nil {
		return nil, fmt.Errorf("semi join probe side: %w", err)
	}
	bkeys, pkeys, err := joinKeyReaders(bk, pk)
	if err != nil {
		return nil, err
	}
	ht := buildJoinTable(ctx, bkeys, bk.Len())

	n := pk.Len()
	if par.Morsels(n) <= 1 {
		var out column.PosList
		semiJoinRange(ht, pkeys, 0, n, &out)
		return out, nil
	}
	numMorsels := par.Morsels(n)
	parts := make([]column.PosList, numMorsels)
	ctx.forEachMorselNoErr(n, func(mi, lo, hi int) {
		buf := par.GetPos(hi - lo)
		semiJoinRange(ht, pkeys, lo, hi, &buf)
		parts[mi] = buf
	})
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if total == 0 {
		for _, p := range parts {
			par.PutPos(p)
		}
		return nil, nil
	}
	out := make(column.PosList, 0, total)
	for _, p := range parts {
		out = append(out, p...)
		par.PutPos(p)
	}
	return out, nil
}

func semiJoinRange(ht *joinTable, key keyReader, lo, hi int, out *column.PosList) {
	scratch := par.GetInt64(hi - lo)
	for i, k := range key(lo, hi, scratch) {
		h := fibHash(k)
		if ht.partOf(h).lookup(k, h) >= 0 {
			*out = append(*out, int32(lo+i))
		}
	}
	par.PutInt64(scratch)
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
	lkeys, rkeys, err := joinKeyReaders(lk, rk)
	if err != nil {
		return nil, err
	}
	res := &JoinResult{}
	buildKeys := lkeys(0, lk.Len(), nil)
	for j, kj := range rkeys(0, rk.Len(), nil) {
		for i, ki := range buildKeys {
			if ki == kj {
				res.LeftPos = append(res.LeftPos, int32(i))
				res.RightPos = append(res.RightPos, int32(j))
			}
		}
	}
	return res, nil
}

// MaterializeJoin gathers the requested columns from both sides of a join
// result into one batch. Column name collisions are an error; plans qualify
// names up front.
func MaterializeJoin(ctx *Ctx, res *JoinResult, left *Batch, leftCols []string, right *Batch, rightCols []string) (*Batch, error) {
	lp, err := left.Project(leftCols...)
	if err != nil {
		return nil, err
	}
	rp, err := right.Project(rightCols...)
	if err != nil {
		return nil, err
	}
	return NewBatch(append(GatherAll(ctx, lp.cols, res.LeftPos), GatherAll(ctx, rp.cols, res.RightPos)...)...)
}
