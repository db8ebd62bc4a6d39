package engine

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"robustdb/internal/column"
	"robustdb/internal/par"
)

// joinIn forces a layout through equiJoin's unexported argument.
func joinIn(t testing.TB, ctx *Ctx, layout joinLayout, build, probe *Batch, semi bool) *JoinResult {
	t.Helper()
	keep := keepBoth
	if semi {
		keep = keepProbeOnce
	}
	l, r, err := equiJoin(ctx, "test join", build, "k", probe, "k", keep, layout)
	if err != nil {
		t.Fatal(err)
	}
	return &JoinResult{LeftPos: l, RightPos: r}
}

// keyColumn spells integer keys as a key column of the named encoding. Each
// string column gets a dictionary of its own, so a join of two of them goes
// through the code bridge.
func keyColumn(enc string, keys []int64) column.Column {
	switch enc {
	case "plain":
		return column.NewInt64("k", keys)
	case "for":
		return column.CompressInt64(column.NewInt64("k", keys))
	case "date":
		days := make([]int32, len(keys))
		for i, k := range keys {
			days[i] = int32(k)
		}
		return column.NewDate("k", days)
	default:
		strs := make([]string, len(keys))
		for i, k := range keys {
			strs[i] = fmt.Sprintf("key%+012d", k)
		}
		return column.NewString("k", strs)
	}
}

// TestJoinLayoutsAgree is the three-way property: the direct layout, the
// hash layout and the nested-loop reference emit the same pairs in the same
// order, and the semi join keeps the distinct probe rows of those pairs — for
// every key distribution, key encoding and worker count, with probe sizes on
// both sides of the morsel grain.
func TestJoinLayoutsAgree(t *testing.T) {
	const nb = 300
	dists := []struct {
		name  string
		build func(rng *rand.Rand, i int) int64
		probe func(rng *rand.Rand, zipf *rand.Zipf) int64
	}{
		{"dense", func(_ *rand.Rand, i int) int64 { return int64(i) * 7 % nb }, // a permutation of 0 … nb−1
			func(rng *rand.Rand, _ *rand.Zipf) int64 { return int64(rng.Intn(nb+20)) - 10 }},
		{"sparse", func(rng *rand.Rand, _ int) int64 { return int64(rng.Intn(1 << 21)) },
			func(rng *rand.Rand, _ *rand.Zipf) int64 { return int64(rng.Intn(1 << 21)) }},
		{"negative", func(_ *rand.Rand, i int) int64 { return int64(i) - 2*nb/3 },
			func(rng *rand.Rand, _ *rand.Zipf) int64 { return int64(rng.Intn(2*nb)) - nb }},
		{"duplicates", func(rng *rand.Rand, _ int) int64 { return int64(rng.Intn(nb / 8)) },
			func(rng *rand.Rand, _ *rand.Zipf) int64 { return int64(rng.Intn(nb / 6)) }},
		{"zipf", func(_ *rand.Rand, i int) int64 { return int64(i) },
			func(_ *rand.Rand, zipf *rand.Zipf) int64 { return int64(zipf.Uint64()) }},
	}
	sizes := []int{par.DefaultMorselRows - 1, par.DefaultMorselRows + 1, 2*par.DefaultMorselRows + 5}
	for di, d := range dists {
		for _, enc := range []string{"plain", "for", "date", "string"} {
			for _, np := range sizes {
				rng := rand.New(rand.NewSource(int64(100*di + np)))
				zipf := rand.NewZipf(rng, 1.3, 1, nb-1)
				bk, pk := make([]int64, nb), make([]int64, np)
				for i := range bk {
					bk[i] = d.build(rng, i)
				}
				for i := range pk {
					pk[i] = d.probe(rng, zipf)
				}
				if d.name == "sparse" { // a sparse probe would never hit: draw half of it from the build side
					for i := 0; i < np; i += 2 {
						pk[i] = bk[rng.Intn(nb)]
					}
				}
				checkLayoutsAgree(t, fmt.Sprintf("%s/%s/%d", d.name, enc, np), keyColumn(enc, bk), keyColumn(enc, pk))
			}
		}
	}
	// A build side past the morsel grain: the hash layout partitions 16 ways
	// and its three phases fan out.
	rng := rand.New(rand.NewSource(99))
	bk, pk := make([]int64, par.DefaultMorselRows+500), make([]int64, par.DefaultMorselRows+1)
	for i := range bk {
		bk[i] = int64(rng.Intn(3 * len(bk)))
	}
	for i := range pk {
		pk[i] = int64(rng.Intn(3 * len(bk)))
	}
	checkLayoutsAgree(t, "partitioned", keyColumn("plain", bk), keyColumn("for", pk))
}

func checkLayoutsAgree(t *testing.T, label string, bk, pk column.Column) {
	t.Helper()
	build, probe := MustNewBatch(bk), MustNewBatch(pk)
	ref, err := NestedLoopJoin(build, "k", probe, "k")
	if err != nil {
		t.Fatal(err)
	}
	if ref.NumRows() == 0 {
		t.Fatalf("%s: the reference join matched nothing; the case tests nothing", label)
	}
	refSemi := slices.Compact(slices.Clone(ref.RightPos.Explicit()))
	for _, layout := range []joinLayout{layoutDirect, layoutHash, layoutAuto} {
		for _, w := range []int{1, 2, 7} {
			if got := joinIn(t, ctxFor(w), layout, build, probe, false); !sameJoin(got, ref) {
				t.Fatalf("%s layout %d workers %d: %d pairs, the nested loop has %d (or their order differs)",
					label, layout, w, got.NumRows(), ref.NumRows())
			}
			if got := joinIn(t, ctxFor(w), layout, build, probe, true); !slices.Equal(got.RightPos.Explicit(), refSemi) {
				t.Fatalf("%s layout %d workers %d: semi join kept %d rows, want %d", label, layout, w, got.RightPos.Len(), len(refSemi))
			}
		}
	}
}

// TestJoinSkewBoundedSlowdown is the first step of the skew pin: a probe side
// whose keys are Zipf-distributed (a few heavy hitters take most rows) costs
// no more than a small multiple of a uniform one in either layout — neither
// has a per-key structure a hot key could grow.
func TestJoinSkewBoundedSlowdown(t *testing.T) {
	if raceBuild || testing.Short() {
		t.Skip("a timing comparison")
	}
	const nb, np = 4096, 40 * par.DefaultMorselRows
	rng := rand.New(rand.NewSource(5))
	zipf := rand.NewZipf(rng, 1.3, 1, nb-1)
	bk, uniform, skewed := make([]int64, nb), make([]int64, np), make([]int64, np)
	for i := range bk {
		bk[i] = int64(i)
	}
	for i := range uniform {
		uniform[i], skewed[i] = int64(rng.Intn(nb)), int64(zipf.Uint64())
	}
	build := MustNewBatch(column.NewInt64("k", bk))
	fastest := func(layout joinLayout, pk []int64) time.Duration {
		probe := MustNewBatch(column.NewInt64("k", pk))
		best := time.Duration(math.MaxInt64)
		for rep := 0; rep < 7; rep++ {
			t0 := time.Now()
			if got := joinIn(t, nil, layout, build, probe, false); got.NumRows() != np {
				t.Fatalf("join produced %d pairs", got.NumRows())
			}
			best = min(best, time.Since(t0))
		}
		return best
	}
	for _, layout := range []joinLayout{layoutDirect, layoutHash} {
		u, z := fastest(layout, uniform), fastest(layout, skewed)
		t.Logf("layout %d: uniform %v, zipf %v", layout, u, z)
		if z > 3*u {
			t.Errorf("layout %d: Zipf-skewed probe %v, uniform %v: more than 3× slower", layout, z, u)
		}
	}
}

// hugeColumn claims more rows than int32 positions address.
type hugeColumn struct{ *column.Int64Column }

func (hugeColumn) Len() int { return math.MaxInt32 + 1 }

// TestJoinLayoutGuards holds the layout choice to its edge cases, each in
// both layouts where both can exist.
func TestJoinLayoutGuards(t *testing.T) {
	const lo, hi = math.MinInt64, math.MaxInt64
	cases := []struct {
		name         string
		build, probe []int64
		direct       bool // the rule must pick the direct layout, and it can be forced
	}{
		{"domain wider than int64", []int64{lo, hi, 0, lo + 1}, []int64{hi, lo, 5, 0, lo + 1, hi - 1}, false},
		{"domain wider than any table", []int64{-1 << 40, 1 << 40}, []int64{1 << 40, 0, -1 << 40}, false},
		{"dense at the top of int64", []int64{hi, hi - 2, hi - 1, hi - 2}, []int64{hi - 2, lo, hi, 0, hi - 3}, true},
		{"dense at the bottom of int64", []int64{lo + 1, lo, lo + 3}, []int64{lo, hi, lo + 2, lo + 3, -1}, true},
		{"negative minimum", []int64{-3, 4, -7, 0, 4}, []int64{4, -7, -8, 5, 0, -3, 4}, true},
		{"minus one is a key", []int64{-1, 0, 1}, []int64{-1, -1, 1, -2}, true},
	}
	reader := func(keys []int64) keyReader {
		return func(lo, hi int, _ []int64) []int64 { return keys[lo:hi] }
	}
	for _, c := range cases {
		if ht := buildJoinTable(nil, reader(c.build), len(c.build), len(c.probe), false, layoutAuto); (ht.parts == nil) != c.direct {
			t.Errorf("%s: the rule picked the wrong layout (direct: %v)", c.name, ht.parts == nil)
		}
		build, probe := MustNewBatch(column.NewInt64("k", c.build)), MustNewBatch(column.NewInt64("k", c.probe))
		ref, err := NestedLoopJoin(build, "k", probe, "k")
		if err != nil {
			t.Fatal(err)
		}
		for _, layout := range []joinLayout{layoutAuto, layoutHash, layoutDirect} {
			if layout == layoutDirect && !c.direct {
				continue
			}
			if got := joinIn(t, nil, layout, build, probe, false); !sameJoin(got, ref) {
				t.Errorf("%s layout %d: pairs (%v, %v), want (%v, %v)", c.name, layout,
					got.LeftPos.Explicit(), got.RightPos.Explicit(), ref.LeftPos.Explicit(), ref.RightPos.Explicit())
			}
		}
	}

	// Bridged string keys: build values the probe dictionary lacks become −1,
	// which is no key — it matches nothing and does not widen the domain.
	sb := MustNewBatch(column.NewString("k", []string{"zz-absent", "b", "aa-absent", "d", "b"}))
	sp := MustNewBatch(column.NewString("k", []string{"b", "c", "d", "a", "b"}))
	bkeys, _, bridged, err := joinKeyReaders(sb.MustColumn("k"), sp.MustColumn("k"))
	if err != nil || !bridged {
		t.Fatalf("string keys with two dictionaries: bridged %v, %v", bridged, err)
	}
	ht := buildJoinTable(nil, bkeys, 5, 5, bridged, layoutAuto)
	if ht.parts != nil || ht.min != 1 || len(ht.head) != 4 { // codes b = 1 … d = 3, and the spare slot
		t.Errorf("bridged table: min %d over %d slots, want the codes 1 … 3 only", ht.min, len(ht.head))
	}
	want := &JoinResult{LeftPos: column.Positions([]int32{1, 4, 3, 1, 4}), RightPos: column.Positions([]int32{0, 0, 2, 4, 4})}
	for _, layout := range []joinLayout{layoutAuto, layoutHash, layoutDirect} {
		if got := joinIn(t, nil, layout, sb, sp, false); !sameJoin(got, want) {
			t.Errorf("bridged layout %d: pairs (%v, %v)", layout, got.LeftPos.Explicit(), got.RightPos.Explicit())
		}
	}

	// More rows than positions address are refused, on either side.
	small := MustNewBatch(column.NewInt64("k", []int64{1}))
	huge := MustNewBatch(hugeColumn{column.NewInt64("k", nil)})
	if _, err := HashJoin(nil, huge, "k", small, "k"); err == nil {
		t.Error("a build side of 2^31 rows was accepted")
	}
	if _, err := SemiJoin(nil, small, "k", huge, "k"); err == nil {
		t.Error("a probe side of 2^31 rows was accepted")
	}
}

// TestJoinLayoutRule pins which side of the density rule the shapes the
// benchmarks and the SQL suite rely on fall: the hash layout must stay
// reached from real queries (TestSQLSparseJoinKeys at the repository root
// runs the last shape).
func TestJoinLayoutRule(t *testing.T) {
	dense, date, strided := benchDimKeys()
	for _, c := range []struct {
		name      string
		keys      []int64
		probeRows int
		direct    bool
	}{
		{"surrogate keys, 6 000 probe rows", dense, 6000, true},
		{"yyyymmdd, 6 000 probe rows", date, 6000, true},
		{"yyyymmdd, 600 000 probe rows", date, 600000, true},
		{"every 256th integer, 6 000 probe rows", strided, 6000, false},
		{"every 256th integer, 600 000 probe rows", strided, 600000, true},
		{"two dates seven years apart, 4 000 probe rows", []int64{19920101, 19981230}, 4000, false},
	} {
		keys := c.keys
		ht := buildJoinTable(nil, func(lo, hi int, _ []int64) []int64 { return keys[lo:hi] }, len(keys), c.probeRows, false, layoutAuto)
		if got := ht.parts == nil; got != c.direct {
			t.Errorf("%s: direct layout %v, want %v", c.name, got, c.direct)
		}
	}
}

// TestEmptyJoinSideAllocations: a join with an empty build side returns the
// empty result without reading a probe key or sizing anything by the probe
// side, however long that is.
func TestEmptyJoinSideAllocations(t *testing.T) {
	empty, ctx := MustNewBatch(column.NewInt64("k", nil)), ctxFor(2)
	for _, n := range []int{10, 40 * par.DefaultMorselRows} {
		probe := MustNewBatch(column.CompressInt64(column.NewInt64("k", make([]int64, n))))
		allocs := testing.AllocsPerRun(20, func() {
			res, err := HashJoin(ctx, empty, "k", probe, "k")
			pos, serr := SemiJoin(nil, empty, "k", probe, "k")
			if err != nil || serr != nil || res.NumRows() != 0 || pos.Len() != 0 {
				t.Fatalf("empty build side: %d pairs, %d rows (%v, %v)", res.NumRows(), pos.Len(), err, serr)
			}
		})
		if allocs > 12 { // two pools, the key readers' closures, one result: nothing that grows with n
			t.Errorf("%d probe rows: %v allocations for two joins with an empty build side", n, allocs)
		}
	}
}
