package engine

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"robustdb/internal/column"
)

// benchDimKeys returns the 2 557 keys of a seven-year date dimension in three
// spellings: dense, the surrogate keys 1 … n a dimension usually has; date,
// SSB's d_datekey = yyyymmdd, whose domain 19920101 … 19981231 is 24 slots
// wide for every key in it; and strided, every 256th integer, as when each
// of 256 shards hands out the surrogate keys of its own residue class.
func benchDimKeys() (dense, date, strided []int64) {
	for d := time.Date(1992, 1, 1, 0, 0, 0, 0, time.UTC); d.Year() < 1999; d = d.AddDate(0, 0, 1) {
		n := int64(len(dense) + 1)
		dense, strided = append(dense, n), append(strided, 256*n)
		date = append(date, int64(d.Year()*10000+int(d.Month())*100+d.Day()))
	}
	return dense, date, strided
}

// BenchmarkJoinLayout states the crossover the density rule encodes: the same
// dimension ⋈ fact join, single-threaded, in each layout and as the rule
// picks (DESIGN.md §19 has the sweep the constants come from). Direct wins on
// the dense and the date keys under 6 000 and under 600 000 probe rows; on
// the strided keys it wins under 600 000 rows, which amortize a 654 000-slot
// table, and loses under 6 000, which do not — and "auto" sits on the better
// side all six times.
func BenchmarkJoinLayout(b *testing.B) {
	dense, date, strided := benchDimKeys()
	for _, dim := range []struct {
		name string
		keys []int64
	}{{"dense", dense}, {"date", date}, {"strided", strided}} {
		for _, np := range []int{6000, 600000} {
			rng := rand.New(rand.NewSource(7))
			pk := make([]int64, np)
			for i := range pk {
				pk[i] = dim.keys[rng.Intn(len(dim.keys))]
			}
			build := MustNewBatch(column.NewInt64("bk", dim.keys))
			probe := MustNewBatch(column.NewInt64("pk", pk))
			for _, l := range []struct {
				name   string
				layout joinLayout
			}{{"direct", layoutDirect}, {"hash", layoutHash}, {"auto", layoutAuto}} {
				b.Run(fmt.Sprintf("%s/probe%d/%s", dim.name, np, l.name), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						left, _, err := equiJoin(nil, "bench", build, "bk", probe, "pk", keepBoth, l.layout)
						if err != nil || left.Len() != np {
							b.Fatalf("join produced %d pairs (%v)", left.Len(), err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkGroupLayout is BenchmarkJoinLayout for the group-by's slot table:
// 2^17 rows summed by one key, single-threaded, in each layout and as the
// density rule picks — the rule the join applies to its probe side, a
// morsel's 8 192 rows being the probe rows. What the rule reads is varied and
// nothing else: the key domain is 8 to 2^24 wide and holds 1 024 keys (8 in
// the first), evenly spaced. Direct wins while a morsel zeroes no more than
// two slots a row and loses beyond; "auto" sits on the better side of every
// pair. DESIGN.md §23 has the sweep, and the one with every key of the domain
// in use, where direct holds on for longer than the rule can know.
func BenchmarkGroupLayout(b *testing.B) {
	const n = 1 << 17
	aggs := []AggSpec{{Func: Sum, Col: "v", As: "s"}}
	for _, width := range []int{8, 1 << 10, 1 << 14, 1 << 18, 1 << 24} {
		groups := min(width, 1<<10)
		rng := rand.New(rand.NewSource(11))
		keys, vals := make([]int64, n), make([]float64, n)
		for i := range keys {
			keys[i], vals[i] = int64(rng.Intn(groups)*(width/groups)), float64(i&1023)
		}
		in := MustNewBatch(column.NewInt64("k", keys), column.NewFloat64("v", vals))
		for _, l := range []struct {
			name   string
			layout joinLayout
		}{{"direct", layoutDirect}, {"hash", layoutHash}, {"auto", layoutAuto}} {
			b.Run(fmt.Sprintf("width%d/%s", width, l.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					out, err := groupBy(nil, in, []string{"k"}, aggs, l.layout)
					if err != nil || out.NumRows() != groups {
						b.Fatalf("group-by produced %d groups (%v)", out.NumRows(), err)
					}
				}
			})
		}
	}
}
