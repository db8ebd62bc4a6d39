package robustdb

// One sub-benchmark of BenchmarkFig per figure of the paper's evaluation and
// per ablation. Each regenerates its figure on the simulated machine and logs
// the series the paper plots (visible with `go test -bench=Fig -benchmem -v`);
// benchmark time is the cost of reproducing the experiment end to end,
// including data generation and every simulated run.
//
// The options keep the default `go test -bench=.` affordable; raise
// RowsPerSF/Reps (see cmd/benchfig) for sharper steady-state numbers.

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"robustdb/internal/column"
	"robustdb/internal/cost"
	"robustdb/internal/engine"
	"robustdb/internal/exec"
	"robustdb/internal/expr"
	"robustdb/internal/figures"
	"robustdb/internal/par"
	"robustdb/internal/plan"
	"robustdb/internal/sim"
	"robustdb/internal/table"
)

// benchOpts is a reduced-scale configuration for the benchmark suite.
var benchOpts = figures.Options{RowsPerSF: 6000, Reps: 1, Seed: 0}

// BenchmarkFig regenerates every figure and ablation of figures.IDs(), one
// sub-benchmark each (BenchmarkFig/fig1 …), and logs its series at
// benchOpts' scale.
func BenchmarkFig(b *testing.B) {
	for _, id := range figures.IDs() {
		build := figures.All()[id]
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				figs := build(benchOpts)
				if i == 0 {
					for _, f := range figs {
						b.Log("\n" + f.String())
					}
				}
			}
		})
	}
}

// BenchmarkQueryChopping measures the core engine path end to end: one
// Data-Driven Chopping execution of SSB Q3.3 per iteration, real kernels
// plus simulation included.
func BenchmarkQueryChopping(b *testing.B) {
	db := OpenSSB(SSBConfig{SF: 1, RowsPerSF: 6000, Seed: 0})
	q, err := SSBQuery("Q3.3")
	if err != nil {
		b.Fatal(err)
	}
	dev := db.DeviceForWorkingSet(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := db.Query(dev, DataDrivenChopping(), q); err != nil {
			b.Fatal(err)
		}
	}
}

// servedStatements is the statement mix of the serve-scan-large workload in
// bench/workloads.go, verbatim: cmd/robustdb's -loadgen statements, then SSB
// Q1.1, Q2.1 and Q3.3.
var servedStatements = []struct{ name, sql string }{
	{"scan-sum", "SELECT SUM(lo_revenue) AS revenue FROM lineorder"},
	{"filter-sum", "SELECT SUM(lo_extendedprice * lo_discount) AS revenue FROM lineorder WHERE lo_discount BETWEEN 1 AND 3 AND lo_quantity < 25"},
	{"group-count", "SELECT lo_quantity, COUNT(*) AS orders FROM lineorder GROUP BY lo_quantity"},
	{"join-group", "SELECT d_year, SUM(lo_revenue) AS revenue FROM lineorder, date WHERE lo_orderdate = d_datekey GROUP BY d_year"},
	{"Q1.1", "select sum(lo_extendedprice * lo_discount) as revenue from lineorder, date where lo_orderdate = d_datekey and d_year = 1993 and lo_discount between 1 and 3 and lo_quantity < 25"},
	{"Q2.1", "select d_year, p_brand1, sum(lo_revenue) as sum_revenue from lineorder, date, part, supplier where lo_orderdate = d_datekey and lo_partkey = p_partkey and lo_suppkey = s_suppkey and p_category = 'MFGR#12' and s_region = 'AMERICA' group by d_year, p_brand1 order by d_year, p_brand1"},
	{"Q3.3", "select c_city, s_city, d_year, sum(lo_revenue) as revenue from customer, lineorder, supplier, date where lo_custkey = c_custkey and lo_suppkey = s_suppkey and lo_orderdate = d_datekey and c_city in ('UNITED KI1', 'UNITED KI5') and s_city in ('UNITED KI1', 'UNITED KI5') and d_year between 1992 and 1997 group by c_city, s_city, d_year order by d_year asc, revenue desc"},
}

// BenchmarkServedStatement runs the serve-scan-large statements in-process,
// one sub-benchmark each, so that a change to that workload's wall clock can
// be placed at one statement: DB.SQL and DB.Query on SSB SF 10 under
// Data-Driven Chopping, on the device cmd/robustdb -serve builds there (half
// the database cached, a heap the size of it, two kernel workers, pipeline
// depth 2 with co-execution). It is not in the Micro set the CI gate compares.
func BenchmarkServedStatement(b *testing.B) {
	db := OpenSSB(SSBConfig{SF: 10, Seed: 1})
	dev := Device{CacheBytes: db.TotalBytes() / 2, HeapBytes: db.TotalBytes(), KernelWorkers: 2, PipelineDepth: 2, PipelineCoExec: true}
	for _, s := range servedStatements {
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p, err := db.SQL(s.sql)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := db.Query(dev, DataDrivenChopping(), p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// The BenchmarkMicro* set below is the pinned suite the CI perf-regression
// gate runs (`go test -run=NONE -bench=Micro -benchtime=200x -count=5 .`,
// compared against BENCH_BASELINE.json by cmd/benchdiff). Keep each
// iteration in the low-millisecond range and fully deterministic: fixed
// seeds, fixed scales, no wall-clock dependence in the measured work.

var (
	microOnce sync.Once
	microDB   *DB
)

// microDatabase builds the small fixed SSB instance the micro set shares.
func microDatabase() *DB {
	microOnce.Do(func() {
		microDB = OpenSSB(SSBConfig{SF: 1, RowsPerSF: 3000, Seed: 0})
	})
	return microDB
}

// microWorkload runs one small workload configuration to completion.
func microWorkload(b *testing.B, strat Strategy, users int, tracer *Tracer) {
	b.Helper()
	db := microDatabase()
	queries := SSBQueries()[:4] // Q1.1–Q2.1: scans, joins, aggregates
	dev := db.DeviceForWorkingSet(0.5)
	dev.Tracer = tracer
	dev.KernelWorkers = runtime.GOMAXPROCS(0)
	spec := Workload{Queries: queries, Users: users}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tracer != nil {
			tracer.Reset()
		}
		if _, _, err := db.RunWorkload(dev, strat, spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicroChopping is the engine hot path: a single-user pass of four
// SSB queries under Data-Driven Chopping.
func BenchmarkMicroChopping(b *testing.B) {
	microWorkload(b, DataDrivenChopping(), 1, nil)
}

// BenchmarkMicroRuntime covers the run-time placement path (per-operator
// completion-time estimates and queue accounting).
func BenchmarkMicroRuntime(b *testing.B) {
	microWorkload(b, RunTime(), 1, nil)
}

// BenchmarkMicroMultiUser covers contention: four sessions sharing the
// device under chopping's bounded pools.
func BenchmarkMicroMultiUser(b *testing.B) {
	microWorkload(b, DataDrivenChopping(), 4, nil)
}

// BenchmarkMicroTraced is BenchmarkMicroChopping with a live tracer: the
// delta against it is the tracing overhead the zero-cost-off claim is about.
func BenchmarkMicroTraced(b *testing.B) {
	microWorkload(b, DataDrivenChopping(), 1, NewTracer(0))
}

// microKernelRows sizes the synthetic kernel benchmarks: large enough that
// the morsel scheduler splits the input (16 morsels of 8192 rows).
const microKernelRows = 1 << 17

var (
	microKernelOnce  sync.Once
	microKernelBatch *engine.Batch
	microKernelDim   *engine.Batch
)

// microKernelData builds the fixed seeded batches the kernel micro set
// shares: a 128Ki-row fact batch and a 4Ki-row dimension batch.
func microKernelData() (fact, dim *engine.Batch) {
	microKernelOnce.Do(func() {
		rng := rand.New(rand.NewSource(42))
		keys := make([]int64, microKernelRows)
		grps := make([]int64, microKernelRows)
		vals := make([]float64, microKernelRows)
		for i := range keys {
			keys[i] = int64(rng.Intn(4096))
			grps[i] = keys[i] % 32
			vals[i] = rng.Float64() * 1000
		}
		microKernelBatch = engine.MustNewBatch(
			column.NewInt64("fk", keys), column.NewInt64("grp", grps),
			column.NewFloat64("val", vals))
		dkeys := make([]int64, 4096)
		dgroup := make([]int64, 4096)
		for i := range dkeys {
			dkeys[i] = int64(i)
			dgroup[i] = int64(i % 32)
		}
		microKernelDim = engine.MustNewBatch(
			column.NewInt64("dk", dkeys), column.NewInt64("grp", dgroup))
	})
	return microKernelBatch, microKernelDim
}

// microKernelCtx is the pooled kernel context the micro kernels run under —
// the same GOMAXPROCS-wide pool the engine default uses.
func microKernelCtx() *engine.Ctx {
	return engine.NewCtx(par.New(runtime.GOMAXPROCS(0)))
}

// BenchmarkMicroJoin measures the partitioned hash join kernel alone: build
// over 4Ki dimension rows, probe over 128Ki fact rows, per iteration.
func BenchmarkMicroJoin(b *testing.B) {
	fact, dim := microKernelData()
	ctx := microKernelCtx()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := engine.HashJoin(ctx, dim, "dk", fact, "fk")
		if err != nil {
			b.Fatal(err)
		}
		if res.NumRows() != microKernelRows {
			b.Fatalf("join produced %d pairs", res.NumRows())
		}
	}
}

// BenchmarkMicroAgg measures the morsel-parallel group-by kernel alone:
// 128Ki rows into 32 groups with sum and count, per iteration.
func BenchmarkMicroAgg(b *testing.B) {
	fact, _ := microKernelData()
	ctx := microKernelCtx()
	aggs := []engine.AggSpec{
		{Func: engine.Sum, Col: "val", As: "s"},
		{Func: engine.Count, As: "n"},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := engine.GroupBy(ctx, fact, []string{"grp"}, aggs)
		if err != nil {
			b.Fatal(err)
		}
		if out.NumRows() != 32 {
			b.Fatalf("groupby produced %d groups", out.NumRows())
		}
	}
}

// BenchmarkMicroAggManyGroups is the group-by where aggregation aggregates
// little: 128Ki rows over 32Ki distinct keys a stride of 2^20 apart, so every
// morsel numbers its rows through the hashed slot table and the merge numbers
// ≈ 100 000 partial groups again.
func BenchmarkMicroAggManyGroups(b *testing.B) {
	rng := rand.New(rand.NewSource(43))
	keys, vals := make([]int64, microKernelRows), make([]float64, microKernelRows)
	for i, k := range rng.Perm(1 << 15) { // every key once, then at random
		keys[i] = int64(k) << 20
	}
	for i := range keys {
		if i >= 1<<15 {
			keys[i] = int64(rng.Intn(1<<15)) << 20
		}
		vals[i] = float64(i & 1023)
	}
	runAggBench(b, engine.MustNewBatch(column.NewInt64("k", keys), column.NewFloat64("v", vals)), []string{"k"}, 1<<15)
}

// BenchmarkMicroAggMultiKey is the group-by of SSB Q3.3's shape: two cities
// coded in a dictionary of 250 and a year of 7, three key columns whose
// domains multiply to 437 500 slots — too many for a morsel's direct table —
// while the rows hold 5 × 5 × 7 of the tuples.
func BenchmarkMicroAggMultiKey(b *testing.B) {
	rng := rand.New(rand.NewSource(44))
	dict := make([]string, 250) // the whole dimension's dictionary, as a join hands it on
	for i := range dict {
		dict[i] = fmt.Sprintf("CITY %03d", i)
	}
	ccity, scity := make([]int32, microKernelRows), make([]int32, microKernelRows)
	year, vals := make([]int64, microKernelRows), make([]float64, microKernelRows)
	for i := range year {
		ccity[i], scity[i] = int32(50*rng.Intn(5)), int32(49+50*rng.Intn(5))
		year[i], vals[i] = int64(1992+rng.Intn(7)), float64(i&1023)
	}
	in := engine.MustNewBatch(column.NewStringFromDict("c_city", dict, ccity), column.NewStringFromDict("s_city", dict, scity),
		column.NewInt64("d_year", year), column.NewFloat64("v", vals))
	runAggBench(b, in, []string{"c_city", "s_city", "d_year"}, 5*5*7)
}

func runAggBench(b *testing.B, in *engine.Batch, keys []string, groups int) {
	ctx := microKernelCtx()
	aggs := []engine.AggSpec{{Func: engine.Sum, Col: "v", As: "s"}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := engine.GroupBy(ctx, in, keys, aggs)
		if err != nil {
			b.Fatal(err)
		}
		if out.NumRows() != groups {
			b.Fatalf("groupby produced %d groups, want %d", out.NumRows(), groups)
		}
	}
}

// BenchmarkMicroFilter measures the morsel-parallel selection kernel alone:
// one predicate over 128Ki rows, per iteration.
func BenchmarkMicroFilter(b *testing.B) {
	fact, _ := microKernelData()
	ctx := microKernelCtx()
	pred := expr.NewCmp("val", expr.LT, 500.0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pos, err := engine.Filter(ctx, fact, pred)
		if err != nil {
			b.Fatal(err)
		}
		if pos.Len() == 0 {
			b.Fatal("filter selected nothing")
		}
	}
}

// BenchmarkMicroChromeExport measures trace serialization: one WriteChrome
// of a fixed 512-span, 256-event trace per iteration.
func BenchmarkMicroChromeExport(b *testing.B) {
	tr := NewTracer(0)
	for i := 0; i < 512; i++ {
		tr.Span(TraceSpan{
			Query: "q0001", Name: "q0001/op000", Op: "scan(t)", Class: "selection",
			Proc:  "gpu",
			Start: time.Duration(i) * time.Microsecond,
			End:   time.Duration(i+1) * time.Microsecond,
		})
	}
	for i := 0; i < 256; i++ {
		tr.Event(TraceEvent{At: time.Duration(i) * time.Microsecond,
			Kind: "admit", Subject: "t.x", Reason: "operator-demand"})
	}
	spans, events := tr.Spans(), tr.Events()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteChromeTrace(io.Discard, spans, events); err != nil {
			b.Fatal(err)
		}
	}
}

// --- compressed execution micro set ---
//
// Each Compressed benchmark has a Decompress twin that runs the paper's
// decompress-first model — decode the encoded column, then execute on the
// flat data — over identical inputs. CI gates the Filter and Agg speedups
// (compressed must stay ≥1.5× faster) via cmd/benchdiff -ratios.

const microCompressedRows = 1 << 17

var (
	microCompOnce      sync.Once
	microCompFilterCol *column.CompressedInt64Column
	microCompFilter    *engine.Batch
	microCompAgg       *engine.Batch
	microCompAggCols   []*column.CompressedInt64Column
	microCompJoinDim   *engine.Batch
	microCompJoinFact  *engine.Batch
)

// microCompressedData builds the fixed seeded inputs the compressed micro
// set shares. The shapes are deliberately encoding-friendly — clustered
// values for block skipping, 64-long runs packed into narrow blocks, one key domain
// under two dictionaries for the join bridge — because the benchmarks
// measure what compressed execution buys when the encoding fits.
func microCompressedData() {
	microCompOnce.Do(func() {
		// Clustered (sorted) values: a narrow range predicate classifies
		// almost every 128-row bit-packed block as all-in or all-out, so the
		// scan kernel touches block headers instead of rows.
		vals := make([]int64, microCompressedRows)
		for i := range vals {
			vals[i] = int64(i >> 7)
		}
		microCompFilterCol = column.CompressInt64(column.NewInt64("v", vals))
		microCompFilter = engine.MustNewBatch(microCompFilterCol)

		// 64-long runs, bit-packed — the encoding Compress produces — for
		// the group-by to read as blocks.
		grps := make([]int64, microCompressedRows)
		rvals := make([]int64, microCompressedRows)
		for i := range grps {
			run := i >> 6
			grps[i] = int64(run % 32)
			rvals[i] = int64(run%7 + 1)
		}
		gc := column.CompressInt64(column.NewInt64("grp", grps))
		vc := column.CompressInt64(column.NewInt64("val", rvals))
		microCompAggCols = []*column.CompressedInt64Column{gc, vc}
		microCompAgg = engine.MustNewBatch(gc, vc)

		// One key domain, two independently built dictionaries: the join
		// bridges build codes to probe codes once instead of hashing strings.
		dk := make([]string, 4096)
		for i := range dk {
			dk[i] = fmt.Sprintf("key-%04d", i)
		}
		fk := make([]string, microCompressedRows)
		rng := rand.New(rand.NewSource(99))
		for i := range fk {
			fk[i] = dk[rng.Intn(len(dk))]
		}
		microCompJoinDim = engine.MustNewBatch(column.NewString("dk", dk))
		microCompJoinFact = engine.MustNewBatch(column.NewString("fk", fk))
	})
}

// microCompAggSpecs is the shared aggregation shape: a sum plus a count.
func microCompAggSpecs() []engine.AggSpec {
	return []engine.AggSpec{
		{Func: engine.Sum, Col: "val", As: "s"},
		{Func: engine.Count, As: "n"},
	}
}

// BenchmarkMicroCompressedFilter measures the code-domain range scan over
// the bit-packed column: block skipping, no decode.
func BenchmarkMicroCompressedFilter(b *testing.B) {
	microCompressedData()
	ctx := microKernelCtx()
	pred := expr.NewBetween("v", int64(400), int64(415))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pos, err := engine.Filter(ctx, microCompFilter, pred)
		if err != nil {
			b.Fatal(err)
		}
		if pos.Len() != 16*128 {
			b.Fatalf("compressed filter selected %d rows", pos.Len())
		}
	}
}

// BenchmarkMicroDecompressFilter is the decompress-first reference for
// BenchmarkMicroCompressedFilter: decode the column, then scan the values.
func BenchmarkMicroDecompressFilter(b *testing.B) {
	microCompressedData()
	ctx := microKernelCtx()
	pred := expr.NewBetween("v", int64(400), int64(415))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flat := engine.MustNewBatch(microCompFilterCol.Decompress())
		pos, err := engine.Filter(ctx, flat, pred)
		if err != nil {
			b.Fatal(err)
		}
		if pos.Len() != 16*128 {
			b.Fatalf("decompressed filter selected %d rows", pos.Len())
		}
	}
}

// BenchmarkMicroCompressedAgg measures the group-by over bit-packed columns: key
// and input are read a morsel at a time into pooled scratch (column.Reader),
// never decompressed whole.
func BenchmarkMicroCompressedAgg(b *testing.B) {
	microCompressedData()
	ctx := microKernelCtx()
	aggs := microCompAggSpecs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := engine.GroupBy(ctx, microCompAgg, []string{"grp"}, aggs)
		if err != nil {
			b.Fatal(err)
		}
		if out.NumRows() != 32 {
			b.Fatalf("compressed groupby produced %d groups", out.NumRows())
		}
	}
}

// BenchmarkMicroDecompressAgg is the decompress-first reference for
// BenchmarkMicroCompressedAgg: decode both packed columns whole, then run the
// same group-by over the flat copies.
func BenchmarkMicroDecompressAgg(b *testing.B) {
	microCompressedData()
	ctx := microKernelCtx()
	aggs := microCompAggSpecs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flat := engine.MustNewBatch(
			microCompAggCols[0].Decompress(), microCompAggCols[1].Decompress())
		out, err := engine.GroupBy(ctx, flat, []string{"grp"}, aggs)
		if err != nil {
			b.Fatal(err)
		}
		if out.NumRows() != 32 {
			b.Fatalf("decompressed groupby produced %d groups", out.NumRows())
		}
	}
}

// BenchmarkMicroCompressedJoin measures the dictionary-bridge hash join:
// build and probe stay in the integer code domain, with one code→code
// bridge built over the 4Ki-entry dictionary per join.
func BenchmarkMicroCompressedJoin(b *testing.B) {
	microCompressedData()
	ctx := microKernelCtx()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := engine.HashJoin(ctx, microCompJoinDim, "dk", microCompJoinFact, "fk")
		if err != nil {
			b.Fatal(err)
		}
		if res.NumRows() != microCompressedRows {
			b.Fatalf("bridge join produced %d pairs", res.NumRows())
		}
	}
}

// BenchmarkMicroDecompressJoin is the decode-first reference for
// BenchmarkMicroCompressedJoin: join in the value domain, hashing every
// dictionary-decoded string on both sides.
func BenchmarkMicroDecompressJoin(b *testing.B) {
	microCompressedData()
	dim := microCompJoinDim.Columns()[0].(*column.StringColumn)
	fact := microCompJoinFact.Columns()[0].(*column.StringColumn)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ht := make(map[string]int32, dim.Len())
		for r := 0; r < dim.Len(); r++ {
			ht[dim.Value(r)] = int32(r)
		}
		pairs := 0
		for r := 0; r < fact.Len(); r++ {
			if _, ok := ht[fact.Value(r)]; ok {
				pairs++
			}
		}
		if pairs != microCompressedRows {
			b.Fatalf("value join produced %d pairs", pairs)
		}
	}
}

// --- materialization micro set ---
//
// What an operator pays to hand its output on: gathering a fact-table-sized
// column through a position list, and reading a join's probe keys. Each
// bit-packed benchmark has a plain twin over the same values; CI gates
// compressed gather at ≤ 3× the plain gather's wall time (cmd/benchdiff
// -ratios) and reports the probe pair.

const microGatherRows = 600000

var (
	microGatherOnce   sync.Once
	microGatherPlain  *column.Int64Column
	microGatherPacked *column.CompressedInt64Column
	microGatherPos    column.PosList // 10 % of the rows, ascending
	microGatherDim    *engine.Batch
)

// microGatherData builds one 600k-row foreign-key-like column (values below
// 4096, 12-bit blocks), plain and bit-packed, a selective ascending position
// list and the 4Ki-row dimension the probe benchmarks join it to.
func microGatherData() {
	microGatherOnce.Do(func() {
		rng := rand.New(rand.NewSource(7))
		vals := make([]int64, microGatherRows)
		var pos []int32
		for i := range vals {
			vals[i] = int64(rng.Intn(4096))
			if rng.Intn(10) == 0 {
				pos = append(pos, int32(i))
			}
		}
		microGatherPos = column.Ascending(pos)
		microGatherPlain = column.NewInt64("fk", vals)
		microGatherPacked = column.CompressInt64(microGatherPlain)
		dk := make([]int64, 4096)
		for i := range dk {
			dk[i] = int64(i)
		}
		microGatherDim = engine.MustNewBatch(column.NewInt64("dk", dk))
	})
}

func benchGather(b *testing.B, c column.Column, pos column.PosList) {
	ctx := microKernelCtx()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := engine.Gather(ctx, c, pos); out.Len() != pos.Len() {
			b.Fatalf("gathered %d rows, want %d", out.Len(), pos.Len())
		}
	}
}

// BenchmarkMicroCompressedGather re-packs a 10 % ascending selection of a
// bit-packed column: block-run decode, block pack, one arena.
func BenchmarkMicroCompressedGather(b *testing.B) {
	microGatherData()
	benchGather(b, microGatherPacked, microGatherPos)
}

// BenchmarkMicroPlainGather is the same selection over the plain column.
func BenchmarkMicroPlainGather(b *testing.B) {
	microGatherData()
	benchGather(b, microGatherPlain, microGatherPos)
}

// BenchmarkMicroContiguousGather gathers every row of the bit-packed column
// through the identity list a predicate-less scan produces: the detection
// pass over the list, then shared blocks — no decode, no copy.
func BenchmarkMicroContiguousGather(b *testing.B) {
	microGatherData()
	benchGather(b, microGatherPacked, column.All(microGatherRows))
}

func benchProbe(b *testing.B, fk column.Column) {
	fact := engine.MustNewBatch(fk)
	ctx := microKernelCtx()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := engine.HashJoin(ctx, microGatherDim, "dk", fact, "fk")
		if err != nil {
			b.Fatal(err)
		}
		if res.NumRows() != microGatherRows {
			b.Fatalf("join produced %d pairs", res.NumRows())
		}
	}
}

// BenchmarkMicroCompressedProbe hash-joins with a bit-packed probe key: each
// morsel's keys are decoded once, a block at a time, into pooled scratch.
func BenchmarkMicroCompressedProbe(b *testing.B) {
	microGatherData()
	benchProbe(b, microGatherPacked)
}

// BenchmarkMicroPlainProbe is the same join with the plain probe key.
func BenchmarkMicroPlainProbe(b *testing.B) {
	microGatherData()
	benchProbe(b, microGatherPlain)
}

// --- conjunction and selectivity micro set ---
//
// SSB Q1.1's fact predicate (lo_discount between 1 and 3: 27 % of the rows;
// lo_quantity < 25: 48 % of those) over 2^20 rows, plain and bit-packed. A
// conjunction narrows one selection — the second conjunct tests only what the
// first kept — and ConjunctionIntersect is its reference the way
// DecompressFilter is CompressedFilter's: each conjunct filtered over every
// row and the two lists merged. CI gates the ratio (≥ 1.3×).

const microConjRows = 1 << 20

var (
	microConjOnce   sync.Once
	microConjPlain  *engine.Batch
	microConjPacked *engine.Batch
	microConjWant   int
)

func microConjData() {
	microConjOnce.Do(func() {
		rng := rand.New(rand.NewSource(11))
		discount := make([]int64, microConjRows)
		quantity := make([]int64, microConjRows)
		for i := range discount {
			discount[i] = int64(rng.Intn(11))
			quantity[i] = int64(1 + rng.Intn(50))
			if discount[i] >= 1 && discount[i] <= 3 && quantity[i] < 25 {
				microConjWant++
			}
		}
		microConjPlain = engine.MustNewBatch(column.NewInt64("lo_discount", discount), column.NewInt64("lo_quantity", quantity))
		microConjPacked = engine.MustNewBatch(column.Compress(microConjPlain.Columns()[0]), column.Compress(microConjPlain.Columns()[1]))
	})
}

func microConjuncts() (discount, quantity expr.Predicate) {
	return expr.NewBetween("lo_discount", 1, 3), expr.NewCmp("lo_quantity", expr.LT, 25)
}

func benchConjunction(b *testing.B, batch *engine.Batch) {
	ctx := microKernelCtx()
	pred := expr.NewAnd(microConjuncts())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pos, err := engine.Filter(ctx, batch, pred)
		if err != nil {
			b.Fatal(err)
		}
		if pos.Len() != microConjWant {
			b.Fatalf("conjunction selected %d rows, want %d", pos.Len(), microConjWant)
		}
	}
}

// BenchmarkMicroConjunction filters the plain columns through the
// conjunction.
func BenchmarkMicroConjunction(b *testing.B) {
	microConjData()
	benchConjunction(b, microConjPlain)
}

// BenchmarkMicroCompressedConjunction is the same over the bit-packed
// columns: the second conjunct extracts the listed rows of each block.
func BenchmarkMicroCompressedConjunction(b *testing.B) {
	microConjData()
	benchConjunction(b, microConjPacked)
}

// BenchmarkMicroConjunctionIntersect is the reference for
// BenchmarkMicroConjunction: both conjuncts over every row, then
// PosList.Intersect.
func BenchmarkMicroConjunctionIntersect(b *testing.B) {
	microConjData()
	ctx := microKernelCtx()
	discount, quantity := microConjuncts()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := engine.Filter(ctx, microConjPlain, discount)
		if err != nil {
			b.Fatal(err)
		}
		q, err := engine.Filter(ctx, microConjPlain, quantity)
		if err != nil {
			b.Fatal(err)
		}
		if pos := d.Intersect(q); pos.Len() != microConjWant {
			b.Fatalf("intersection selected %d rows, want %d", pos.Len(), microConjWant)
		}
	}
}

// --- star-join chain micro pair ---
//
// The first three joins of SSB Q4.1 over 600 000 fact rows: customer, whose
// nation is kept, then supplier and part, which only filter — each dimension
// cut to a fifth of its keys — with the order date, the two measures and the
// nation carried along, then grouped. A batch hands a carried column on as
// (source, positions) and copies it for whoever reads it first: the next join
// reads one key, the aggregation the rest at 1/125 of the rows.
// StarJoinChainEager is the reference the way ConjunctionIntersect is
// Conjunction's: every column of every join's output copied as the join
// returns, which is what each join did before. CI gates the ratio (≥ 1.3×).

const microStarRows = 600000

var (
	microStarOnce sync.Once
	microStarFact *engine.Batch
	microStarDims [3]*engine.Batch
)

func microStarData() {
	microStarOnce.Do(func() {
		const dimRows = 1000
		rng := rand.New(rand.NewSource(13))
		var cols []column.Column
		for _, name := range []string{"k0", "k1", "k2", "revenue", "cost"} {
			vals := make([]int64, microStarRows)
			for i := range vals {
				vals[i] = rng.Int63n(dimRows)
			}
			cols = append(cols, column.NewInt64(name, vals))
		}
		years := make([]int32, microStarRows)
		for i := range years {
			years[i] = int32(1992 + rng.Intn(7))
		}
		microStarFact = engine.MustNewBatch(append(cols, column.NewDate("year", years))...)
		for d := range microStarDims {
			keys, nation := make([]int64, dimRows/5), make([]int64, dimRows/5)
			for i := range keys {
				keys[i], nation[i] = int64(5*i+d), int64(i%5)
			}
			microStarDims[d] = engine.MustNewBatch(column.NewInt64(fmt.Sprint("dk", d), keys), column.NewInt64("nation", nation))
		}
	})
}

func benchStarJoinChain(b *testing.B, eager bool) {
	microStarData()
	ctx := microKernelCtx()
	aggs := []engine.AggSpec{{Func: engine.Sum, Col: "revenue", As: "revenue"}, {Func: engine.Sum, Col: "cost", As: "cost"}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, carried, kept := microStarFact, []string{"k1", "k2", "year", "revenue", "cost"}, []string{"nation"}
		for d, dim := range microStarDims {
			var err error
			out, err = engine.Join(ctx, dim, fmt.Sprint("dk", d), kept, out, fmt.Sprint("k", d), carried)
			if err != nil {
				b.Fatal(err)
			}
			if eager {
				out.Force(ctx)
			}
			carried, kept = append(carried[1:len(carried):len(carried)], kept...), nil
		}
		res, err := engine.GroupBy(ctx, out, []string{"year", "nation"}, aggs)
		if err != nil {
			b.Fatal(err)
		}
		if res.NumRows() != 35 || out.NumRows() < microStarRows/200 {
			b.Fatalf("chain kept %d rows in %d groups", out.NumRows(), res.NumRows())
		}
	}
}

// BenchmarkMicroStarJoinChain runs the chain as the plans do.
func BenchmarkMicroStarJoinChain(b *testing.B) { benchStarJoinChain(b, false) }

// BenchmarkMicroStarJoinChainEager forces every join's output as it returns.
func BenchmarkMicroStarJoinChainEager(b *testing.B) { benchStarJoinChain(b, true) }

// BenchmarkMicroFilterSelectivity is the selectivity sweep of the scan
// kernels: v < 10·s over uniform values below 1000 keeps s % of 600 000 rows
// (v = 1000 keeps none), plain and bit-packed (10-bit blocks, every one
// straddling). It calls
// column.Scan on one goroutine, a morsel at a time into one buffer, so ns/row
// is the kernel's own cost — what a robust kernel keeps flat from 0 to 100 %
// — without the filter's copy of what qualified, which grows with it by
// design.
func BenchmarkMicroFilterSelectivity(b *testing.B) {
	const rows = 600_000
	rng := rand.New(rand.NewSource(13))
	vals := make([]int64, rows)
	for i := range vals {
		vals[i] = int64(rng.Intn(1000))
	}
	plain := column.NewInt64("v", vals)
	buf := make([]int32, 0, par.DefaultMorselRows)
	for _, c := range []struct {
		name string
		col  column.Column
	}{{"plain", plain}, {"bitpack", column.Compress(plain)}} {
		for _, pct := range []int{0, 1, 10, 27, 50, 90, 100} {
			iv := column.Interval[int64]{Lo: 0, Hi: int64(10*pct) - 1}
			if pct == 0 {
				iv = column.Interval[int64]{Lo: 1000, Hi: 1000} // no row, and not the empty interval
			}
			b.Run(fmt.Sprintf("%s/%d", c.name, pct), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					kept := 0
					for lo := 0; lo < rows; lo += par.DefaultMorselRows {
						out, _ := column.Scan(c.col, iv, column.Range(lo, min(lo+par.DefaultMorselRows, rows)), buf)
						kept += len(out)
					}
					if kept < rows*pct/100-rows/100 || kept > rows*pct/100+rows/100 {
						b.Fatalf("kept %d of %d rows, want about %d %%", kept, rows, pct)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
			})
		}
	}
}

// --- pipelined chunk executor micro set ---
//
// Each pipelined benchmark has a serial twin differing only in PipelineDepth
// (2 vs 0). The interesting number is virtual time — the simulated latency
// the overlap schedule saves — reported as vt_ns/op; wall ns/op only measures
// simulator overhead. The CI gate holds the serial/pipelined virtual-time
// ratio above 1.3x (see .github/workflows/ci.yml and cmd/benchdiff).

// pipeBenchRows sizes the pipelined micro set: big enough that the chunk
// sizer produces a deep schedule (hundreds of chunks of >= 1Ki rows).
const pipeBenchRows = 1 << 19

var (
	pipeBenchOnce sync.Once
	pipeBenchCat  *table.Catalog
)

// pipeBenchCatalog builds the fixed transfer-bound fact + dimension tables
// the pipelined micro set shares.
func pipeBenchCatalog() *table.Catalog {
	pipeBenchOnce.Do(func() {
		vals := make([]int64, pipeBenchRows)
		qty := make([]int64, pipeBenchRows)
		price := make([]float64, pipeBenchRows)
		for i := range vals {
			vals[i] = int64(i % 100)
			qty[i] = int64(i % 4096)
			price[i] = float64(i%10) + 0.5
		}
		dk := make([]int64, 4096)
		dg := make([]int64, 4096)
		for i := range dk {
			dk[i] = int64(i)
			dg[i] = int64(i % 32)
		}
		cat := table.NewCatalog()
		cat.MustRegister(table.MustNew("bfact",
			column.NewInt64("v", vals),
			column.NewInt64("qty", qty),
			column.NewFloat64("price", price),
		))
		cat.MustRegister(table.MustNew("bdim",
			column.NewInt64("dk", dk),
			column.NewInt64("dg", dg),
		))
		pipeBenchCat = cat
	})
	return pipeBenchCat
}

// leafGPUPlacer runs leaf operators (the chunkable scans the pipelined
// executor drives) on the co-processor and everything downstream on the
// host, so pipelined and serial twins pay identical non-leaf costs.
type leafGPUPlacer struct{}

func (leafGPUPlacer) Name() string { return "leaf-gpu" }
func (leafGPUPlacer) CompileTime(_ *exec.Engine, p *Plan) map[int]cost.ProcKind {
	m := make(map[int]cost.ProcKind)
	for _, n := range p.Nodes() {
		if len(n.Children) == 0 {
			m[n.ID()] = cost.GPU
		} else {
			m[n.ID()] = cost.CPU
		}
	}
	return m
}
func (leafGPUPlacer) RunTime(*exec.Engine, *plan.Node, []*exec.Value) cost.ProcKind {
	return cost.CPU
}

// runPipeBench executes the plan on a fresh cold-cache engine per iteration
// (a warm cache would skip the transfers the pipeline overlaps) and reports
// the mean simulated latency as vt_ns/op.
func runPipeBench(b *testing.B, mkPlan func() *Plan, depth int) {
	b.Helper()
	cat := pipeBenchCatalog()
	var vt time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := exec.New(cat, exec.Config{
			CacheBytes:    1 << 30,
			HeapBytes:     1 << 30,
			PipelineDepth: depth,
		})
		var st exec.QueryStats
		var err error
		e.Sim.Spawn("bench", func(p *sim.Proc) {
			_, st, err = e.RunQuery(p, mkPlan(), leafGPUPlacer{})
		})
		e.Sim.Run()
		if err != nil {
			b.Fatal(err)
		}
		vt += st.Latency
	}
	b.ReportMetric(float64(vt.Nanoseconds())/float64(b.N), "vt_ns/op")
}

// pipeFilterPlan is a selectivity-1 scan: pure transfer-bound chunk work.
func pipeFilterPlan() *Plan {
	return plan.New(plan.Scan("bfact", []string{"v", "qty", "price"}, expr.NewCmp("v", expr.LT, 1000)))
}

// pipeAggPlan feeds the pipelined scan into a host-side group-by.
func pipeAggPlan() *Plan {
	scan := plan.Scan("bfact", []string{"v", "qty", "price"}, expr.NewCmp("v", expr.LT, 1000))
	return plan.New(plan.Aggregate(scan, []string{"v"}, []engine.AggSpec{
		{Func: engine.Sum, Col: "price", As: "s"},
	}))
}

// pipeJoinPlan probes the pipelined fact scan against a small dimension.
func pipeJoinPlan() *Plan {
	fact := plan.Scan("bfact", []string{"qty", "price"}, expr.NewCmp("v", expr.LT, 1000))
	dim := plan.Scan("bdim", []string{"dk", "dg"}, nil)
	return plan.New(plan.Join(dim, fact, "dk", "qty", []string{"dg"}, []string{"price"}))
}

func BenchmarkMicroPipelinedFilter(b *testing.B) { runPipeBench(b, pipeFilterPlan, 2) }

func BenchmarkMicroSerialFilter(b *testing.B) { runPipeBench(b, pipeFilterPlan, 0) }

func BenchmarkMicroPipelinedAgg(b *testing.B) { runPipeBench(b, pipeAggPlan, 2) }

func BenchmarkMicroSerialAgg(b *testing.B) { runPipeBench(b, pipeAggPlan, 0) }

func BenchmarkMicroPipelinedJoin(b *testing.B) { runPipeBench(b, pipeJoinPlan, 2) }

func BenchmarkMicroSerialJoin(b *testing.B) { runPipeBench(b, pipeJoinPlan, 0) }
