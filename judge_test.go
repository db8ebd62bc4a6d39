package robustdb

// The judge (DESIGN.md §30): one grid over the execution modes — benchmark ×
// compression × strategy × kernel workers × pipeline × fault schedule ×
// users — in which every query equals the serial CPU-only result cell for
// cell or fails with a typed error, and every engine is held to one set of
// conservation laws, DESIGN.md §4 written as code. Under -short or -race a
// seeded sample visits every value of every axis.
//
//	go test -run TestJudge -judge-seed 3 .   # another data and fault seed

import (
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"robustdb/internal/column"
	"robustdb/internal/exec"
	"robustdb/internal/faults"
	"robustdb/internal/plan"
	"robustdb/internal/sim"
	"robustdb/internal/table"
	"robustdb/internal/trace"
	"robustdb/internal/vecengine"
	"robustdb/internal/workload"
)

var judgeSeed = flag.Int64("judge-seed", 1, "data seed of TestJudge; every fault schedule's seed moves with it")

// raceBuild is set by race_test.go: the race detector runs the sample.
var raceBuild bool

// judgeCatalog is one catalog of the grid: its own plan objects (compile-time
// rules estimate them in place), and from serial CPU-only runs on its
// benchmark's raw catalog each query's result and each node's output rows.
type judgeCatalog struct {
	name    string
	db      *DB
	queries []WorkloadQuery
	refs    map[string]*Batch
	rows    map[string]int64 // by "query/node id"
}

// judgeCell is one engine of the grid.
type judgeCell struct {
	cat            *judgeCatalog
	strat          Strategy
	workers, depth int
	coexec         bool
	fault          string // a key of chaosSchedules, "" for none
	users          int
	replay         bool
}

func (c judgeCell) String() string {
	return fmt.Sprintf("%s/%s/kw%d/depth%d-coexec=%v/faults=%q/%du", c.cat.name, c.strat.Label, c.workers, c.depth, c.coexec, c.fault, c.users)
}

// judgeRun is one run of a cell: every query it submitted, in completion order.
type judgeRun struct {
	e        *exec.Engine
	makespan time.Duration
	done     []judgeQuery
}

type judgeQuery struct {
	q   WorkloadQuery
	v   *exec.Value
	st  exec.QueryStats
	err error
}

// judgeCatalogs builds SSB and TPC-H at 20 000 rows a scale factor, so each
// fact table spans three 8 192-row morsels, raw and bit-packed.
func judgeCatalogs(t *testing.T, seed int64) []*judgeCatalog {
	t.Helper()
	var out []*judgeCatalog
	for _, b := range []struct {
		name    string
		db      *DB
		queries func() []WorkloadQuery
	}{
		{"ssb", OpenSSB(SSBConfig{SF: 1, RowsPerSF: 20000, Seed: seed}), SSBQueries},
		{"tpch", OpenTPCH(TPCHConfig{SF: 1, RowsPerSF: 20000, Seed: seed}), TPCHQueries},
	} {
		refs, rows := map[string]*Batch{}, map[string]int64{}
		for _, q := range b.queries() {
			_, out, st, err := b.db.runOne(Device{Tracer: NewTracer(0)}, CPUOnly(), q.Name, q.Plan)
			if err != nil {
				t.Fatalf("%s %s reference: %v", b.name, q.Name, err)
			}
			refs[q.Name] = out
			for _, s := range st.Spans {
				rows[fmt.Sprint(q.Name, "/", s.Node)] = s.Rows
			}
		}
		for i, db := range []*DB{b.db, b.db.Compressed()} {
			out = append(out, &judgeCatalog{b.name + []string{"-raw", "-bitpack"}[i], db, b.queries(), refs, rows})
		}
	}
	return out
}

// judgeGrid is the cross product less what cannot exercise its axis value. CPU
// Only never touches the device: no pipeline, no faults. The pipeline takes a
// leaf only when the device is to upload its columns, so its depth is crossed
// with GPU Only and Critical Path alone: the data-driven rules place a leaf
// there only when its columns are cached, and Chopping's load-balanced rule
// decides per run whether any uncached leaf goes there. At one user a fault
// schedule can open the breaker before the first uncached leaf arrives, so
// there the depth runs fault-free; and one session moves as few as 7
// transfers a pass (Critical Path on bit-packed SSB), which transfer-faults'
// 0.3 strike rate can all spare, so that schedule runs at eight users only.
func judgeGrid(cats []*judgeCatalog) []judgeCell {
	workers := []int{1, 2, 7}
	if n := runtime.GOMAXPROCS(0); !slices.Contains(workers, n) {
		workers = append(workers, n)
	}
	schedules := []string{""} // none, then chaosSchedules' in name order
	for name := range chaosSchedules() {
		schedules = append(schedules, name)
	}
	slices.Sort(schedules)
	var cells []judgeCell
	for _, jc := range cats {
		for _, strat := range AllStrategies() {
			pipelines := strat.Label == GPUOnly().Label || strat.Label == CriticalPath().Label
			for _, users := range []int{1, 8} {
				for _, kw := range workers {
					for _, pipe := range []struct {
						depth  int
						coexec bool
					}{{0, false}, {1, false}, {1, true}, {2, false}, {2, true}, {4, false}, {4, true}} {
						for _, fault := range schedules {
							if strat.Label == CPUOnly().Label && fault != "" || users == 1 && fault == "transfer-faults" ||
								pipe.depth > 0 && (!pipelines || users == 1 && fault != "") {
								continue
							}
							cells = append(cells, judgeCell{cat: jc, strat: strat, workers: kw,
								depth: pipe.depth, coexec: pipe.coexec, fault: fault, users: users})
						}
					}
				}
			}
		}
	}
	return cells
}

// judgeSample is a seeded sample of the grid that visits every axis value;
// each sampled cell is also replayed.
func judgeSample(cells []judgeCell, seed int64) []judgeCell {
	rand.New(rand.NewSource(seed)).Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	seen := map[string]bool{}
	var out []judgeCell
	for _, c := range cells {
		values := []string{c.cat.name, c.strat.Label, fmt.Sprint("kw", c.workers),
			fmt.Sprint("depth", c.depth, c.coexec), "faults=" + c.fault, fmt.Sprint(c.users, "u")}
		if !slices.ContainsFunc(values, func(v string) bool { return !seen[v] }) {
			continue
		}
		for _, v := range values {
			seen[v] = true
		}
		c.replay = true
		out = append(out, c)
	}
	return out
}

// run builds the cell's engine with workload.NewEngine — which keeps it when a
// query fails, unlike DB.Query — on a device that caches half the database
// with a heap the database's size, and runs two passes over the mix spread
// round-robin over the users' sessions, the way workload.Run spreads them.
func (c judgeCell) run(t *testing.T) judgeRun {
	t.Helper()
	dev := c.cat.db.DeviceForWorkingSet(0.5)
	dev.KernelWorkers, dev.PipelineDepth, dev.PipelineCoExec, dev.PipelineChunkRows = c.workers, c.depth, c.coexec, 4096
	dev.Tracer = NewTracer(0)
	var r judgeRun
	if c.fault != "" {
		cfg := chaosSchedules()[c.fault]
		cfg.Seed += *judgeSeed - 1
		dev.Faults, dev.QueryDeadline = NewFaultInjector(cfg), 500*time.Millisecond
	}
	e, err := workload.NewEngine(c.cat.db.cat, dev, c.strat, c.cat.queries)
	if err != nil {
		t.Fatalf("%v: %v", c, err)
	}
	r.e = e
	sessions := make([][]WorkloadQuery, c.users)
	for i := 0; i < 2*len(c.cat.queries); i++ {
		sessions[i%c.users] = append(sessions[i%c.users], c.cat.queries[i%len(c.cat.queries)])
	}
	for u, queries := range sessions {
		e.Sim.Spawn(fmt.Sprintf("user%02d", u), func(p *sim.Proc) {
			for _, q := range queries {
				v, st, err := e.RunQuery(p, q.Plan, c.strat.Placer)
				r.done = append(r.done, judgeQuery{q, v, st, err})
			}
		})
	}
	r.makespan = e.Sim.Run()
	return r
}

// judge runs the cell and checks its results, its laws and that it exercised
// its axis values. It returns the out-of-memory aborts the run saw.
func (c judgeCell) judge(t *testing.T) (ooms int) {
	t.Helper()
	r := c.run(t)
	for _, d := range r.done {
		if d.err == nil {
			assertBatchesEqual(t, fmt.Sprint(c, " ", d.q.Name), c.cat.refs[d.q.Name], d.v.Batch)
		} else if c.fault == "" || !(errors.Is(d.err, exec.ErrDeadlineExceeded) || faults.IsTransient(d.err)) {
			t.Errorf("%v: %s failed with an untyped error: %v", c, d.q.Name, d.err)
		}
		for _, s := range d.st.Spans { // every completed attempt, not only the root, is exact in rows
			want := c.cat.rows[fmt.Sprint(d.q.Name, "/", s.Node)]
			if s.Class != "query" && s.Class != "chunk" && s.Abort == "" && s.Rows != want {
				t.Errorf("%v: %s node %d made %d rows, want %d", c, d.q.Name, s.Node, s.Rows, want)
			}
		}
	}
	ooms, morsels := checkLaws(t, c, &r)
	if chunks := r.e.Metrics.PipelineChunks.Load(); c.depth > 0 && chunks < 2 {
		t.Errorf("%v: vacuous: pipelined %d chunks", c, chunks)
	}
	if m := r.e.Metrics; c.fault != "" && m.AllocFaults.Load()+m.TransferFaults.Load()+m.DeviceResets.Load()+m.StuckOps.Load() == 0 {
		t.Errorf("%v: vacuous: the fault schedule injected nothing", c)
	}
	if c.workers > 1 && !morsels {
		t.Errorf("%v: vacuous: no operator split over two morsels", c)
	}
	return ooms
}

// checkLaws holds one run to DESIGN.md §4, reporting a broken law by name. It
// returns the run's out-of-memory aborts and whether an operator split over
// two morsels.
func checkLaws(t *testing.T, c judgeCell, r *judgeRun) (ooms int, morsels bool) {
	t.Helper()
	law := func(name string, ok bool, measured ...any) {
		if !ok {
			t.Errorf("%v: law %q broken: %v", c, name, measured)
		}
	}
	e, m := r.e, r.e.Metrics
	spans := e.Tracer.Spans() // 65 536 a ring; a cell emits a few thousand
	// covered is the attempts' time plus what a query spends between them:
	// the backoff before a node's next attempt and its result's copy-back.
	var covered, wasted time.Duration
	var completed, gpuAborts int64
	ring, prev, lastEnd := map[string][]trace.Span{}, map[string]trace.Span{}, map[string]time.Duration{}
	for _, s := range spans {
		ring[s.Query] = append(ring[s.Query], s)
		morsels = morsels || s.MorselCount >= 2
		if s.Abort == "oom" {
			ooms++
		}
		if s.Proc == "gpu" && s.Abort != "" { // a rolled-back device attempt, of an operator or a chunk
			gpuAborts++
			wasted += s.Duration() - s.QueueWait
		}
		if s.Class == "query" && s.Abort == "" {
			covered += s.End - lastEnd[s.Query]
		}
		if s.Class == "chunk" || s.Class == "query" {
			continue
		}
		if p, ok := prev[s.Name]; ok {
			covered += s.Start - p.End
		}
		prev[s.Name], lastEnd[s.Query] = s, max(lastEnd[s.Query], s.End)
		covered += s.Duration()
		if s.Abort == "" {
			completed++
		}
	}
	busiest := max(e.GPU.Server.BusyTime()+e.GPU.Server.StalledTime(), e.CPU.Server.BusyTime(), m.BusBusyH2D.Load(), m.BusBusyD2H.Load())
	law("makespan ≥ busiest resource", r.makespan >= busiest, r.makespan, busiest)
	law("makespan ≤ Σ attempts, backoffs and copy-backs", r.makespan <= covered, r.makespan, covered)
	law("heap within capacity, empty at the end", e.Heap.HighWater() <= e.Heap.Capacity() && e.Heap.Used() == 0,
		e.Heap.HighWater(), e.Heap.Capacity(), e.Heap.Used())
	law("wasted time = Σ aborted spans", m.WastedTime.Load() == wasted, m.WastedTime.Load(), wasted)
	law("completed + failed = submitted", m.QueriesCompleted.Load()+m.QueriesFailed.Load() == int64(len(r.done)),
		m.QueriesCompleted.Load(), m.QueriesFailed.Load(), len(r.done))
	runs := m.OperatorRuns.Load()
	law("operator runs = completed attempt spans", runs == m.GPUOperators.Load()+m.CPUOperators.Load() && runs == completed,
		runs, m.GPUOperators.Load(), m.CPUOperators.Load(), completed)
	law("aborts = aborted GPU attempt spans", m.Aborts.Load() == gpuAborts, m.Aborts.Load(), gpuAborts)
	for _, d := range r.done {
		got, want := d.st.Spans, ring[d.st.QueryID]
		if d.err != nil && len(got) < len(want) {
			want = want[:len(got)] // the ring kept receiving the failed query's in-flight operators
		}
		law("record = the ring's spans", len(got) > 0 && reflect.DeepEqual(got, want), d.st.QueryID, len(got), len(want))
		if cp := criticalPath(d.q.Plan, got); d.err == nil {
			law("latency ≥ critical path", d.st.Latency >= cp, d.st.QueryID, d.st.Latency, cp)
		}
	}
	if c.replay {
		again := c.run(t)
		law("a replay matches to the nanosecond", again.makespan == r.makespan &&
			reflect.DeepEqual(m.Snapshot(), again.e.Metrics.Snapshot()) && e.Health.Trips() == again.e.Health.Trips() &&
			reflect.DeepEqual(spans, again.e.Tracer.Spans()), r.makespan, again.makespan)
	}
	return ooms, morsels
}

// criticalPath is the longest root-to-leaf sum of a plan's per-node attempt
// time: a parent starts after its children, a node's attempts one by one.
func criticalPath(pl *Plan, spans []trace.Span) time.Duration {
	own := map[int]time.Duration{}
	for _, s := range spans {
		if s.Class != "query" && s.Class != "chunk" {
			own[s.Node] += s.Duration()
		}
	}
	var path func(n *plan.Node) time.Duration
	path = func(n *plan.Node) time.Duration {
		var longest time.Duration
		for _, child := range n.Children {
			longest = max(longest, path(child))
		}
		return own[n.ID()] + longest
	}
	return path(pl.Root)
}

// catalogChecksums hashes every base column as its readers see it, decoded.
// Operator outputs alias base storage, which is sound only while nothing
// writes to it.
func catalogChecksums(cat *table.Catalog) map[string]uint64 {
	sums := map[string]uint64{}
	for _, name := range cat.TableNames() {
		for _, c := range cat.MustTable(name).Columns() {
			h := fnv.New64a()
			fmt.Fprint(h, c.Bytes(), column.Materialized(c))
			sums[name+"."+c.Name()] = h.Sum64()
		}
	}
	return sums
}

// TestJudge runs the grid. vecengine, the independent implementation figs
// 22–23 compare against, must equal the reference on every catalog, and no
// base column may change under the cells run over it. The catalogs run side
// by side, each catalog's cells one after another: they share its plan
// objects, which Critical Path estimates in place.
func TestJudge(t *testing.T) {
	cats := judgeCatalogs(t, *judgeSeed)
	cells, sample := judgeGrid(cats), testing.Short() || raceBuild
	if sample {
		cells = judgeSample(cells, *judgeSeed)
	}
	before := map[*judgeCatalog]map[string]uint64{}
	for _, jc := range cats {
		vec := vecengine.New(jc.db.cat, 0)
		for _, q := range jc.queries {
			out, _, err := vec.Execute(q.Plan)
			if err != nil {
				t.Fatalf("vecengine %s %s: %v", jc.name, q.Name, err)
			}
			assertBatchesEqual(t, "vecengine "+jc.name+" "+q.Name, jc.refs[q.Name], out)
		}
		before[jc] = catalogChecksums(jc.db.cat)
	}
	var mu sync.Mutex
	ooms := map[string]int{} // of the eight-user cells, by catalog and fault schedule
	t.Run("cells", func(t *testing.T) {
		for _, jc := range cats {
			t.Run(jc.name, func(t *testing.T) {
				t.Parallel()
				for i, c := range cells {
					if c.cat != jc {
						continue
					}
					c.replay = c.replay || i%5 == 0
					if n := c.judge(t); c.users > 1 {
						mu.Lock()
						ooms[fmt.Sprintf("%s/faults=%q", c.cat.name, c.fault)] += n
						mu.Unlock()
					}
				}
			})
		}
	})
	for group, n := range ooms {
		if n == 0 && !sample { // eight users on the half-size device must contend for the heap
			t.Errorf("%s: vacuous: no out-of-memory abort in its eight-user cells", group)
		}
	}
	for _, jc := range cats {
		if !maps.Equal(before[jc], catalogChecksums(jc.db.cat)) {
			t.Errorf("%s: a base column changed under the grid", jc.name)
		}
	}
}

// judgeSlice judges the grid's cells that keep selects, each replayed: a named
// view of the one grid for a property that is worth a test name of its own.
func judgeSlice(t *testing.T, keep func(judgeCell) bool) {
	t.Helper()
	n := 0
	for _, c := range judgeGrid(judgeCatalogs(t, *judgeSeed)) {
		if keep(c) {
			c.replay = true
			c.judge(t)
			n++
		}
	}
	if n == 0 {
		t.Fatal("vacuous: the slice selects no cell")
	}
}

// serialCell is a cell of the catalog without kernel workers, pipeline or
// faults: the axes the slices below do not vary unless they say so.
func serialCell(c judgeCell, catalog string) bool {
	return c.cat.name == catalog && c.workers == 1 && c.depth == 0 && c.fault == ""
}

// Every strategy returns the serial CPU-only result, one user and eight.
func TestQueryAcrossStrategies(t *testing.T) {
	judgeSlice(t, func(c judgeCell) bool { return serialCell(c, "ssb-raw") })
}

// Compression is transparent: every strategy returns the raw catalog's result
// on the bit-packed one.
func TestCompressedDatabaseEquivalence(t *testing.T) {
	judgeSlice(t, func(c judgeCell) bool { return serialCell(c, "ssb-bitpack") })
}

func TestCompressedTPCHEquivalence(t *testing.T) {
	judgeSlice(t, func(c judgeCell) bool { return serialCell(c, "tpch-bitpack") })
}

// Identical eight-user runs replay to the nanosecond, at every kernel worker
// count.
func TestWorkloadDeterminism(t *testing.T) {
	judgeSlice(t, func(c judgeCell) bool {
		return c.cat.name == "ssb-raw" && c.strat.Label == Chopping().Label && c.users == 8 && c.depth == 0 && c.fault == ""
	})
}

// Under every fault schedule, every GPU Only query is exact or fails with a
// typed error, the heap ends empty and each record equals the ring's spans.
func TestChaosQueriesExactOrFailClean(t *testing.T) {
	for name := range chaosSchedules() {
		t.Run(name, func(t *testing.T) {
			judgeSlice(t, func(c judgeCell) bool {
				return c.cat.name == "ssb-raw" && c.strat.Label == GPUOnly().Label && c.workers == 1 && c.depth == 0 && c.fault == name
			})
		})
	}
}

// Chaos runs replay to the nanosecond: the injector's schedule is part of the
// deterministic simulation.
func TestChaosDeterminism(t *testing.T) {
	judgeSlice(t, func(c judgeCell) bool {
		return c.cat.name == "ssb-raw" && c.strat.Label == DataDrivenChopping().Label && c.users == 8 &&
			c.workers == 1 && c.depth == 0 && c.fault != ""
	})
}

// assertBatchesEqual is the judge's comparator: the same column names in the
// same order, and every cell equal — floats bit for bit — whatever either
// side's encoding (late materialization may leave a column compressed).
func assertBatchesEqual(t *testing.T, name string, want, got *Batch) {
	t.Helper()
	if w, g := batchCells(want), batchCells(got); !slices.Equal(w, g) {
		t.Fatalf("%s: result differs\n got %s\nwant %s", name, g, w)
	}
}

// batchCells renders each column of a batch as its name and its values, a
// float as its bits.
func batchCells(b *Batch) []string {
	var cols []string
	for _, c := range b.Columns() {
		cells := []any{c.Name()}
		switch c := column.Materialized(c).(type) {
		case *column.StringColumn:
			for i := range c.Len() {
				cells = append(cells, c.Value(i))
			}
		case *column.Float64Column:
			for _, v := range c.Values {
				cells = append(cells, math.Float64bits(v))
			}
		default:
			read, _ := column.Reader[int64](c, nil)
			for _, v := range read(0, c.Len(), nil) {
				cells = append(cells, v)
			}
		}
		cols = append(cols, fmt.Sprintf("%#v", cells))
	}
	return cols
}
