package workload

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"robustdb/internal/exec"
	"robustdb/internal/placement"
	"robustdb/internal/ssb"
	"robustdb/internal/table"
	"robustdb/internal/tpch"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/corners.golden")

// corner is one consistent point of the catalogue's three axes. Its name
// says the rule (which fixes the placement time), the data placement of a
// data-driven rule, and "+pool" for chopping's bounds.
type corner struct {
	name string
	s    Strategy
}

// corners are the fifteen consistent corners, grown from the catalogue's
// rows along the two axes any rule combines with: the pool bound and, for
// the data-driven rules, Algorithm 1's ranking. The named strategies are
// among them: GPU Only, Critical Path, Run-Time, Chopping, Data-Driven,
// Data-Driven (LRU), Data-Driven Chopping.
func corners() []corner {
	unpooled := DataDrivenChopping()
	unpooled.GPUWorkers, unpooled.CPUWorkers = 0, 0
	cs := []corner{{"cpu-only", CPUOnly()}}
	for _, base := range []corner{
		{"gpu-preferred", GPUOnly()}, {"critical-path", CriticalPath()}, {"load-balanced", RunTime()},
		{"compile-dd", DataDriven()}, {"run-dd", unpooled},
	} {
		policies := []placement.Policy{placement.LFU}
		if base.s.DataDriven {
			policies = append(policies, placement.LRU)
		}
		for _, pol := range policies {
			c := base
			c.s.PlacementPolicy = pol
			if c.s.DataDriven {
				c.name += "/" + pol.String()
			}
			pooled := c
			pooled.name += "+pool"
			pooled.s.GPUWorkers, pooled.s.CPUWorkers = DefaultGPUWorkers, DefaultCPUWorkers
			cs = append(cs, c, pooled)
		}
	}
	return cs
}

// setup is one database, device and user count every corner runs on.
type setup struct {
	bench   string
	sf      int
	seed    int64
	device  string // "half": cache = working set/2, heap = working set; "full": cache = working set, heap = 2×
	users   int
	cat     *table.Catalog
	queries []Query
	cfg     exec.Config
}

func (s setup) String() string {
	return fmt.Sprintf("%s sf=%d seed=%d %s users=%d", s.bench, s.sf, s.seed, s.device, s.users)
}

// setups is {SSB, TPC-H} × SF × seed × the two devices × users {1, 8, 20},
// at 4 000 rows a scale factor.
func setups(sfs []int, seeds []int64, kernelWorkers int) []setup {
	var out []setup
	for _, bench := range []string{"ssb", "tpch"} {
		for _, sf := range sfs {
			for _, seed := range seeds {
				var cat *table.Catalog
				if bench == "ssb" {
					cat = ssb.Generate(ssb.Config{SF: sf, RowsPerSF: 4000, Seed: seed})
				} else {
					cat = tpch.Generate(tpch.Config{SF: sf, RowsPerSF: 4000, Seed: seed})
				}
				ws := workingSet(cat, mix(bench))
				for _, dev := range []struct {
					name        string
					cache, heap int64
				}{{"half", ws / 2, ws}, {"full", ws, 2 * ws}} {
					for _, users := range []int{1, 8, 20} {
						// Plans carry their size estimates, so setups that run in
						// parallel each get their own.
						out = append(out, setup{bench, sf, seed, dev.name, users, cat, mix(bench),
							exec.Config{CacheBytes: dev.cache, HeapBytes: dev.heap, KernelWorkers: kernelWorkers}})
					}
				}
			}
		}
	}
	return out
}

// mix builds the benchmark's query mix, fresh plans each call.
func mix(bench string) []Query {
	var queries []Query
	if bench == "ssb" {
		for _, q := range ssb.Queries() {
			queries = append(queries, Query{q.Name, q.Plan})
		}
		return queries
	}
	for _, q := range tpch.Queries() {
		queries = append(queries, Query{q.Name, q.Plan})
	}
	return queries
}

// workingSet is the bytes of the distinct base columns the queries read.
func workingSet(cat *table.Catalog, queries []Query) int64 {
	seen := map[table.ColumnID]bool{}
	var total int64
	for _, q := range queries {
		for _, id := range q.Plan.BaseColumns() {
			if b, err := cat.ColumnBytes(id); err == nil && !seen[id] {
				seen[id] = true
				total += b
			}
		}
	}
	return total
}

// outcome is what one run leaves that a law or a claim reads.
type outcome struct {
	makespan      time.Duration
	aborts        int64
	heapHeld      int64
	cacheMisses   int64
	h2dBytes      int64
	perQueryCount map[string]int // completed runs of each query
}

// passes is the fixed amount of work of every run, in passes over the mix,
// whatever the user count (the paper's fixed-total workloads, §6.2.2).
const passes = 4

// runCorner runs one corner on one setup.
func runCorner(t *testing.T, st setup, c corner) outcome {
	e, res, err := Run(st.cat, st.cfg, c.s, Spec{Queries: st.queries, Users: st.users, TotalQueries: passes * len(st.queries)})
	if err != nil {
		t.Fatalf("%v %s: %v", st, c.name, err)
	}
	o := outcome{makespan: res.WorkloadTime, aborts: res.Aborts, heapHeld: e.Heap.Used(),
		cacheMisses: e.Metrics.CacheMisses.Load(), h2dBytes: res.H2DBytes, perQueryCount: map[string]int{}}
	for name, ls := range res.Latencies {
		o.perQueryCount[name] = len(ls)
	}
	return o
}

// TestStrategyCorners runs every corner on every setup and holds each run to
// three of the paper's mechanism claims, stated as laws:
//
//   - every query of the mix completes, as often in every corner, and the
//     device heap holds nothing at the end;
//   - a data-driven corner never misses the cache, so no base column crosses
//     the bus (Figure 6);
//   - a run-time data-driven corner moves no byte host to device at all
//     (Figures 15 and 19). A compile-time one may: after an abort its GPU
//     successors fetch the intermediate back (Figure 8, left).
//
// Two more claims do not hold on every setup, and their counter-examples are
// pinned in testdata/corners.golden, so that a change which flips one fails
// here until the golden is rewritten (-update-golden):
//
//   - a pool bound aborts no more than the same corner unbounded (Figure 13);
//   - Data-Driven Chopping's makespan is at most CPU Only's (Figure 14; the
//     paper's definition of robust).
//
// The full grid is seeds 1–3 at SF 1 and 10 with one kernel worker. -short
// runs the seed 1, SF 1 slice with two kernel workers: what it finds must be
// exactly the golden's lines for that slice.
func TestStrategyCorners(t *testing.T) {
	sfs, seeds, workers := []int{1, 10}, []int64{1, 2, 3}, 1
	if testing.Short() {
		sfs, seeds, workers = []int{1}, []int64{1}, 2
	}
	sts := setups(sfs, seeds, workers)
	cs := corners()
	if len(cs) != 15 {
		t.Fatalf("%d corners, want 15", len(cs))
	}
	results := make([][]outcome, len(sts))
	t.Run("grid", func(t *testing.T) {
		for i, st := range sts {
			t.Run(strings.ReplaceAll(st.String(), " ", "/"), func(t *testing.T) {
				t.Parallel()
				results[i] = make([]outcome, len(cs))
				for j, c := range cs {
					results[i][j] = runCorner(t, st, c)
				}
			})
		}
	})
	if t.Failed() {
		return
	}

	var found []string
	for i, st := range sts {
		byName := map[string]outcome{}
		for j, c := range cs {
			o := results[i][j]
			byName[c.name] = o
			where := fmt.Sprintf("%v %s", st, c.name)
			for _, q := range st.queries {
				if o.perQueryCount[q.Name] != passes {
					t.Errorf("%s: %s ran %d times, want %d", where, q.Name, o.perQueryCount[q.Name], passes)
				}
			}
			if o.heapHeld != 0 {
				t.Errorf("%s: %d heap bytes held at the end", where, o.heapHeld)
			}
			if c.s.DataDriven && o.cacheMisses != 0 {
				t.Errorf("%s: data-driven corner missed the cache %d times", where, o.cacheMisses)
			}
			if _, runTime := c.s.Placer.(runTime); c.s.DataDriven && runTime && o.h2dBytes != 0 {
				t.Errorf("%s: run-time data-driven corner moved %d bytes host to device", where, o.h2dBytes)
			}
		}
		for _, c := range cs {
			base, pooled := strings.CutSuffix(c.name, "+pool")
			if p, u := byName[c.name], byName[base]; pooled && p.aborts > u.aborts {
				found = append(found, fmt.Sprintf("pool-aborts %v %s aborts=%d unbounded=%d", st, c.name, p.aborts, u.aborts))
			}
		}
		if ddc, cpu := byName["run-dd/lfu+pool"], byName["cpu-only"]; ddc.makespan > cpu.makespan {
			found = append(found, fmt.Sprintf("ddc-makespan %v ddc=%v cpu-only=%v ratio=%.3f",
				st, ddc.makespan, cpu.makespan, float64(ddc.makespan)/float64(cpu.makespan)))
		}
	}
	checkCornersGolden(t, found)
}

// checkCornersGolden compares the counter-examples found with the golden's
// lines: all of them after the full grid, the slice the short grid ran
// (seed 1, SF 1) after that.
func checkCornersGolden(t *testing.T, found []string) {
	t.Helper()
	golden := filepath.Join("testdata", "corners.golden")
	got := []byte(strings.Join(found, "\n") + "\n")
	if *updateGolden && !testing.Short() {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if testing.Short() {
		var slice []string
		for _, line := range strings.Split(strings.TrimSuffix(string(want), "\n"), "\n") {
			if strings.Contains(line, " sf=1 seed=1 ") {
				slice = append(slice, line)
			}
		}
		want = []byte(strings.Join(slice, "\n") + "\n")
	}
	if !bytes.Equal(got, want) {
		t.Errorf("counter-examples differ from %s (go test ./internal/workload -run TestStrategyCorners -update-golden rewrites it)\ngot:\n%s\nwant:\n%s",
			golden, got, want)
	}
}
