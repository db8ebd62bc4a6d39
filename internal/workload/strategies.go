package workload

import (
	"slices"
	"time"

	"robustdb/internal/bus"
	"robustdb/internal/cost"
	"robustdb/internal/exec"
	"robustdb/internal/placement"
	"robustdb/internal/plan"
	"robustdb/internal/table"
	"robustdb/internal/trace"
)

// DefaultGPUWorkers / DefaultCPUWorkers are chopping's pool bounds (§5.2): two
// device workers overlap transfer and compute, four are the host's cores.
const (
	DefaultGPUWorkers = 2
	DefaultCPUWorkers = 4
)

// catalogue is the paper's strategy catalogue (§6.2; DESIGN.md §6, §27), each
// strategy beside its -strategy name (empty: none) and a corner of three
// choices: when operators are placed (the rule's adapter, §4), who places the
// data (operators, over a cache Preload fills or not; or Algorithm 1 ranking
// by PlacementPolicy: DataDriven, §3), and whether pools chop the stream (§5.2).
var catalogue = [...]struct {
	name string
	s    Strategy
}{
	{"cpu-only", Strategy{Label: "CPU Only", Placer: compileTime(allOn(cost.CPU))}},
	{"gpu-only", Strategy{Label: "GPU Only", Placer: compileTime(allOn(cost.GPU)), Preload: true}},
	{"critical-path", Strategy{Label: "Critical Path", Placer: compileTime(criticalPath), Preload: true}},
	{"data-driven", Strategy{Label: "Data-Driven", Placer: compileTime(followData), DataDriven: true}},
	{"chopping", Strategy{Label: "Chopping", Placer: runTime(loadBalanced),
		GPUWorkers: DefaultGPUWorkers, CPUWorkers: DefaultCPUWorkers, Preload: true}},
	{"data-driven-chopping", Strategy{Label: "Data-Driven Chopping", Placer: runTime(dataResident),
		GPUWorkers: DefaultGPUWorkers, CPUWorkers: DefaultCPUWorkers, DataDriven: true}},
	{"runtime", Strategy{Label: "Run-Time", Placer: runTime(loadBalanced), Preload: true}},
	{"", Strategy{Label: "Data-Driven (LRU)", Placer: compileTime(followData), DataDriven: true,
		PlacementPolicy: placement.LRU}},
}

// CPUOnly executes everything on the host.
func CPUOnly() Strategy { return catalogue[0].s }

// GPUOnly is the GPU-Preferred baseline: every operator on the co-processor,
// per-operator CPU fallback on aborts, operator-driven data placement.
func GPUOnly() Strategy { return catalogue[1].s }

// CriticalPath is CoGaDB's default compile-time optimizer (Appendix D).
func CriticalPath() Strategy { return catalogue[2].s }

// DataDriven is compile-time data-driven placement (§3).
func DataDriven() Strategy { return catalogue[3].s }

// Chopping is query chopping: run-time placement plus bounded thread pools
// (§5.2).
func Chopping() Strategy { return catalogue[4].s }

// DataDrivenChopping is the paper's combined contribution (§5.4).
func DataDrivenChopping() Strategy { return catalogue[5].s }

// RunTime is run-time placement without concurrency control (Figure 9).
func RunTime() Strategy { return catalogue[6].s }

// DataDrivenLRU is DataDriven with LRU ranking in Algorithm 1 (Appendix E).
func DataDrivenLRU() Strategy { return catalogue[7].s }

// AllStrategies returns the six strategies of Figures 14–21 in plot order:
// the catalogue's first six rows.
func AllStrategies() []Strategy {
	var out []Strategy
	for _, r := range catalogue[:6] {
		out = append(out, r.s)
	}
	return out
}

// Select resolves a -strategy value: the strategy of that name, or
// AllStrategies for "all"; nil for a name no row has.
func Select(name string) []Strategy {
	if name == "all" {
		return AllStrategies()
	}
	for _, r := range catalogue {
		if r.name == name && name != "" {
			return []Strategy{r.s}
		}
	}
	return nil
}

// NameOf returns the -strategy name of the row labelled as s is.
func NameOf(s Strategy) string {
	for _, r := range catalogue {
		if r.s.Label == s.Label {
			return r.name
		}
	}
	return ""
}

// Names lists the values Select resolves: the rows' names sorted, then "all".
func Names() []string {
	var names []string
	for _, r := range catalogue {
		if r.name != "" {
			names = append(names, r.name)
		}
	}
	slices.Sort(names)
	return append(names, "all")
}

// AdmittedBound derives the front door's default admitted concurrency from
// the chopping pool bounds (§5.2): one query a worker slot plus two keeps the
// operator stream saturated, and more only queue inside the engine. Unbounded
// pools (0 or >= exec.UnboundedWorkers) count as the defaults.
func AdmittedBound(gpuWorkers, cpuWorkers int) int {
	if gpuWorkers <= 0 || gpuWorkers >= exec.UnboundedWorkers {
		gpuWorkers = DefaultGPUWorkers
	}
	if cpuWorkers <= 0 || cpuWorkers >= exec.UnboundedWorkers {
		cpuWorkers = DefaultCPUWorkers
	}
	return gpuWorkers + cpuWorkers + 2
}

// compileTime adapts a compile-time rule to exec.Placer. The rule places
// every node before the query runs, so the engine never asks at run time: an
// aborted operator restarts on the CPU, its successors stay put (Figure 8).
type compileTime func(e *exec.Engine, p *plan.Plan) map[int]cost.ProcKind

func (r compileTime) CompileTime(e *exec.Engine, p *plan.Plan) map[int]cost.ProcKind { return r(e, p) }

func (compileTime) RunTime(*exec.Engine, *plan.Node, []*exec.Value) cost.ProcKind { return cost.CPU }

// runTime adapts a run-time rule to exec.Placer: each ready operator goes
// where the rule says, save that the open device circuit breaker degrades a
// GPU placement to the CPU. Each decision is a trace event with its reason
// (and a debug log record); with tracing and logging off, two nil checks.
type runTime func(e *exec.Engine, n *plan.Node, inputs []*exec.Value) (kind cost.ProcKind, reason string)

func (runTime) CompileTime(*exec.Engine, *plan.Plan) map[int]cost.ProcKind { return nil }

func (r runTime) RunTime(e *exec.Engine, n *plan.Node, inputs []*exec.Value) cost.ProcKind {
	kind, reason := r(e, n, inputs)
	// Asked on every decision: asking half-opens the breaker after its cooldown.
	if allow := e.Health.AllowGPU(e.Sim.Now()); kind == cost.GPU && !allow {
		kind, reason = cost.CPU, "breaker-open"
		e.Metrics.DegradedPlacements.Inc()
	}
	e.LogPlacement(n, kind.String(), reason)
	if e.Tracer != nil {
		e.Tracer.Event(trace.Event{At: e.Sim.Now(), Kind: "place",
			Subject: kind.String() + ":" + n.Op.Class().String(), Reason: reason})
	}
	return kind
}

// allOn places every node on one processor: CPU Only, and GPU Preferred,
// which relies on the engine's per-operator CPU fallback (§6.2).
func allOn(kind cost.ProcKind) func(*exec.Engine, *plan.Plan) map[int]cost.ProcKind {
	gpu := func(*plan.Node) bool { return kind == cost.GPU }
	return func(_ *exec.Engine, p *plan.Plan) map[int]cost.ProcKind { return chain(p, gpu) }
}

// followData is compile-time data-driven placement (§3): operators are
// chained onto the co-processor from the leaves exactly as long as every
// base input is cached; once the chain breaks, the rest of the query stays
// on the CPU (§3.3).
func followData(e *exec.Engine, p *plan.Plan) map[int]cost.ProcKind {
	return chain(p, func(n *plan.Node) bool {
		return !slices.ContainsFunc(n.Op.BaseColumns(), func(id table.ColumnID) bool { return !e.Cache.Contains(id) })
	})
}

// chain places a node on the co-processor iff ok accepts it and every child
// is there: a GPU chain grows from the leaves and breaks at the first
// operator it may not take.
func chain(p *plan.Plan, ok func(*plan.Node) bool) map[int]cost.ProcKind {
	placement := make(map[int]cost.ProcKind, len(p.Nodes()))
	for _, n := range p.Nodes() { // post-order: children first
		kind := cost.CPU
		if ok(n) {
			kind = cost.GPU
		}
		for _, c := range n.Children {
			if placement[c.ID()] == cost.CPU {
				kind = cost.CPU
			}
		}
		placement[n.ID()] = kind
	}
	return placement
}

// criticalPath is CoGaDB's default iterative-refinement optimizer
// (Appendix D): from an all-CPU plan, it moves one leaf path (a leaf up to its
// first n-ary ancestor) to the co-processor per iteration. A binary operator
// runs there only if both children do, keeping transfers off the path.
func criticalPath(e *exec.Engine, p *plan.Plan) map[int]cost.ProcKind {
	if err := p.EstimateSizes(e.Cat); err != nil {
		e.NoteCatalogError(err)
		return allOn(cost.CPU)(e, p)
	}
	leaves := p.Leaves()
	onGPU := make(map[int]bool)
	bestPlacement := derivePlacement(p, onGPU)
	bestTime := estimateResponse(e, p, bestPlacement)
	// Beam of width one: each iteration commits the leaf path that makes the
	// fastest plan at that level, even one slower than the level before —
	// deeper levels may recover (a binary operator joins the GPU only once
	// both children are there). The best plan seen overall wins.
	for range leaves {
		levelLeaf := -1
		var levelTime time.Duration
		for _, leaf := range leaves {
			if onGPU[leaf.ID()] {
				continue
			}
			onGPU[leaf.ID()] = true
			t := estimateResponse(e, p, derivePlacement(p, onGPU))
			delete(onGPU, leaf.ID())
			if levelLeaf < 0 || t < levelTime {
				levelTime = t
				levelLeaf = leaf.ID()
			}
		}
		onGPU[levelLeaf] = true
		if levelTime < bestTime {
			bestTime = levelTime
			bestPlacement = derivePlacement(p, onGPU)
		}
	}
	return bestPlacement
}

// derivePlacement expands a set of GPU leaves into a full placement: a leaf
// path runs on the GPU up to the first operator whose children are not all
// on the GPU.
func derivePlacement(p *plan.Plan, gpuLeaves map[int]bool) map[int]cost.ProcKind {
	return chain(p, func(n *plan.Node) bool { return len(n.Children) > 0 || gpuLeaves[n.ID()] })
}

// estimateResponse predicts the plan's response time under a placement:
// node finish = max child finish + boundary transfers + operator estimate,
// with a final copy-back if the root runs on the co-processor.
func estimateResponse(e *exec.Engine, p *plan.Plan, placement map[int]cost.ProcKind) time.Duration {
	finish := make(map[int]time.Duration, len(p.Nodes()))
	for _, n := range p.Nodes() {
		kind := placement[n.ID()]
		var start time.Duration
		var moved int64
		for _, c := range n.Children {
			if f := finish[c.ID()]; f > start {
				start = f
			}
			if placement[c.ID()] != kind {
				moved += c.EstOutBytes
			}
		}
		dir := bus.DeviceToHost
		if kind == cost.GPU {
			dir = bus.HostToDevice
			// Uncached base columns must be shipped to the device.
			for _, id := range n.Op.BaseColumns() {
				if !e.Cache.Contains(id) {
					if b, err := e.Cat.ColumnBytes(id); err == nil {
						moved += b
					} else {
						e.NoteCatalogError(err)
					}
				}
			}
		}
		finish[n.ID()] = start + e.Bus.Duration(dir, moved) + e.EstimatePlanned(n).Time[kind]
	}
	total := finish[p.Root.ID()]
	if placement[p.Root.ID()] == cost.GPU {
		total += e.Bus.Duration(bus.DeviceToHost, p.Root.EstOutBytes)
	}
	return total
}

// loadBalanced is plain run-time placement (Figure 9): the processor with the
// lowest estimated completion time, queue plus learned operator estimate.
// Like HyPE's, the estimates leave out operator-driven data placement's
// transfers — why plain chopping still thrashes the cache and Data-Driven
// Chopping does not (§6.2.1, Fig 15b) — and the GPU must fit the heap (§4).
func loadBalanced(e *exec.Engine, n *plan.Node, inputs []*exec.Value) (cost.ProcKind, string) {
	est, err := e.EstimateReady(n, inputs)
	if err != nil {
		e.NoteCatalogError(err)
		return cost.CPU, "catalog-error"
	}
	cpuT := e.Outstanding(cost.CPU) + est.Time[cost.CPU].Seconds()
	gpuT := e.Outstanding(cost.GPU) + est.Time[cost.GPU].Seconds()
	reason := "load-balance"
	if est.Pipelined > 0 {
		// The pipelined executor would run this operator: its overlap-aware
		// makespan includes the chunk transfers it mostly hides, and it
		// reserves heap a chunk at a time, so no whole-operator heap gate.
		gpuT = e.Outstanding(cost.GPU) + est.Pipelined.Seconds()
		reason = "load-balance-pipelined"
	} else if est.Heap > e.Heap.Available() {
		return cost.CPU, "heap-full" // it would abort at once
	}
	if gpuT <= cpuT {
		return cost.GPU, reason
	}
	return cost.CPU, reason
}

// dataResident is the run-time data-driven rule (§5.4): the co-processor iff
// every base column is cached and every intermediate is device-resident, so
// after an abort the query continues on the CPU by itself — the "trick" of
// Data-Driven Chopping — and iff the footprint fits the heap right now.
func dataResident(e *exec.Engine, n *plan.Node, inputs []*exec.Value) (cost.ProcKind, string) {
	for _, id := range n.Op.BaseColumns() {
		if !e.Cache.Contains(id) {
			return cost.CPU, "column-not-cached"
		}
	}
	for _, v := range inputs {
		if !v.OnDevice() {
			return cost.CPU, "input-on-host"
		}
	}
	est, err := e.EstimateReady(n, inputs)
	if err != nil {
		e.NoteCatalogError(err)
		return cost.CPU, "catalog-error"
	}
	if est.Heap > e.Heap.Available() {
		return cost.CPU, "heap-full" // it would abort at once
	}
	return cost.GPU, "data-resident"
}
