// Package placer implements the compile-time operator placement heuristics
// of the paper: CPU-Only and GPU-Preferred baselines, the Critical Path
// iterative-refinement optimizer CoGaDB uses by default (Appendix D), and
// Data-Driven placement (§3), which follows the cache contents established
// by the data placement manager.
//
// All of these fix the full placement before the query runs; the engine's
// fault tolerance may still move individual aborted operators to the CPU,
// but successors keep their compile-time processor (Figure 8, left).
package placer

import (
	"time"

	"robustdb/internal/cost"
	"robustdb/internal/exec"
	"robustdb/internal/plan"
)

// CPUOnly places every operator on the host.
type CPUOnly struct{}

// Name returns "cpu-only".
func (CPUOnly) Name() string { return "cpu-only" }

// CompileTime assigns every node to the CPU.
func (CPUOnly) CompileTime(_ *exec.Engine, p *plan.Plan) map[int]cost.ProcKind {
	return uniform(p, cost.CPU)
}

// RunTime is never called for compile-time strategies.
func (CPUOnly) RunTime(*exec.Engine, *plan.Node, []*exec.Value) cost.ProcKind { return cost.CPU }

// GPUPreferred places every operator on the co-processor and relies on the
// engine's fault handler to fall back per operator ("GPU Preferred" /
// "GPU Only" in the paper's experiments, §6.2).
type GPUPreferred struct{}

// Name returns "gpu-only".
func (GPUPreferred) Name() string { return "gpu-only" }

// CompileTime assigns every node to the GPU.
func (GPUPreferred) CompileTime(_ *exec.Engine, p *plan.Plan) map[int]cost.ProcKind {
	return uniform(p, cost.GPU)
}

// RunTime is never called for compile-time strategies.
func (GPUPreferred) RunTime(*exec.Engine, *plan.Node, []*exec.Value) cost.ProcKind { return cost.GPU }

// DataDriven is the compile-time data-driven placement of §3: operators are
// chained onto the co-processor from the leaves exactly as long as every
// base input is cached; once the chain breaks, the rest of the query stays
// on the CPU (§3.3).
type DataDriven struct{}

// Name returns "data-driven".
func (DataDriven) Name() string { return "data-driven" }

// CompileTime pushes operators to their data.
func (DataDriven) CompileTime(e *exec.Engine, p *plan.Plan) map[int]cost.ProcKind {
	placement := make(map[int]cost.ProcKind, len(p.Nodes()))
	for _, n := range p.Nodes() { // post-order: children first
		kind := cost.GPU
		for _, id := range n.Op.BaseColumns() {
			if !e.Cache.Contains(id) {
				kind = cost.CPU
				break
			}
		}
		for _, c := range n.Children {
			if placement[c.ID()] == cost.CPU {
				kind = cost.CPU
				break
			}
		}
		placement[n.ID()] = kind
	}
	return placement
}

// RunTime is never called for compile-time strategies.
func (DataDriven) RunTime(*exec.Engine, *plan.Node, []*exec.Value) cost.ProcKind { return cost.CPU }

func uniform(p *plan.Plan, kind cost.ProcKind) map[int]cost.ProcKind {
	placement := make(map[int]cost.ProcKind, len(p.Nodes()))
	for _, n := range p.Nodes() {
		placement[n.ID()] = kind
	}
	return placement
}

// CriticalPath is CoGaDB's default iterative-refinement optimizer
// (Appendix D): starting from an all-CPU plan, it greedily moves one leaf
// path (the chain from a leaf to its first n-ary ancestor) to the
// co-processor per iteration as long as the estimated response time
// improves. A binary operator runs on the co-processor only if both children
// do, which keeps transfers off the critical path.
type CriticalPath struct{}

// Name returns "critical-path".
func (CriticalPath) Name() string { return "critical-path" }

// RunTime is never called for compile-time strategies.
func (CriticalPath) RunTime(*exec.Engine, *plan.Node, []*exec.Value) cost.ProcKind { return cost.CPU }

// CompileTime runs the iterative refinement.
func (CriticalPath) CompileTime(e *exec.Engine, p *plan.Plan) map[int]cost.ProcKind {
	if err := p.EstimateSizes(e.Cat); err != nil {
		e.NoteCatalogError(err)
		return uniform(p, cost.CPU)
	}
	leaves := p.Leaves()
	onGPU := make(map[int]bool)
	bestPlacement := derivePlacement(p, onGPU)
	bestTime := estimateResponse(e, p, bestPlacement)
	// Beam of width one (Appendix D): each iteration commits the single
	// additional leaf path that yields the fastest plan at that level —
	// even when that level is worse than the previous one, because deeper
	// levels may recover (a binary operator joins the GPU only once both
	// children are there). The best plan seen overall wins. One iteration per
	// leaf: each finds a leaf still on the CPU, and after the last none is.
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
	placement := make(map[int]cost.ProcKind, len(p.Nodes()))
	for _, n := range p.Nodes() {
		kind := cost.GPU
		if len(n.Children) == 0 {
			if !gpuLeaves[n.ID()] {
				kind = cost.CPU
			}
		} else {
			for _, c := range n.Children {
				if placement[c.ID()] == cost.CPU {
					kind = cost.CPU
					break
				}
			}
		}
		placement[n.ID()] = kind
	}
	return placement
}

// estimateResponse predicts the plan's response time under a placement:
// node finish = max child finish + boundary transfers + operator estimate,
// with a final copy-back if the root runs on the co-processor.
func estimateResponse(e *exec.Engine, p *plan.Plan, placement map[int]cost.ProcKind) time.Duration {
	finish := make(map[int]time.Duration, len(p.Nodes()))
	busSec := e.Params.BusBandwidth
	transfer := func(bytes int64) time.Duration {
		return e.Params.BusLatency + time.Duration(float64(bytes)/busSec*float64(time.Second))
	}
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
		if kind == cost.GPU {
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
		op := e.Learner.Estimate(n.Op.Class(), kind, cost.Work(n.EstInBytes, n.EstOutBytes))
		if moved > 0 {
			start += transfer(moved)
		}
		finish[n.ID()] = start + op
	}
	total := finish[p.Root.ID()]
	if placement[p.Root.ID()] == cost.GPU {
		total += transfer(p.Root.EstOutBytes)
	}
	return total
}
