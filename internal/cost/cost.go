// Package cost provides the cost models the placement heuristics run on:
// calibrated analytical throughput models per (operator class, processor)
// plus online-learned linear models in the spirit of HyPE, CoGaDB's
// hardware-oblivious optimizer (paper §2.5, [7, 9]).
//
// Calibration anchors (see DESIGN.md §4): the constants in DefaultParams are
// chosen once so that (a) a hot-cache GPU runs the paper's anchor query
// ≈2.5× faster than the CPU (Figure 1), (b) a transfer-per-query selection
// workload degrades by roughly the paper's factor 24 (Figure 2), and (c) a
// selection operator's device footprint is 3.25× its input column (§3.4).
// Everything else in the evaluation emerges from the mechanisms.
package cost

import (
	"fmt"
	"time"
)

// ProcKind identifies a processor class.
type ProcKind uint8

// Processor kinds.
const (
	// CPU is the host processor.
	CPU ProcKind = iota
	// GPU is the simulated co-processor.
	GPU
)

// String returns the processor label.
func (k ProcKind) String() string {
	switch k {
	case CPU:
		return "cpu"
	case GPU:
		return "gpu"
	default:
		return fmt.Sprintf("proc(%d)", uint8(k))
	}
}

// OpClass groups operators with similar cost behaviour.
type OpClass uint8

// Operator classes.
const (
	// Selection is predicate evaluation over a column.
	Selection OpClass = iota
	// Join is hash join build+probe.
	Join
	// Aggregation is group-by with aggregates.
	Aggregation
	// Sort is order-by / top-n.
	Sort
	// Materialize is gather/projection of columns through position lists.
	Materialize
	// Compute is row-wise arithmetic on columns.
	Compute
	numOpClasses = iota
)

// String returns the class name.
func (c OpClass) String() string {
	switch c {
	case Selection:
		return "selection"
	case Join:
		return "join"
	case Aggregation:
		return "aggregation"
	case Sort:
		return "sort"
	case Materialize:
		return "materialize"
	case Compute:
		return "compute"
	default:
		return fmt.Sprintf("op(%d)", uint8(c))
	}
}

// Params holds the calibrated physical constants of the simulated machine.
type Params struct {
	// Throughput is processing rate in bytes/second per (class, processor).
	Throughput map[ProcKind]map[OpClass]float64
	// Startup is the fixed per-operator dispatch cost (kernel launch on the
	// GPU, task setup on the CPU).
	Startup map[ProcKind]time.Duration
	// BusBandwidth is the effective per-direction PCIe bandwidth, bytes/s.
	BusBandwidth float64
	// BusLatency is the fixed per-transfer latency.
	BusLatency time.Duration
	// SelectionFootprint is the device heap demand of a selection relative
	// to its input column (the paper reports 3.25 for He et al.'s kernel).
	SelectionFootprint float64
	// AbortSync is the device-wide stall caused by an aborted operator's
	// failed allocation and cleanup: freeing device memory synchronizes the
	// device (cudaFree semantics), so every in-flight kernel pauses. This
	// is the non-work-conserving cost that lets memory-pressure storms
	// collapse co-processor throughput (Figure 3).
	AbortSync time.Duration
}

// DefaultParams returns the calibrated machine model. The GPU outruns the
// CPU by 3–5× per operator when data is resident, and the bus is ~20× slower
// than the GPU's selection kernel, which produces the paper's thrashing
// factor once every query re-transfers its input.
func DefaultParams() *Params {
	return &Params{
		Throughput: map[ProcKind]map[OpClass]float64{
			CPU: {
				Selection:   5e9,
				Join:        1.5e9,
				Aggregation: 4e9,
				Sort:        2e9,
				Materialize: 5e9,
				Compute:     6e9,
			},
			GPU: {
				Selection:   50e9,
				Join:        4.5e9,
				Aggregation: 20e9,
				Sort:        8e9,
				Materialize: 30e9,
				Compute:     40e9,
			},
		},
		Startup: map[ProcKind]time.Duration{
			CPU: 5 * time.Microsecond,
			GPU: 25 * time.Microsecond,
		},
		BusBandwidth:       2.0e9,
		BusLatency:         15 * time.Microsecond,
		SelectionFootprint: 3.25,
		AbortSync:          1500 * time.Microsecond,
	}
}

// OpDuration returns the analytical execution time of an operator of the
// given class processing in+out bytes on the given processor at full rate.
func (p *Params) OpDuration(class OpClass, kind ProcKind, bytes int64) time.Duration {
	if bytes < 0 {
		panic(fmt.Sprintf("cost: negative work %d", bytes))
	}
	thr, ok := p.Throughput[kind][class]
	if !ok || thr <= 0 {
		panic(fmt.Sprintf("cost: no throughput for %s on %s", class, kind))
	}
	return p.Startup[kind] + time.Duration(float64(bytes)/thr*float64(time.Second))
}

// Work returns the cost-relevant byte volume of an operator: the bytes it
// reads plus the bytes it writes.
func Work(inBytes, outBytes int64) int64 { return inBytes + outBytes }

// PipelinedDuration returns the makespan of a k-chunk pipelined schedule
// with per-chunk stage times up (H2D), compute, and down (D2H): the pipeline
// fills with one chunk through all three stages, then every further chunk
// costs one cycle of the bottleneck stage. k <= 1 degenerates to the serial
// sum. This is what placement prices instead of summed transfer + compute
// when the pipelined executor would run the operator.
func PipelinedDuration(up, compute, down time.Duration, k int) time.Duration {
	if k <= 0 {
		return 0
	}
	total := up + compute + down
	if k == 1 {
		return total
	}
	bottleneck := up
	if compute > bottleneck {
		bottleneck = compute
	}
	if down > bottleneck {
		bottleneck = down
	}
	return total + time.Duration(k-1)*bottleneck
}

// HeapFootprint returns the device heap demand of an operator: scratch
// space plus result, following the footprint constants of the paper and the
// kernels it cites (He et al. [13]).
func (p *Params) HeapFootprint(class OpClass, inBytes, outBytes int64) int64 {
	switch class {
	case Selection:
		// The paper's constant covers flags, prefix sums, and the output.
		return int64(p.SelectionFootprint * float64(inBytes))
	case Join:
		// Hash table ≈ 2× the build side plus the probe input. inBytes is
		// build+probe and star joins build on small filtered dimensions, so
		// a 1.3× bound on the total input reflects He et al.'s kernels.
		return int64(1.3*float64(inBytes)) + outBytes
	case Aggregation:
		return inBytes + 2*outBytes
	case Sort:
		return 2*inBytes + outBytes
	case Materialize, Compute:
		return inBytes + outBytes
	default:
		return inBytes + outBytes
	}
}
