// Package ladderspec is the protocol between the benchmark harness and the
// ladder program it runs as a child of traced passes: a JSON Spec on the
// ladder's stdin, a JSON Report on its stdout. It imports nothing of the
// repo, so sharing it does not tie the harness to robustdb/internal/....
package ladderspec

// Spec says which workload's inputs the ladder climbs on.
type Spec struct {
	SF            int      `json:"sf"`
	Rows          int      `json:"rows"` // rows per scale factor; 0 = generator default
	Seed          int64    `json:"seed"`
	CacheFrac     float64  `json:"cache_frac"`
	KernelWorkers int      `json:"kernel_workers"`
	Statements    []string `json:"statements"` // empty: the batch workload (13 SSB plans)
	// BudgetMS bounds the rung rounds; every rung runs at least once.
	BudgetMS int `json:"budget_ms"`
	// Quick is the smoke test's mode: everything once, numbers meaningless.
	Quick bool `json:"quick"`
	// Batch workload only: users and queries of a pass, and the round's
	// passes as the harness ran them untraced.
	Users        int    `json:"users"`
	TotalQueries int    `json:"total_queries"`
	Passes       []Pass `json:"passes"`
}

// Pass is one RunWorkload pass of the batch round.
type Pass struct {
	// Strategy is the strategy's Label, the key into workload.AllStrategies.
	Strategy   string `json:"strategy"`
	Compressed bool   `json:"compressed"`
	// MakespanNS is the untraced pass's makespan, which the traced pass —
	// tracer on, placer wrapped — must reproduce to the nanosecond.
	MakespanNS int64 `json:"makespan_ns"`
}

// Report is the ladder's answer.
type Report struct {
	Metrics map[string]float64 `json:"metrics"`
	Rungs   []Rung             `json:"rungs"`
	// Unresolved names the metrics whose value — a difference or ratio of
	// two rungs — was smaller than the rungs' own spread; they report the
	// neutral value (0 for a tax, 1 for a ratio), never a negative tax.
	Unresolved []string `json:"unresolved"`
	// Shares says how a request's time splits on this workload: the front
	// door's share is (R8 − R2) / R8, the kernels' share R1 / R7. The
	// workloads are chosen to pull these apart.
	Shares   map[string]float64 `json:"shares"`
	Problems []string           `json:"problems"`
	Spans    []Span             `json:"spans"`
}

// Rung is one rung's samples in summary: microseconds per statement.
type Rung struct {
	Name     string  `json:"name"`
	Layer    string  `json:"layer"`
	Samples  int     `json:"samples"`
	P25US    float64 `json:"p25_us"`
	MedianUS float64 `json:"median_us"`
	P75US    float64 `json:"p75_us"`
}

// Span is one bench-owned interval: recorded from outside the program, around
// the calls into a layer. Spans of one request share its number; parent 0
// marks a root. Times are nanoseconds since the recorder's origin (the
// ladder's: its launch).
type Span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}
