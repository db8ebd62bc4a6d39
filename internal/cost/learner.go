package cost

import "time"

// Model is an online-learned linear cost model t = a + b·bytes for one
// (operator class, processor) pair, the role HyPE's learned models play in
// CoGaDB. It fits by incremental least squares and falls back to the
// analytical model until it has seen enough observations.
type Model struct {
	class OpClass
	kind  ProcKind
	prior *Params

	n                        int
	sumX, sumY, sumXX, sumXY float64
}

// minSamples is how many observations a model needs before its fit replaces
// the analytical prior.
const minSamples = 5

// NewModel creates a model with the given analytical prior.
func NewModel(class OpClass, kind ProcKind, prior *Params) *Model {
	if prior == nil {
		panic("cost: model needs an analytical prior")
	}
	return &Model{class: class, kind: kind, prior: prior}
}

// Observe feeds one (bytes, measured duration) sample into the fit.
func (m *Model) Observe(bytes int64, d time.Duration) {
	x := float64(bytes)
	y := d.Seconds()
	m.n++
	m.sumX += x
	m.sumY += y
	m.sumXX += x * x
	m.sumXY += x * y
}

// Samples returns the number of observations.
func (m *Model) Samples() int { return m.n }

// Estimate predicts the execution time for an operator over bytes of data.
func (m *Model) Estimate(bytes int64) time.Duration {
	if m.n < minSamples {
		return m.prior.OpDuration(m.class, m.kind, bytes)
	}
	nf := float64(m.n)
	den := nf*m.sumXX - m.sumX*m.sumX
	if den <= 0 {
		// All samples at (nearly) one size: use the mean.
		return time.Duration(m.sumY / nf * float64(time.Second))
	}
	b := (nf*m.sumXY - m.sumX*m.sumY) / den
	a := (m.sumY - b*m.sumX) / nf
	est := a + b*float64(bytes)
	if est < 0 {
		est = 0
	}
	return time.Duration(est * float64(time.Second))
}

// Learner is the per-run registry of learned models: one per
// (class, processor), lazily created.
type Learner struct {
	prior  *Params
	models map[ProcKind]map[OpClass]*Model
}

// NewLearner creates a learner over the analytical prior.
func NewLearner(prior *Params) *Learner {
	return &Learner{prior: prior, models: make(map[ProcKind]map[OpClass]*Model)}
}

// Model returns (creating if needed) the model for class on kind.
func (l *Learner) Model(class OpClass, kind ProcKind) *Model {
	byClass, ok := l.models[kind]
	if !ok {
		byClass = make(map[OpClass]*Model)
		l.models[kind] = byClass
	}
	m, ok := byClass[class]
	if !ok {
		m = NewModel(class, kind, l.prior)
		byClass[class] = m
	}
	return m
}

// Observe records a measured operator execution.
func (l *Learner) Observe(class OpClass, kind ProcKind, bytes int64, d time.Duration) {
	l.Model(class, kind).Observe(bytes, d)
}

// Estimate predicts the execution time of class over bytes on kind.
func (l *Learner) Estimate(class OpClass, kind ProcKind, bytes int64) time.Duration {
	return l.Model(class, kind).Estimate(bytes)
}
