package trace

import (
	"strings"
	"sync"
)

// Labeled registry series.
//
// The registry itself is name-keyed and label-agnostic: a labeled series is
// just a series whose name carries a Prometheus-style label suffix,
// `Base{k="v",k2="v2"}`, composed with LabeledName. The Prometheus exporter
// (internal/obs) splits the suffix back apart and groups every series of one
// base name under a single metric family. Registration stays idempotent per
// full key, so hot paths may call Registry.Histogram(LabeledName(...)) per
// observation — after the first call it is one map lookup under the registry
// lock.

// LabeledName composes a registry key carrying label pairs:
// LabeledName("TenantQueryLatency", "tenant", "t1", "outcome", "ok") →
// `TenantQueryLatency{outcome="ok",tenant="t1"}`. Pairs are sorted by label
// key so every call order yields the same series. Values must already be
// sanitized (SanitizeLabelValue / LabelPool) — this function only composes.
func LabeledName(base string, kv ...string) string {
	if len(kv) < 2 {
		return base
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	for i := 1; i < len(pairs); i++ { // insertion sort: label sets are tiny
		for j := i; j > 0 && pairs[j].k < pairs[j-1].k; j-- {
			pairs[j], pairs[j-1] = pairs[j-1], pairs[j]
		}
	}
	var b strings.Builder
	b.Grow(len(base) + 16*len(pairs))
	b.WriteString(base)
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(p.v)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// SplitLabeledName splits a registry key back into base name and raw label
// suffix (without braces); labels is "" for unlabeled keys.
func SplitLabeledName(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 || !strings.HasSuffix(name, "}") {
		return name, ""
	}
	return name[:i], name[i+1 : len(name)-1]
}

// SanitizeLabelValue maps an arbitrary (possibly client-supplied) string
// into a safe label value: letters, digits, '_', '-', '.' pass through,
// everything else becomes '_'. Empty input becomes "_".
func SanitizeLabelValue(v string) string {
	if v == "" {
		return "_"
	}
	var b strings.Builder
	b.Grow(len(v))
	for _, r := range v {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '_', r == '-', r == '.':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// labelPoolMax is the number of distinct values a LabelPool admits.
const labelPoolMax = 16

// LabelPool bounds the cardinality of one client-controlled label: the first
// labelPoolMax distinct raw values map to their sanitized forms, every later
// value maps to "other". Without the bound, a tenant id is a client-supplied
// string and each new value mints a registry series — an unbounded-memory
// vector on a public front door.
type LabelPool struct {
	mu   sync.Mutex
	seen map[string]string
}

// NewLabelPool builds an empty pool.
func NewLabelPool() *LabelPool {
	return &LabelPool{seen: make(map[string]string, labelPoolMax)}
}

// Get returns the bounded sanitized label value for raw.
func (p *LabelPool) Get(raw string) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	if v, ok := p.seen[raw]; ok {
		return v
	}
	if len(p.seen) >= labelPoolMax {
		return "other"
	}
	v := SanitizeLabelValue(raw)
	p.seen[raw] = v
	return v
}
