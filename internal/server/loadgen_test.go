package server

import (
	"slices"
	"testing"
	"time"
)

// Quantiles is the one sample quantile of the loadgen report and the
// admission-overload figure: element ⌊q·(n−1)⌋ of the sorted sample.
func TestQuantiles(t *testing.T) {
	ms := func(vs ...int) []time.Duration {
		out := make([]time.Duration, len(vs))
		for i, v := range vs {
			out[i] = time.Duration(v) * time.Millisecond
		}
		return out
	}
	hundred := make([]int, 100)
	for i := range hundred {
		hundred[i] = 100 - i // 100 … 1, descending
	}
	cases := []struct {
		name     string
		samples  []time.Duration
		p50, p99 time.Duration
	}{
		{"empty", nil, 0, 0},
		{"one", ms(7), 7 * time.Millisecond, 7 * time.Millisecond},
		// n/2 would pick 3 ms, the upper of the middle two.
		{"even count takes the lower middle", ms(4, 1, 3, 2), 2 * time.Millisecond, 3 * time.Millisecond},
		{"p99 over 100 samples", ms(hundred...), 50 * time.Millisecond, 99 * time.Millisecond},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			before := slices.Clone(c.samples)
			p50, p99 := Quantiles(c.samples)
			if p50 != c.p50 || p99 != c.p99 {
				t.Errorf("Quantiles = (%v, %v), want (%v, %v)", p50, p99, c.p50, c.p99)
			}
			if !slices.Equal(c.samples, before) {
				t.Errorf("Quantiles reordered its input: %v, was %v", c.samples, before)
			}
		})
	}
}
