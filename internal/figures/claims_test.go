package figures

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/tiny.golden and the claim block of EXPERIMENTS.md")

// A claim is one of the paper's verdicts as a predicate over the series of
// figures_output.txt (DESIGN.md §28): check reports whether it holds and what
// it measured. fails is "" for a claim that holds, else the value it is known
// to fail at; why is the model limit of EXPERIMENTS.md, or "cause unverified".
// The rule: a comparison the paper states is strict; a factor it states holds
// at half of it or more; "often" means on at least half the queries.
type claim struct {
	fig, paper string
	check      func(figs) (bool, string)
	fails, why string
}

const gpuOp, ddc = "GPU (operator-driven)", "Data-Driven Chopping"

var claims = []claim{
	{"fig1", "Q3.3 at SF 20: the hot-cache GPU is ≈ 2.5× faster than the CPU", factor(2.5, pt{"fig1", "time", "CPU"}, pt{"fig1", "time", "GPU (hot cache)"}), "", ""},
	{"fig1", "Q3.3 at SF 20: the cold-cache GPU is > 3× slower than the CPU", factor(3, pt{"fig1", "time", "GPU (cold cache)"}, pt{"fig1", "time", "CPU"}), "", ""},
	{"fig2", "the serial selection workload degrades 24× once its working set exceeds the cache", spread("fig2", gpuOp, 24), "", ""},
	{"fig3", "the parallel selection workload degrades up to 6× past ≈ 7 users", spread("fig3", gpuOp, 6), "220.3 / 187.7 ms = 1.17×", "model limit 1"},
	{"fig5", "data-driven placement removes the cliff: time improves with every cached column", func(g figs) (bool, string) {
		y := g.y("fig5", "Data-Driven")[:g.at("fig5", "1.000")+1]
		n := len(y) - 1
		return above(y[:n], y[1:]) == n, fmt.Sprintf("%s → %s ms, faster at %d of %d steps to a full cache", formatY(y[0]), formatY(y[n]), above(y[:n], y[1:]), n)
	}, "", ""},
	{"fig6", "data-driven placement transfers nothing", func(g figs) (bool, string) {
		return slices.Max(g.y("fig6", "Data-Driven")) == 0, "at most " + formatY(slices.Max(g.y("fig6", "Data-Driven"))) + " ms at any cache size"
	}, "", ""},
	{"fig6", "the Figure 2 degradation is transfer time: operator-driven placement transfers until the working set fits", func(g figs) (bool, string) {
		y, full := g.y("fig6", "operator-driven"), g.at("fig6", "1.000")
		return slices.Min(y[:full]) > 0 && slices.Max(y[full:]) == 0, fmt.Sprintf("%s ms below the working set, %s from it on", span(y[:full]), span(y[full:]))
	}, "", ""},
	{"fig7", "data-driven placement does not fix heap contention: Figure 3's curve", func(g figs) (bool, string) {
		same := slices.Equal(g.y("fig7", "Data-Driven"), g.y("fig3", gpuOp))
		return same, fmt.Sprintf("equal to Figure 3 at every user count: %t", same)
	}, "", ""},
	{"fig9", "run-time placement halves the contention penalty", func(g figs) (bool, string) {
		naive, rt := g.y("fig3", gpuOp), g.y("fig9", "Run-Time")
		pn, pr := naive[len(naive)-1]-naive[0], max(rt[len(rt)-1]-rt[0], 0)
		return pn/pr >= 2.0/2, fmt.Sprintf("20 users over 1: naive +%s / run-time +%s ms = %s", formatY(pn), formatY(pr), times(pn/pr))
	}, "", ""},
	{"fig9", "… but run-time placement stays ≈ 2× off optimal (Chopping, Fig 12)", factor(2, pt{"fig9", "Run-Time", "20"}, pt{"fig12", "Chopping", "20"}), "", ""},
	{"fig12", "chopping is near optimal at every user count", func(g figs) (bool, string) {
		k := g.at("fig12", "8")
		naive, chop, dd := g.y("fig3", gpuOp)[k:], g.y("fig12", "Chopping")[k:], g.y("fig12", ddc)[k:]
		return above(naive, chop)+above(naive, dd) == 2*len(naive), fmt.Sprintf("past the knee (8–20 users) Chopping %s, DDC %s, naive GPU %s ms", span(chop), span(dd), span(naive))
	}, "", ""},
	{"fig13", "aborts: compile-time ≫ run-time ≫ chopping (≈ 0)", func(g figs) (bool, string) {
		ct, rt, ch := g.pt(pt{"fig13", "GPU (compile-time)", "20"}), g.pt(pt{"fig13", "Run-Time", "20"}), slices.Max(g.y("fig13", "Chopping"))
		return ct > rt && rt > 0 && ch == 0, fmt.Sprintf("%g > %g at 20 users; Chopping at most %g", ct, rt, ch)
	}, "", ""},
	{"fig13", "operators abort past ≈ 7 users, where the selections' footprints exceed the heap", func(g figs) (bool, string) {
		ct, k := g.y("fig13", "GPU (compile-time)"), g.at("fig13", "8")
		return slices.Max(ct[:k]) == 0 && slices.Min(ct[k:]) > 0, fmt.Sprintf("compile-time: %g aborts up to 7 users, %g–%g from 8", slices.Max(ct[:k]), slices.Min(ct[k:]), slices.Max(ct[k:]))
	}, "", ""},
	{"fig14", "SSBM: GPU-only breaks down past SF 15", crosses("fig14a", "GPU Only", "CPU Only", "15", "25"), "", ""},
	{"fig14", "TPC-H: GPU-only breaks down past SF 15", crosses("fig14b", "GPU Only", "CPU Only", "15", "25"), "", ""},
	{"fig14", "Data-Driven can be slower than CPU-only", func(g figs) (bool, string) {
		a := steps("SSBM SF ", g["fig14a"].X, g.y("fig14a", "Data-Driven"), g.y("fig14a", "CPU Only"))
		b := steps("TPC-H SF ", g["fig14b"].X, g.y("fig14b", "Data-Driven"), g.y("fig14b", "CPU Only"))
		return len(a) > 0 && len(b) > 0, "slower at " + strings.Join(append(a, b...), ", ")
	}, "", ""},
	{"fig14", "Data-Driven Chopping is never slower than CPU-only (the paper's definition of robust)", func(g figs) (bool, string) {
		bad := append(steps("SSBM SF ", g["fig14a"].X, g.y("fig14a", ddc), g.y("fig14a", "CPU Only")),
			steps("TPC-H SF ", g["fig14b"].X, g.y("fig14b", ddc), g.y("fig14b", "CPU Only"))...)
		return len(bad) == 0, "slower at " + strings.Join(bad, ", ")
	}, "slower at SSBM SF 25 (1.002×), SSBM SF 30 (1.002×), TPC-H SF 1 (1.138×), TPC-H SF 30 (1.004×)", "cause unverified"},
	{"fig15", "Data-Driven Chopping moves nothing CPU→GPU: 0 at every SF", func(g figs) (bool, string) {
		most := slices.Max(slices.Concat(g.y("fig15a", ddc), g.y("fig15b", ddc)))
		return most == 0, "at most " + formatY(most) + " ms at any SF, both benchmarks"
	}, "", ""},
	{"fig15", "plain Chopping still thrashes past the cache knee", func(g figs) (bool, string) {
		a0, a1 := g.pt(pt{"fig15a", "Chopping", "15"}), g.pt(pt{"fig15a", "Chopping", "30"})
		b0, b1 := g.pt(pt{"fig15b", "Chopping", "15"}), g.pt(pt{"fig15b", "Chopping", "30"})
		return a1 > a0 && b1 > b0, fmt.Sprintf("Chopping from SF 15 to 30: SSBM %s → %s ms, TPC-H %s → %s ms", formatY(a0), formatY(a1), formatY(b0), formatY(b1))
	}, "", ""},
	{"fig16", "SSBM: the workload footprint crosses the data cache at SF 15, Figure 14's knee", crosses("fig16", "SSBM", "SSBM cache", "10", "20"), "", ""},
	{"fig16", "TPC-H: the same", crosses("fig16", "TPC-H", "TPC-H cache", "10", "20"), "", ""},
	{"fig17", "at SF 30 GPU-only slows every query", count("fig17", "GPU Only", "CPU Only", func(n, all int) bool { return n == all }), "", ""},
	{"fig17", "at SF 30 Data-Driven Chopping accelerates selective queries up to 2.5×", func(g figs) (bool, string) {
		r, i := best(g.y("fig17", "CPU Only"), g.y("fig17", ddc))
		return r >= 2.5/2, fmt.Sprintf("best CPU Only/DDC %s (%s)", times(r), g["fig17"].X[i])
	}, "best CPU Only/DDC 1.00× (Q2.1)", "model limit 2"},
	{"fig18", "SSBM: parallel users degrade naive GPU execution ~1.24×", factor(1.24, pt{"fig18a", "GPU Only", "20"}, pt{"fig18a", "GPU Only", "1"}), "", ""},
	{"fig18", "TPC-H: parallel users degrade naive GPU execution 1.85×", factor(1.85, pt{"fig18b", "GPU Only", "20"}, pt{"fig18b", "GPU Only", "1"}), "", ""},
	{"fig18", "SSBM: at 20 users Data-Driven Chopping beats GPU-only by 1.36×", factor(1.36, pt{"fig18a", "GPU Only", "20"}, pt{"fig18a", ddc, "20"}), "", ""},
	{"fig18", "TPC-H: at 20 users Data-Driven Chopping beats GPU-only by 1.66×", factor(1.66, pt{"fig18b", "GPU Only", "20"}, pt{"fig18b", ddc, "20"}), "", ""},
	{"fig19", "SSBM: chopping cuts CPU→GPU transfers at 20 users, up to 48× for Data-Driven Chopping", factor(48, pt{"fig19a", "GPU Only", "20"}, pt{"fig19a", ddc, "20"}), "", ""},
	{"fig19", "TPC-H: the same", factor(48, pt{"fig19b", "GPU Only", "20"}, pt{"fig19b", ddc, "20"}), "", ""},
	{"fig20", "wasted time grows with users and can exceed the workload time", func(g figs) (bool, string) {
		w0, w, t := g.pt(pt{"fig20", "GPU Only", "1"}), g.pt(pt{"fig20", "GPU Only", "20"}), g.pt(pt{"fig18a", "GPU Only", "20"})
		return w > w0 && w > t, fmt.Sprintf("GPU Only %s → %s ms from 1 to 20 users; its workload time %s ms (Fig 18a)", formatY(w0), formatY(w), formatY(t))
	}, "", ""},
	{"fig20", "chopping cuts the wasted time by up to 74× (GPU-only over Data-Driven Chopping at 20 users)", factor(74, pt{"fig20", "GPU Only", "20"}, pt{"fig20", ddc, "20"}),
		"204.5 / 28.1 ms = 7.28×", "model limit 1"},
	{"fig21", "admission control raises latencies", count("fig21", "GPU+Admission", "GPU Only", func(n, all int) bool { return n == all }),
		"GPU+Admission above GPU Only on 2 of 9", "cause unverified"},
	{"fig21", "chopping is at least as fast as GPU-only, up to 1.4× faster", func(g figs) (bool, string) {
		chop, gpu := g.y("fig21", "Chopping"), g.y("fig21", "GPU Only")
		r, _ := best(gpu, chop)
		return above(chop, gpu) == 0 && r >= 1.4/2, fmt.Sprintf("slower on %d of %d queries, up to %s faster", above(chop, gpu), len(gpu), times(r))
	}, "slower on 5 of 9 queries, up to 1.78× faster", "cause unverified"},
	{"fig21", "Data-Driven Chopping is up to 3.6× faster on selective queries; some queries get slower", func(g figs) (bool, string) {
		dd, gpu := g.y("fig21", ddc), g.y("fig21", "GPU Only")
		r, i := best(gpu, dd)
		return r >= 3.6/2 && above(dd, gpu) > 0, fmt.Sprintf("up to %s faster than GPU Only (%s), slower on %d of %d", times(r), g["fig21"].X[i], above(dd, gpu), len(gpu))
	}, "", ""},
	{"fig22", "TPC-H: CoGaDB competitive with Ocelot on the CPU, each faster on some queries", count("fig22", "Ocelot* CPU", "CoGaDB CPU", func(n, all int) bool { return n > 0 && n < all }), "", ""},
	{"fig22", "TPC-H: the same on the GPU", count("fig22", "Ocelot* GPU", "CoGaDB GPU", func(n, all int) bool { return n > 0 && n < all }), "", ""},
	{"fig23", "SSB: Ocelot's CPU backend is often faster", count("fig23", "CoGaDB CPU", "Ocelot* CPU", func(n, all int) bool { return 2*n >= all }),
		"CoGaDB CPU above Ocelot* CPU on 2 of 12", "cause unverified"},
	{"fig23", "SSB: CoGaDB's GPU backend is strong", count("fig23", "Ocelot* GPU", "CoGaDB GPU", func(n, all int) bool { return n == all }), "", ""},
	{"fig24", "LFU ≈ LRU; LFU slightly better in corner cases", func(g figs) (bool, string) {
		lfu, lru := g.y("fig24", "LFU"), g.y("fig24", "LRU")
		return above(lfu, lru) == 0 && above(lru, lfu) > 0, fmt.Sprintf("LFU slower at %d, faster at %d of %d cache sizes", above(lfu, lru), above(lru, lfu), len(lfu))
	}, "", ""},
	{"fig24", "time improves as the cache grows, no slowdown with a tiny cache", func(g figs) (bool, string) {
		lfu, lru, x := g.y("fig24", "LFU"), g.y("fig24", "LRU"), g["fig24"].X[1:]
		bad := append(steps("LFU ", x, lfu[1:], lfu), steps("LRU ", x, lru[1:], lru)...)
		return len(bad) == 0, "slower at " + strings.Join(bad, ", ")
	}, "slower at LFU 20% (1.006×), LFU 100% (1.061×), LRU 20% (1.006×), LRU 80% (1.120×)", "cause unverified"},
	{"fig25", "latencies grow with the user count; long-running queries (flight 4) grow most", func(g figs) (bool, string) {
		f, means, grow := g["fig25"], []float64{}, slices.Clone(g.y("fig25", "20 users"))
		for _, s := range f.Series {
			m := 0.0
			for _, y := range s.Y {
				m += y / float64(len(s.Y))
			}
			means = append(means, m)
		}
		for i, y := range g.y("fig25", "1 users") {
			grow[i] -= y
		}
		i := slices.Index(grow, slices.Max(grow))
		return above(means[1:], means) == len(means)-1 && strings.HasPrefix(f.X[i], "Q4."),
			fmt.Sprintf("mean %s ms at 1, 5, 10, 20 users; most growth %s (+%s ms)", strings.Join(format("%.3g", means...), ", "), f.X[i], formatY(grow[i]))
	}, "", ""},
	{"ablate-abortsync", "DESIGN.md §4: the abort stall drives the contention magnitude, not the strategy ordering", func(g figs) (bool, string) {
		naive, chop := g.y("ablate-abortsync", "GPU Only"), g.y("ablate-abortsync", "Chopping")
		n := len(naive) - 1
		return above(naive[1:], naive) == n && above(naive, chop) == n+1 && slices.Min(chop) == slices.Max(chop),
			fmt.Sprintf("GPU Only %s ms as the stall grows 0 → 5 ms; Chopping %s ms", strings.Join(format("%.1f", naive...), ", "), span(chop))
	}, "", ""},
	{"ablate-compression", "§6.3: compression shifts the GPU-only breakdown to larger scale factors", func(g figs) (bool, string) {
		sf := append(slices.Clone(g["ablate-compression"].X), "none")
		raw, packed := breakdown(g, "GPU Only (raw)"), breakdown(g, "GPU Only (bit-packed)")
		return raw < len(sf)-1 && packed > raw, fmt.Sprintf("time grows faster than the data from SF %s raw, %s bit-packed (to SF 30)", sf[raw], sf[packed])
	}, "", ""},
	{"ablate-faultrate", "Data-Driven Chopping degrades gracefully towards the CPU-only line instead of collapsing", func(g figs) (bool, string) {
		bad := steps("", g["ablate-faultrate"].X, g.y("ablate-faultrate", ddc), g.y("ablate-faultrate", "CPU Only"))
		return len(bad) == 0, fmt.Sprintf("DDC %s ms, CPU Only %s ms; slower at %d rates", span(g.y("ablate-faultrate", ddc)), span(g.y("ablate-faultrate", "CPU Only")), len(bad))
	}, "", ""},
	{"ablate-overlap", "DESIGN.md §16: double-buffering hides the transfer stage, one in-flight chunk does not; coarse chunks cap the win; CPU co-execution adds to it", func(g figs) (bool, string) {
		y, co, coarse := g.y("ablate-overlap", "pipelined (learner-sized chunks)"), g.y("ablate-overlap", "pipelined + CPU co-exec"), g.y("ablate-overlap", "pipelined (2 half-table chunks)")
		return y[2] < y[0] && y[1] >= y[0] && coarse[2] > y[2] && above(y[1:], co[1:]) == len(co)-1,
			fmt.Sprintf("serial %s, depth 1 %s, depth 2 %s ms; 2 half-table chunks %s ms at depth 2; co-exec %s ms at depth 1–8", formatY(y[0]), formatY(y[1]), formatY(y[2]), formatY(coarse[2]), span(co[1:]))
	}, "", ""},
	{"ablate-poolsize", "§5.2: a small thread pool is enough; no bound recreates contention", func(g figs) (bool, string) {
		t2, tu := g.pt(pt{"ablate-poolsize", "workload time", "2"}), g.pt(pt{"ablate-poolsize", "workload time", "unbounded"})
		a2, au := g.pt(pt{"ablate-poolsize", "aborts", "2"}), g.pt(pt{"ablate-poolsize", "aborts", "unbounded"})
		return t2 < tu && a2 < au, fmt.Sprintf("2 workers %s ms, %g aborts; unbounded %s ms, %g aborts", formatY(t2), a2, formatY(tu), au)
	}, "", ""},
}

// TestClaims evaluates every claim over figures_output.txt, the golden CI
// regenerates byte for byte, and holds EXPERIMENTS.md's verdict table to the
// result: a re-pin that flips a verdict either way, or moves a known-failing
// value, fails here naming the row.
func TestClaims(t *testing.T) {
	text, err := os.ReadFile("../../figures_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	g := figs{}
	for _, f := range parse(string(text)) {
		g[f.ID] = f
	}
	table := "| # | Fig | Paper says | Measured here | Verdict |\n|---|---|---|---|---|\n"
	covered := map[string]bool{"admission-overload": true}
	for i, c := range claims {
		ok, got := c.check(g)
		verdict := "✅"
		if c.fails != "" {
			verdict = "⚠️ fails (" + c.why + ")"
		}
		if ok != (c.fails == "") || !ok && got != c.fails {
			t.Errorf("row %d (%s, %q): holds=%t at %q; recorded to fail at %q (empty: to hold)", i+1, c.fig, c.paper, ok, got, c.fails)
		}
		table += fmt.Sprintf("| %d | %s | %s | %s | %s |\n", i+1, strings.TrimPrefix(c.fig, "fig"), c.paper, got, verdict)
		covered[c.fig] = true
	}
	for _, id := range IDs() {
		if !covered[id] {
			t.Errorf("%s has no claim row", id)
		}
	}
	const begin, end = "<!-- claims: generated by TestClaims (internal/figures); rewrite with -update-golden -->\n", "<!-- /claims -->"
	doc, _ := os.ReadFile("../../EXPERIMENTS.md")
	pre, rest, ok1 := strings.Cut(string(doc), begin)
	_, post, ok2 := strings.Cut(rest, end)
	if !ok1 || !ok2 {
		t.Fatalf("EXPERIMENTS.md has no claim block between %q and %q", begin, end)
	}
	checkFile(t, "../../EXPERIMENTS.md", pre+begin+table+end+post)
}

// TestTinyGolden pins every figure but admission-overload (its clients race
// real goroutines) at a toy scale, built concurrently; parse → Render must
// reproduce the golden, which TestClaims relies on to read figures_output.txt.
func TestTinyGolden(t *testing.T) {
	outs := make([]string, len(experiments))
	var wg sync.WaitGroup
	for i, e := range experiments {
		if e.id != "admission-overload" {
			wg.Add(1)
			go func() {
				defer wg.Done()
				outs[i] = render(e.build(Options{RowsPerSF: 1500, Reps: 1, Seed: 1}))
			}()
		}
	}
	wg.Wait()
	got := strings.Join(outs, "")
	checkFile(t, "testdata/tiny.golden", got)
	if render(parse(got)) != got {
		t.Error("parse → Render does not reproduce tiny.golden")
	}
}

// render writes figures the way the goldens hold them: a blank line after each.
func render(figs []*Figure) string {
	var b strings.Builder
	for _, f := range figs {
		f.Render(&b)
		b.WriteString("\n")
	}
	return b.String()
}

// columns splits a row: Render puts ≥ 2 spaces between columns, never inside.
var columns = regexp.MustCompile(` {2,}`)

// parse is the inverse of Render over figures each ended by a blank line; it
// skips lines outside a figure (benchfig's timing lines), panics on bad rows.
func parse(text string) []*Figure {
	var figs []*Figure
	lines := strings.Split(text, "\n")
	for i := 0; i+2 < len(lines); i++ {
		head, ok := strings.CutPrefix(lines[i], "== ")
		if !ok {
			continue
		}
		id, title, _ := strings.Cut(strings.TrimSuffix(head, " =="), ": ")
		header := columns.Split(lines[i+2], -1)
		f := &Figure{ID: id, Title: title, XLabel: header[0], YLabel: strings.TrimPrefix(lines[i+1], "   y: ")}
		for _, label := range header[1:] {
			f.Series = append(f.Series, Series{Label: label})
		}
		for i += 3; i < len(lines) && lines[i] != ""; i++ {
			cells := columns.Split(lines[i], -1)
			if len(cells) != len(header) {
				panic(fmt.Sprintf("%s: row %q has %d columns, the header %d", id, lines[i], len(cells), len(header)))
			}
			f.X = append(f.X, cells[0])
			for j, c := range cells[1:] {
				y, err := strconv.ParseFloat(c, 64)
				if err != nil {
					panic(fmt.Sprintf("%s: %v", id, err))
				}
				f.Series[j].Y = append(f.Series[j].Y, y)
			}
		}
		figs = append(figs, f)
	}
	return figs
}

// checkFile compares want with the file at path, or writes it under -update-golden.
func checkFile(t *testing.T, path, want string) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
			t.Fatal(err)
		}
	} else if have, err := os.ReadFile(path); err != nil || string(have) != want {
		t.Errorf("%s is not what the code produces (%v): %s; if intended, rewrite it with -update-golden", path, err, firstDiff(string(have), want))
	}
}

// firstDiff quotes the first line at which have and want differ.
func firstDiff(have, want string) string {
	h, w, i := strings.Split(have, "\n"), strings.Split(want, "\n"), 0
	for i+1 < min(len(h), len(w)) && h[i] == w[i] {
		i++
	}
	return fmt.Sprintf("line %d is %q, want %q", i+1, h[i], w[i])
}

type figs map[string]*Figure

func (g figs) y(id, label string) []float64 {
	if f := g[id]; f != nil {
		for _, s := range f.Series {
			if s.Label == label {
				return s.Y
			}
		}
	}
	panic(fmt.Sprintf("no series %q in %s", label, id))
}

func (g figs) at(id, x string) int {
	if i := slices.Index(g[id].X, x); i >= 0 {
		return i
	}
	panic(fmt.Sprintf("no x %q in %s", x, id))
}

// pt is one plotted value: figure id, series label, x.
type pt struct{ id, label, x string }

func (g figs) pt(p pt) float64 { return g.y(p.id, p.label)[g.at(p.id, p.x)] }

func times(r float64) string { return strings.Replace(fmt.Sprintf("%.2f×", r), "+Inf", "∞", 1) }

// span is "lo–hi" of the values, or the one value they all have.
func span(ys []float64) string {
	if lo, hi := slices.Min(ys), slices.Max(ys); lo != hi {
		return formatY(lo) + "–" + formatY(hi)
	}
	return formatY(ys[0])
}

func above(a, b []float64) (n int) {
	for i := range a {
		if a[i] > b[i] {
			n++
		}
	}
	return n
}

// best is the largest ratio num/den over the positions, and where.
func best(num, den []float64) (r float64, at int) {
	for i := range num {
		if i == 0 || num[i]/den[i] > r {
			r, at = num[i]/den[i], i
		}
	}
	return r, at
}

// factor is the claim that num/den reaches the paper's factor by the rule.
func factor(paper float64, num, den pt) func(figs) (bool, string) {
	return func(g figs) (bool, string) {
		a, b := g.pt(num), g.pt(den)
		return a/b >= paper/2, fmt.Sprintf("%s / %s ms = %s", formatY(a), formatY(b), times(a/b))
	}
}

// spread: a series degrades by the paper's factor, its worst over its best.
func spread(id, label string, paper float64) func(figs) (bool, string) {
	return func(g figs) (bool, string) {
		y := g.y(id, label)
		return factor(paper, pt{id, label, g[id].X[slices.Index(y, slices.Max(y))]}, pt{id, label, g[id].X[slices.Index(y, slices.Min(y))]})(g)
	}
}

// count: ok holds of the number of figure id's x values where a is above b.
func count(id, a, b string, ok func(n, all int) bool) func(figs) (bool, string) {
	return func(g figs) (bool, string) {
		n, all := above(g.y(id, a), g.y(id, b)), len(g[id].X)
		return ok(n, all), fmt.Sprintf("%s above %s on %d of %d", a, b, n, all)
	}
}

// crosses: series a of figure id is below b at x, above it from after on.
func crosses(id, a, b, x, after string) func(figs) (bool, string) {
	return func(g figs) (bool, string) {
		ya, yb, i, j := g.y(id, a), g.y(id, b), g.at(id, x), g.at(id, after)
		rs := []string{}
		for k := j; k < len(ya); k++ {
			rs = append(rs, times(ya[k]/yb[k]))
		}
		return ya[i] < yb[i] && above(ya[j:], yb[j:]) == len(ya)-j,
			fmt.Sprintf("%s over %s: %s at %s, %s from %s on", a, b, times(ya[i]/yb[i]), x, strings.Join(rs, ", "), after)
	}
}

// steps lists the x values at which a is above b, with the ratio.
func steps(prefix string, xs []string, a, b []float64) []string {
	var out []string
	for i, x := range xs {
		if a[i] > b[i] {
			out = append(out, fmt.Sprintf("%s%s (%.3f×)", prefix, x, a[i]/b[i]))
		}
	}
	return out
}

// breakdown is the index of the first scale factor of the compression
// ablation at which the series grows faster than the data does, or len(X).
func breakdown(g figs, label string) int {
	xs, y := g["ablate-compression"].X, g.y("ablate-compression", label)
	for i := 1; i < len(y); i++ {
		sf0, _ := strconv.ParseFloat(xs[i-1], 64)
		sf1, _ := strconv.ParseFloat(xs[i], 64)
		if y[i]/y[i-1] > sf1/sf0 {
			return i
		}
	}
	return len(xs)
}
