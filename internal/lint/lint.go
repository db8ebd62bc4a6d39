// Package lint is robustdb's static-analysis framework: a small,
// standard-library-only analogue of golang.org/x/tools/go/analysis that
// enforces the engine invariants the compiler cannot see — device-heap
// balance, virtual-time determinism, surfaced errors, lock discipline,
// health-guarded GPU placement, and the request-path lifecycle rules behind
// the serving layer. The paper's robustness claims (never slower than
// CPU-only, clean recovery from aborts) rest on exactly these invariants;
// catching a violation at analysis time is cheaper than finding it in a
// chaos run.
//
// The framework is whole-program: Run assembles every loaded package into a
// Program — dependency-ordered packages, a CHA call graph, and a
// cross-package fact store — so analyzers come in three shapes:
//
//   - Run: intra-procedural, one package at a time (the original shape).
//   - Facts: a dependency-ordered pass that exports per-function summaries
//     ("this helper releases its reservation argument") other packages'
//     passes import — the interprocedural heapbalance extension.
//   - RunProgram: one pass over the whole Program with the call graph in
//     hand — ctxflow's request-path reachability and leakcheck's
//     goroutine-join search.
//
// Analyzers are table-registered in Analyzers; adding one is ~50 lines: a
// declaration with a Run (or RunProgram) func, plus a golden test fixture
// under testdata/src. The framework supplies package loading and type
// checking (load.go), `file:line:col` diagnostics, per-line
// `//lint:ignore <analyzer> <reason>` suppression with a staleness audit,
// and JSON output for tooling.
package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"io"
	"sort"
	"strings"
)

// Analyzer is one named invariant check. At least one of Run and RunProgram
// must be set; Facts is optional and runs before either.
type Analyzer struct {
	// Name is the identifier used on the command line and in
	// //lint:ignore directives.
	Name string
	// Doc is a one-line description of the guarded invariant.
	Doc string
	// Run executes the analyzer over one package (intra-procedural).
	Run func(*Pass)
	// Facts, when set, runs over every program package in dependency order
	// before any Run/RunProgram pass, exporting per-object summaries through
	// Pass.Prog. Facts passes must not report diagnostics.
	Facts func(*Pass)
	// RunProgram executes the analyzer once over the whole program
	// (interprocedural; the call graph and all facts are available).
	RunProgram func(*ProgramPass)
}

// Analyzers is the registry of all shipped analyzers, in reporting order.
// Future analyzers register here.
var Analyzers = []*Analyzer{
	HeapBalance,
	VirtualTime,
	ErrDrop,
	LockHold,
	PlacementGuard,
	KernelPar,
	WireStatus,
	CtxFlow,
	LeakCheck,
}

// ByName returns the registered analyzer with the given name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range Analyzers {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	// Prog is the whole-program view (always set by Run; analyzers degrade
	// to intra-procedural behavior when facts or graph edges are absent).
	Prog   *Program
	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ProgramPass carries the whole program through one interprocedural
// analyzer.
type ProgramPass struct {
	Analyzer *Analyzer
	Prog     *Program
	Fset     *token.FileSet
	report   func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *ProgramPass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one reported invariant violation.
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// String formats the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.File, d.Line, d.Col, d.Message, d.Analyzer)
}

// Options tunes a Run.
type Options struct {
	// NoStaleCheck disables the stale-suppression audit (a //lint:ignore
	// directive that suppresses nothing is normally itself a diagnostic).
	NoStaleCheck bool
}

// Run executes the analyzers over the packages with default options. See
// RunWith.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	return RunWith(pkgs, analyzers, Options{})
}

// RunWith assembles the packages into a Program, executes every fact pass in
// dependency order, then every per-package and whole-program pass, and
// returns the surviving diagnostics sorted by position. Diagnostics on a
// line carrying (or directly below) a matching //lint:ignore directive are
// suppressed; malformed directives, and directives that suppressed nothing
// while every analyzer they name was running (stale suppressions), are
// themselves reported.
func RunWith(pkgs []*Package, analyzers []*Analyzer, opts Options) []Diagnostic {
	prog := NewProgram(pkgs)
	ignores := ignoreSet{}
	var diags []Diagnostic
	for _, pkg := range prog.Packages {
		diags = append(diags, collectIgnores(pkg, ignores)...)
	}
	report := func(d Diagnostic) {
		if !ignores.suppress(d) {
			diags = append(diags, d)
		}
	}
	discard := func(Diagnostic) {}
	for _, a := range analyzers {
		if a.Facts == nil {
			continue
		}
		for _, pkg := range prog.Packages {
			a.Facts(&Pass{Analyzer: a, Pkg: pkg, Prog: prog, report: discard})
		}
	}
	for _, a := range analyzers {
		if a.Run != nil {
			for _, pkg := range prog.Packages {
				a.Run(&Pass{Analyzer: a, Pkg: pkg, Prog: prog, report: report})
			}
		}
		if a.RunProgram != nil {
			a.RunProgram(&ProgramPass{Analyzer: a, Prog: prog, Fset: fsetOf(prog), report: report})
		}
	}
	if !opts.NoStaleCheck {
		diags = append(diags, ignores.stale(analyzers)...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// fsetOf returns the program's shared file set (every loader shares one).
func fsetOf(prog *Program) *token.FileSet {
	for _, pkg := range prog.Packages {
		return pkg.Fset
	}
	return token.NewFileSet()
}

// WriteText prints diagnostics one per line in file:line:col form.
func WriteText(w io.Writer, diags []Diagnostic) {
	for _, d := range diags {
		fmt.Fprintln(w, d)
	}
}

// WriteJSON prints diagnostics as a JSON array.
func WriteJSON(w io.Writer, diags []Diagnostic) error {
	if diags == nil {
		diags = []Diagnostic{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(diags)
}

// ignoreDirective is one //lint:ignore comment: the analyzers it names and
// whether it suppressed at least one diagnostic this run.
type ignoreDirective struct {
	names []string
	file  string
	line  int
	col   int
	used  bool
}

// ignoreSet maps file → line → directives placed on that line.
type ignoreSet map[string]map[int][]*ignoreDirective

// suppress reports whether d is silenced by a directive on its own line or
// the line directly above (the two placements gofmt preserves), marking the
// matching directive as used for the staleness audit.
func (s ignoreSet) suppress(d Diagnostic) bool {
	lines := s[d.File]
	if lines == nil {
		return false
	}
	for _, line := range []int{d.Line, d.Line - 1} {
		for _, dir := range lines[line] {
			for _, name := range dir.names {
				if name == d.Analyzer || name == "all" {
					dir.used = true
					return true
				}
			}
		}
	}
	return false
}

// stale reports every directive that suppressed nothing even though each
// analyzer it names was running — the suppression ledger's honesty check: as
// analyzers improve (or the code under them gets fixed), an ignore without a
// matching finding is dead weight that would silently mask a future
// regression. Directives naming an analyzer outside the running set are
// skipped (a partial -enable run cannot judge them); "all" is judged only
// when the full registry ran.
func (s ignoreSet) stale(running []*Analyzer) []Diagnostic {
	names := map[string]bool{}
	for _, a := range running {
		names[a.Name] = true
	}
	full := len(running) == len(Analyzers)
	var diags []Diagnostic
	for _, lines := range s {
		for _, dirs := range lines {
			for _, dir := range dirs {
				if dir.used {
					continue
				}
				auditable := true
				for _, name := range dir.names {
					if name == "all" {
						auditable = auditable && full
					} else if !names[name] {
						auditable = false
					}
				}
				if !auditable {
					continue
				}
				diags = append(diags, Diagnostic{
					Analyzer: "lint",
					File:     dir.file,
					Line:     dir.line,
					Col:      dir.col,
					Message: fmt.Sprintf("stale //lint:ignore %s directive: it suppresses no diagnostic on this line",
						strings.Join(dir.names, ",")),
				})
			}
		}
	}
	return diags
}

const ignorePrefix = "lint:ignore"

// collectIgnores scans a package's comments for //lint:ignore directives,
// adding them to the set. A directive names one analyzer (or a comma list,
// or "all") and must give a reason; directives without a reason are reported
// as diagnostics so a suppression can never silently lose its justification.
func collectIgnores(pkg *Package, set ignoreSet) []Diagnostic {
	var bad []Diagnostic
	for _, f := range pkg.Files {
		for _, group := range f.Comments {
			for _, c := range group.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, ignorePrefix) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				fields := strings.Fields(strings.TrimPrefix(text, ignorePrefix))
				if len(fields) < 2 {
					bad = append(bad, Diagnostic{
						Analyzer: "lint",
						File:     pos.Filename,
						Line:     pos.Line,
						Col:      pos.Column,
						Message:  "malformed //lint:ignore directive: want `//lint:ignore <analyzer> <reason>`",
					})
					continue
				}
				lines := set[pos.Filename]
				if lines == nil {
					lines = map[int][]*ignoreDirective{}
					set[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], &ignoreDirective{
					names: strings.Split(fields[0], ","),
					file:  pos.Filename,
					line:  pos.Line,
					col:   pos.Column,
				})
			}
		}
	}
	return bad
}

// walkFiles applies fn to every file of the package.
func (p *Pass) walkFiles(fn func(*ast.File)) {
	for _, f := range p.Pkg.Files {
		fn(f)
	}
}
