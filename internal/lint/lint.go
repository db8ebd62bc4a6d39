// Package lint is robustdb's static-analysis framework: a small,
// standard-library-only analogue of golang.org/x/tools/go/analysis that
// enforces the invariants neither the compiler, go vet, the race detector
// nor the test suite can see — virtual-time determinism, surfaced errors,
// pool-bounded kernel goroutines, and the request-path lifecycle rules behind
// the serving layer (context threading, goroutine joins). An analyzer is kept
// only while it flags a seeded defect everything else passes (DESIGN.md §25
// has the table); what a running test already fails on is left to that test.
//
// The framework is whole-program: Run assembles every loaded package into a
// Program — the packages and a CHA call graph over them — so analyzers come
// in two shapes:
//
//   - Run: intra-procedural, one package at a time.
//   - RunProgram: one pass over the whole Program with the call graph in
//     hand — ctxflow's request-path reachability and leakcheck's
//     goroutine-join search.
//
// Analyzers are table-registered in Analyzers; adding one is ~50 lines: a
// declaration with a Run (or RunProgram) func, plus a golden test fixture
// under testdata/src. The framework supplies package loading and type
// checking (load.go), `file:line:col` diagnostics, and per-line
// `//lint:ignore <analyzer> <reason>` suppression, audited on every run.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"io"
	"sort"
	"strings"
)

// Analyzer is one named invariant check. At least one of Run and RunProgram
// must be set.
type Analyzer struct {
	// Name is the identifier diagnostics carry and //lint:ignore directives
	// name.
	Name string
	// Doc is a one-line description of the guarded invariant.
	Doc string
	// Run executes the analyzer over one package (intra-procedural).
	Run func(*Pass)
	// RunProgram executes the analyzer once over the whole program
	// (interprocedural; the call graph is available).
	RunProgram func(*ProgramPass)
}

// Analyzers is the registry of all shipped analyzers, in reporting order.
// Future analyzers register here.
var Analyzers = []*Analyzer{
	VirtualTime,
	ErrDrop,
	KernelPar,
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
	report   func(Diagnostic)
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
	Analyzer string
	File     string
	Line     int
	Col      int
	Message  string
}

// String formats the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.File, d.Line, d.Col, d.Message, d.Analyzer)
}

// Run assembles the packages into a Program, executes every analyzer's
// per-package and whole-program pass, and returns the surviving diagnostics
// sorted by position. Diagnostics on a line carrying (or directly below) a
// matching //lint:ignore directive are suppressed; a directive that is
// malformed, names no registered analyzer, or suppressed nothing is itself
// reported.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
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
	for _, a := range analyzers {
		if a.Run != nil {
			for _, pkg := range prog.Packages {
				a.Run(&Pass{Analyzer: a, Pkg: pkg, report: report})
			}
		}
		if a.RunProgram != nil {
			a.RunProgram(&ProgramPass{Analyzer: a, Prog: prog, Fset: fsetOf(prog), report: report})
		}
	}
	diags = append(diags, ignores.stale()...)
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

// stale reports every directive that suppressed nothing — the suppression
// ledger's honesty check: as analyzers improve (or the code under them gets
// fixed), an ignore without a matching finding is dead weight that would
// silently mask a future regression.
func (s ignoreSet) stale() []Diagnostic {
	var diags []Diagnostic
	for _, lines := range s {
		for _, dirs := range lines {
			for _, dir := range dirs {
				if dir.used {
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
// adding them to the set. A directive names one registered analyzer (or a
// comma list, or "all") and must give a reason; a directive without a reason,
// or naming an analyzer that does not exist (a typo, or one since deleted),
// is reported and suppresses nothing, so a suppression can never silently
// lose its justification or its target.
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
				names, problem := parseDirective(strings.Fields(strings.TrimPrefix(text, ignorePrefix)))
				if problem != "" {
					bad = append(bad, Diagnostic{
						Analyzer: "lint",
						File:     pos.Filename,
						Line:     pos.Line,
						Col:      pos.Column,
						Message:  problem,
					})
					continue
				}
				lines := set[pos.Filename]
				if lines == nil {
					lines = map[int][]*ignoreDirective{}
					set[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], &ignoreDirective{
					names: names,
					file:  pos.Filename,
					line:  pos.Line,
					col:   pos.Column,
				})
			}
		}
	}
	return bad
}

// parseDirective returns the analyzers a directive's fields name, or what is
// wrong with the directive.
func parseDirective(fields []string) (names []string, problem string) {
	if len(fields) < 2 {
		return nil, "malformed //lint:ignore directive: want `//lint:ignore <analyzer> <reason>`"
	}
	names = strings.Split(fields[0], ",")
	for _, name := range names {
		if name != "all" && ByName(name) == nil {
			return nil, fmt.Sprintf("//lint:ignore names unknown analyzer %q: it can suppress nothing", name)
		}
	}
	return names, ""
}

// walkFiles applies fn to every file of the package.
func (p *Pass) walkFiles(fn func(*ast.File)) {
	for _, f := range p.Pkg.Files {
		fn(f)
	}
}
