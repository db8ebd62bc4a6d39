package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ErrDrop enforces the surfaced-error invariant of the robustness work: in
// the engine and execution paths an error return is a signal the degradation
// ladder reacts to, so discarding one with `_ =` or a bare call hides a
// failure the way the pre-PR-1 Metrics.CatalogErrors bug did. The walk
// covers every statement position an error can vanish from — expression
// statements, assignments that bind it to `_` (alone or beside a kept value,
// inside goroutine closures too), `defer f()`, and `go f()`. Errors must be
// handled, propagated, or counted (NoteCatalogError / NotePreloadError); a
// deliberate drop needs a //lint:ignore errdrop with its justification, and
// `defer x.Close()` is exempt as the one conventional cleanup idiom.
var ErrDrop = &Analyzer{
	Name: "errdrop",
	Doc:  "forbid discarded error returns (`_ =`, bare, deferred, and go-spawned calls) in engine paths",
	Run:  runErrDrop,
}

// errDropExemptPkg reports whether the package is a presentation layer the
// invariant does not cover: commands and figure/diagnostic renderers print
// for humans, and the engine never consumes their output. Engine and
// execution paths (everything else, including golden-test fixture packages)
// are enforced.
func errDropExemptPkg(path string) bool {
	return strings.Contains(path, "/cmd/") ||
		strings.HasSuffix(path, "/figures") ||
		strings.HasSuffix(path, "/lint")
}

func runErrDrop(p *Pass) {
	for _, pkg := range p.Prog.Packages {
		if errDropExemptPkg(pkg.Path) {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				checkErrDrop(p, pkg.Info, n)
				return true
			})
		}
	}
}

// checkErrDrop reports the statement n if it loses an error.
func checkErrDrop(p *Pass, info *types.Info, n ast.Node) {
	switch s := n.(type) {
	case *ast.ExprStmt:
		call, ok := ast.Unparen(s.X).(*ast.CallExpr)
		if ok && resultsError(info, call) && !errDropExempt(info, call) {
			p.Reportf(s.Pos(), "error return of %s is silently discarded; handle, propagate, or count it", calleeName(info, call))
		}
	case *ast.DeferStmt:
		// A deferred call is not an ExprStmt, so it used to slip past the
		// walk — yet its error is just as lost. `defer x.Close()` (a
		// no-argument Close method) is the one conventional exception:
		// deferred cleanup of a resource whose close failure has no
		// remediation.
		if resultsError(info, s.Call) && !errDropExempt(info, s.Call) && !isDeferredClose(info, s.Call) {
			p.Reportf(s.Pos(), "error return of deferred %s call is silently discarded; wrap it in a closure that handles or counts it", calleeName(info, s.Call))
		}
	case *ast.GoStmt:
		// Same blind spot for go statements: an error returned by the
		// goroutine's entry call has no receiver at all.
		if resultsError(info, s.Call) && !errDropExempt(info, s.Call) {
			p.Reportf(s.Pos(), "error return of %s is unobservable from a go statement; run it in a closure that handles or counts the error", calleeName(info, s.Call))
		}
	case *ast.AssignStmt:
		if blanksError(info, s) {
			p.Reportf(s.Pos(), "error assigned to _; handle, propagate, or count it")
		}
	}
}

// errDropExempt lists callees whose error results are conventionally
// ignorable: terminal output via fmt.Print*, and the never-failing Write
// methods of strings.Builder and bytes.Buffer.
func errDropExempt(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil {
		return false
	}
	if isPkgFunc(fn, "fmt", "Print") || isPkgFunc(fn, "fmt", "Printf") || isPkgFunc(fn, "fmt", "Println") {
		return true
	}
	for _, recv := range [][2]string{{"strings", "Builder"}, {"bytes", "Buffer"}} {
		if pkg, typ, ok := receiverOf(fn); ok && pkg == recv[0] && typ == recv[1] {
			return true
		}
	}
	return false
}

// isDeferredClose reports whether call is a no-argument Close() method call
// — the io.Closer cleanup idiom whose deferred error drop is conventional
// (`defer resp.Body.Close()`).
func isDeferredClose(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Name() != "Close" || len(call.Args) != 0 {
		return false
	}
	sig, _ := fn.Type().(*types.Signature)
	return sig != nil && sig.Recv() != nil
}

func calleeName(info *types.Info, call *ast.CallExpr) string {
	if fn := calleeFunc(info, call); fn != nil {
		return fn.Name()
	}
	return "call"
}

// blanksError reports whether the assignment binds an error to the blank
// identifier, beside named results (`v, _ := f()`) as much as alone.
func blanksError(info *types.Info, s *ast.AssignStmt) bool {
	if len(s.Lhs) > 1 && len(s.Rhs) == 1 {
		// One call spread over several names: the error is the result in a
		// blank's position. (A comma-ok form yields no error.)
		call, _ := ast.Unparen(s.Rhs[0]).(*ast.CallExpr)
		if call == nil || errDropExempt(info, call) {
			return false
		}
		results, _ := info.Types[call].Type.(*types.Tuple)
		for i, lhs := range s.Lhs {
			if isBlank(lhs) && results != nil && isErrorType(results.At(i).Type()) {
				return true
			}
		}
		return false
	}
	for i, lhs := range s.Lhs {
		if isBlank(lhs) && discardsError(info, s.Rhs[i]) {
			return true
		}
	}
	return false
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// discardsError reports whether assigning e to a blank loses an error: either
// e itself is an error value, or it is a call whose result ends in one.
func discardsError(info *types.Info, e ast.Expr) bool {
	if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
		return resultsError(info, call) && !errDropExempt(info, call)
	}
	tv, ok := info.Types[e]
	return ok && tv.Type != nil && isErrorType(tv.Type)
}
