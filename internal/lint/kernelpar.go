package lint

import (
	"go/ast"
	"strings"
)

// KernelPar enforces the bounded-parallelism invariant of the morsel-driven
// kernels: inside the kernel packages (internal/engine, internal/vecengine)
// every goroutine must be spawned through par.Pool (ForEachMorsel/ForEachN),
// never with a raw `go` statement. The pool is what guarantees the worker
// bound, the deterministic lowest-index error, and the bit-identical results
// at every worker count — a raw goroutine sidesteps all three and its
// scheduling order can leak into float accumulation.
var KernelPar = &Analyzer{
	Name: "kernelpar",
	Doc:  "forbid raw go statements in kernel packages; use par.Pool",
	Run:  runKernelPar,
}

// kernelParScoped reports whether the package is one of the kernel packages
// the invariant covers. Golden-test fixtures live under testdata/src/ with
// fixture import paths, so the package *name* is checked too.
func kernelParScoped(pkg *Package) bool {
	if strings.HasSuffix(pkg.Path, "/engine") || strings.HasSuffix(pkg.Path, "/vecengine") {
		return true
	}
	name := pkg.Types.Name()
	return name == "engine" || name == "vecengine"
}

func runKernelPar(p *Pass) {
	for _, pkg := range p.Prog.Packages {
		if !kernelParScoped(pkg) {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					p.Reportf(g.Pos(),
						"raw go statement in kernel package; spawn workers through par.Pool so the worker bound and deterministic results hold")
				}
				return true
			})
		}
	}
}
