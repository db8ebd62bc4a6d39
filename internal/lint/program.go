package lint

// Program is the whole-program view the interprocedural analyzers run over:
// every package handed to Run, in the caller's order, plus the CHA-style
// call graph spanning them.
//
// A Program is as large as the package set it was built from. Golden-test
// fixtures form single-package programs (every interprocedural edge stays
// inside the fixture); CI builds one Program from ./... so invariants that
// span the server → admission → exec → device layering become visible.
type Program struct {
	// Packages are the analyzed packages, in the order they were handed in
	// (the loader's sorted-path order).
	Packages []*Package
	// CallGraph is the CHA call graph over all Packages.
	CallGraph *CallGraph
}

// NewProgram assembles the whole-program view from the loaded packages.
func NewProgram(pkgs []*Package) *Program {
	prog := &Program{Packages: pkgs}
	prog.CallGraph = buildCallGraph(prog)
	return prog
}
