package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LeakCheck enforces the goroutine-lifecycle invariant of the wall-clock
// serving layer (internal/server, internal/admission, internal/obs): every
// goroutine spawned with a raw go statement must have a join or stop path —
// otherwise SIGTERM drain can return while workers still run, and the "zero
// leaked goroutines after Drain" property only holds by luck. Accepted
// evidence, searched interprocedurally through the call graph (the spawned
// function's body plus its callees):
//
//   - a WaitGroup join: the goroutine calls wg.Done() (usually deferred) on
//     a WaitGroup that some function in the program Wait()s on;
//   - a stop channel: the goroutine receives from (or selects on) a channel
//     that some function in the program close()s — the Host.pump / quit
//     pattern;
//   - a drained channel: the goroutine ranges over a channel that is
//     close()d elsewhere, so it exits when the producer finishes.
//
// A goroutine that blocks on channels handed in from outside (parameters)
// is trusted: its stop path belongs to whoever owns the channel. Kernel
// packages are covered by the stricter kernelpar rule (no raw go statements
// at all), and the deterministic engine never spawns.
var LeakCheck = &Analyzer{
	Name: "leakcheck",
	Doc:  "require every serving-layer goroutine to have a join or stop path (WaitGroup, closed stop channel, or drained channel)",
	Run:  runLeakCheck,
}

// leakCheckScoped reports whether the package is part of the serving layer
// the invariant covers (by path suffix or package name, covering fixtures).
func leakCheckScoped(pkg *Package) bool {
	for _, name := range []string{"server", "admission", "obs"} {
		if strings.HasSuffix(pkg.Path, "/"+name) || pkg.Types.Name() == name {
			return true
		}
	}
	return false
}

func runLeakCheck(p *Pass) {
	ev := collectJoinEvidence(p.Prog)
	for _, pkg := range p.Prog.Packages {
		if !leakCheckScoped(pkg) {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				if !ev.joinable(p.Prog, pkg, g) {
					p.Reportf(g.Pos(),
						"goroutine has no join or stop path: no WaitGroup.Wait, closed stop channel, or drained channel reaches it, so shutdown/Drain can leak it")
				}
				return true
			})
		}
	}
}

// joinEvidence is the program-wide shutdown vocabulary: channels something
// closes and WaitGroups something waits on.
type joinEvidence struct {
	closedChans map[types.Object]bool
	waitedWGs   map[types.Object]bool
}

// collectJoinEvidence scans every program package for close(ch) calls and
// WaitGroup.Wait() calls, keyed by the channel/WaitGroup variable or field
// object — object identity is program-wide, so a channel closed in Close()
// matches a receive in a goroutine spawned three packages away.
func collectJoinEvidence(prog *Program) *joinEvidence {
	ev := &joinEvidence{
		closedChans: map[types.Object]bool{},
		waitedWGs:   map[types.Object]bool{},
	}
	for _, pkg := range prog.Packages {
		info := pkg.Info
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "close" && len(call.Args) == 1 {
					if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
						if obj := referencedObj(info, call.Args[0]); obj != nil {
							ev.closedChans[obj] = true
						}
					}
				}
				if fn := calleeFunc(info, call); isMethod(fn, "sync", "WaitGroup", "Wait") {
					if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
						if obj := referencedObj(info, sel.X); obj != nil {
							ev.waitedWGs[obj] = true
						}
					}
				}
				return true
			})
		}
	}
	return ev
}

// referencedObj resolves a variable or field reference to its type-checker
// object: `quit` → the local, `h.quit` → the field. Returns nil for
// anything more indirect.
func referencedObj(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := info.Uses[e]; obj != nil {
			return obj
		}
		return info.Defs[e]
	case *ast.SelectorExpr:
		return info.Uses[e.Sel]
	}
	return nil
}

// joinable reports whether the spawned goroutine carries join/stop evidence,
// searching the goroutine entry body and its callees through the call graph.
func (ev *joinEvidence) joinable(prog *Program, pkg *Package, g *ast.GoStmt) bool {
	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		return ev.searchBody(pkg, lit.Body, nil) ||
			ev.searchCallees(prog, pkg, lit.Body, 3)
	}
	fn := calleeFunc(pkg.Info, g.Call)
	if fn == nil {
		return false // spawn through a function value: nothing to trust
	}
	node, ok := prog.CallGraph.Nodes[fn]
	if !ok {
		return false // no source for the callee: cannot verify a stop path
	}
	return ev.searchNode(prog, node, map[*CallNode]bool{}, 3)
}

// searchNode looks for evidence in one call-graph node and, to the given
// depth, its callees.
func (ev *joinEvidence) searchNode(prog *Program, node *CallNode, seen map[*CallNode]bool, depth int) bool {
	if seen[node] {
		return false
	}
	seen[node] = true
	params := paramObjs(node.Func)
	if ev.searchBody(node.Pkg, node.Decl.Body, params) {
		return true
	}
	if depth <= 0 {
		return false
	}
	for _, e := range node.Out {
		if ev.searchNode(prog, e.Callee, seen, depth-1) {
			return true
		}
	}
	return false
}

// searchCallees follows static calls out of a function-literal body.
func (ev *joinEvidence) searchCallees(prog *Program, pkg *Package, body *ast.BlockStmt, depth int) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pkg.Info, call)
		if fn == nil {
			return true
		}
		if node, ok := prog.CallGraph.Nodes[fn]; ok {
			if ev.searchNode(prog, node, map[*CallNode]bool{}, depth-1) {
				found = true
			}
		}
		return true
	})
	return found
}

// searchBody scans one body for join/stop evidence. Channel parameters (the
// params set) are trusted: a goroutine blocking on a channel handed in from
// outside delegates its stop path to the channel's owner.
func (ev *joinEvidence) searchBody(pkg *Package, body *ast.BlockStmt, params map[types.Object]bool) bool {
	info := pkg.Info
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				if obj := referencedObj(info, n.X); obj != nil && (ev.closedChans[obj] || params[obj]) {
					found = true
				}
			}
		case *ast.RangeStmt:
			if tv, ok := info.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					if obj := referencedObj(info, n.X); obj != nil && (ev.closedChans[obj] || params[obj]) {
						found = true
					}
				}
			}
		case *ast.CallExpr:
			if fn := calleeFunc(info, n); isMethod(fn, "sync", "WaitGroup", "Done") {
				if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
					if obj := referencedObj(info, sel.X); obj != nil && ev.waitedWGs[obj] {
						found = true
					}
				}
			}
		}
		return true
	})
	return found
}

// paramObjs returns the set of the function's channel-typed parameter
// objects.
func paramObjs(fn *types.Func) map[types.Object]bool {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil {
		return nil
	}
	out := map[types.Object]bool{}
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		v := params.At(i)
		if _, isChan := v.Type().Underlying().(*types.Chan); isChan {
			out[v] = true
		}
	}
	return out
}
