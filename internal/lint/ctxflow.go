package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// CtxFlow enforces the deadline-threading invariant behind the front door's
// overload guarantees: a query's context carries its deadline and the
// client's cancellation from the HTTP handler through admission wait into
// execution, so every function reachable from the serving surface (the
// request path) must keep threading it. Three rules, checked
// interprocedurally over the call graph:
//
//  1. No context.Background()/context.TODO() on the request path — minting a
//     fresh root context there detaches the work from the request's deadline
//     (the exact regression class of a handler passing Background instead of
//     r.Context()). Passing one directly to a *slog.Logger method is exempt:
//     slog documents that argument as optional plumbing the default handler
//     ignores.
//  2. No time.Sleep on the request path — it blocks without honoring
//     cancellation; waits belong in a select with ctx.Done().
//  3. A request-path function that receives a context must not perform a
//     naked blocking channel operation (send or receive outside any select)
//     in its own body: the operation can block forever while the context it
//     was handed is already dead. Pair the operation with ctx.Done() in a
//     select, or push it behind an API that does.
//
// Roots are the serving surface: every exported function or method of the
// server and admission packages, plus unexported functions taking an
// http.ResponseWriter, *http.Request, or context.Context (the handler and
// helper shapes). Drivers that call *into* the front door — cmd, figures,
// tests — are upstream of the roots and stay free to use Background as
// their process root context.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "require request-path code to thread the request context (no Background/TODO, Sleep, or naked blocking ops)",
	Run:  runCtxFlow,
}

// ctxFlowRootPkg reports whether the package is part of the serving surface
// whose functions seed the request path (by path suffix or package name, so
// golden-test fixtures are covered too).
func ctxFlowRootPkg(pkg *Package) bool {
	for _, name := range []string{"server", "admission"} {
		if strings.HasSuffix(pkg.Path, "/"+name) || pkg.Types.Name() == name {
			return true
		}
	}
	return false
}

func runCtxFlow(p *Pass) {
	g := p.Prog.CallGraph
	// Seed the request path with the serving surface and record, for every
	// reached function, which root first reached it — naming the entry point
	// in the diagnostic turns "somewhere on some path" into an actionable
	// trace head.
	rootOf := map[*types.Func]*types.Func{}
	var queue []*CallNode
	for fn, node := range g.Nodes {
		if ctxFlowRootPkg(node.Pkg) && isServingRoot(node) {
			rootOf[fn] = fn
			queue = append(queue, node)
		}
	}
	// Deterministic provenance: seed the BFS in source order so the same
	// root always claims a shared callee.
	sort.Slice(queue, func(i, j int) bool { return queue[i].Decl.Pos() < queue[j].Decl.Pos() })
	for len(queue) > 0 {
		node := queue[0]
		queue = queue[1:]
		for _, e := range node.Out {
			if _, seen := rootOf[e.Callee.Func]; !seen {
				rootOf[e.Callee.Func] = rootOf[node.Func]
				queue = append(queue, e.Callee)
			}
		}
	}
	for fn, root := range rootOf {
		node := g.Nodes[fn]
		checkRequestPathFunc(p, node, root)
	}
}

// isServingRoot reports whether the function seeds the request path: it is
// exported, or it takes one of the request-shaped parameter types (the
// handler convention for unexported entry points like handleQuery).
func isServingRoot(node *CallNode) bool {
	if node.Func.Exported() {
		return true
	}
	sig, _ := node.Func.Type().(*types.Signature)
	if sig == nil {
		return false
	}
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		t := params.At(i).Type()
		if isContextType(t) || isResponseWriter(t) || isHTTPRequestPtr(t) {
			return true
		}
	}
	return false
}

// checkRequestPathFunc applies the three rules to one reached function.
func checkRequestPathFunc(p *Pass, node *CallNode, root *types.Func) {
	info := node.Pkg.Info
	body := node.Decl.Body
	parents := parentMap(body)
	hasCtx := funcHasCtxParam(node.Func)
	pathNote := ""
	if root != node.Func {
		pathNote = " (on the request path from " + root.Name() + ")"
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			fn := calleeFunc(info, n)
			switch {
			case isPkgFunc(fn, "context", "Background") || isPkgFunc(fn, "context", "TODO"):
				if !isSlogArg(info, parents, n) {
					p.Reportf(n.Pos(),
						"context.%s() on the request path detaches %s from the request deadline and cancellation; thread the caller's ctx%s",
						fn.Name(), node.Func.Name(), pathNote)
				}
			case isPkgFunc(fn, "time", "Sleep"):
				p.Reportf(n.Pos(),
					"time.Sleep in %s blocks the request path without honoring ctx cancellation; wait in a select with ctx.Done()%s",
					node.Func.Name(), pathNote)
			}
		case *ast.SendStmt:
			if hasCtx && !insideSelectOrFuncLit(parents, n, body) {
				p.Reportf(n.Pos(),
					"blocking channel send outside select in ctx-aware request-path function %s; pair it with ctx.Done() in a select%s",
					node.Func.Name(), pathNote)
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && hasCtx && !insideSelectOrFuncLit(parents, n, body) {
				p.Reportf(n.Pos(),
					"blocking channel receive outside select in ctx-aware request-path function %s; pair it with ctx.Done() in a select%s",
					node.Func.Name(), pathNote)
			}
		}
		return true
	})
}

// isSlogArg reports whether the expression is passed directly as an argument
// to a *log/slog.Logger method (Enabled, Log, LogAttrs, ...), where a
// Background context is the documented "no context" placeholder.
func isSlogArg(info *types.Info, parents map[ast.Node]ast.Node, e ast.Expr) bool {
	call, ok := parents[e].(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := calleeFunc(info, call)
	if fn == nil {
		return false
	}
	pkgPath, _, ok := receiverOf(fn)
	return ok && pkgPath == "log/slog"
}

// insideSelectOrFuncLit reports whether n sits inside a select statement
// (where a ctx.Done() case can guard it) or a nested function literal (a
// separate goroutine or callback with its own lifecycle, covered by
// leakcheck) under body.
func insideSelectOrFuncLit(parents map[ast.Node]ast.Node, n ast.Node, body *ast.BlockStmt) bool {
	for cur := parents[n]; cur != nil && cur != body; cur = parents[cur] {
		switch cur.(type) {
		case *ast.SelectStmt, *ast.FuncLit:
			return true
		}
	}
	return false
}

// funcHasCtxParam reports whether the function's signature includes a
// context.Context parameter.
func funcHasCtxParam(fn *types.Func) bool {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil {
		return false
	}
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if isContextType(params.At(i).Type()) {
			return true
		}
	}
	return false
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// isHTTPRequestPtr reports whether t is *net/http.Request.
func isHTTPRequestPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Request" && obj.Pkg() != nil && obj.Pkg().Path() == "net/http"
}
