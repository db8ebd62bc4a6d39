package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// CallGraph is a class-hierarchy-analysis (CHA) call graph over a Program:
// one node per function or method with source in the program, one edge per
// call site. Static calls resolve exactly; calls through interface methods
// resolve to every program type implementing the interface (the CHA
// over-approximation — sound for reachability, never for absence). Calls
// through function-typed values stay unresolved, so analyzers must treat
// them as ownership/control escapes.
//
// Function literals are attributed to their enclosing declaration: a call
// made inside a closure (including one launched by `go`) is an edge from the
// declaring function. The GoEdge flag marks edges whose call site is the
// immediate call of a go statement.
type CallGraph struct {
	// Nodes maps every function with source in the program to its node.
	Nodes map[*types.Func]*CallNode
}

// CallNode is one function in the call graph.
type CallNode struct {
	// Func is the type-checker object of the function or method.
	Func *types.Func
	// Decl is the declaration carrying the body.
	Decl *ast.FuncDecl
	// Pkg is the package the declaration lives in.
	Pkg *Package
	// Out are the calls this function makes (in source order per body walk).
	Out []*CallEdge
	// In are the calls made to this function.
	In []*CallEdge
}

// CallEdge is one call site.
type CallEdge struct {
	Caller, Callee *CallNode
	// Site is the call expression (inside Caller's body, possibly within a
	// nested function literal).
	Site *ast.CallExpr
	// GoEdge marks the immediate call of a go statement: the callee runs on
	// a new goroutine, so control never returns along this edge.
	GoEdge bool
	// Dynamic marks CHA-resolved interface dispatch: one of possibly many
	// implementations, not a proven runtime target.
	Dynamic bool
}

// buildCallGraph constructs the graph over every package of the program.
func buildCallGraph(prog *Program) *CallGraph {
	g := &CallGraph{Nodes: map[*types.Func]*CallNode{}}
	// Pass 1: a node per declared function, plus the CHA method index.
	methodIndex := map[string][]*types.Func{}
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				g.Nodes[fn] = &CallNode{Func: fn, Decl: fd, Pkg: pkg}
			}
		}
		indexMethods(pkg.Types, methodIndex)
	}
	// Pass 2: edges.
	for _, node := range g.Nodes {
		g.addEdges(node, methodIndex)
	}
	// Deterministic In order (Out order follows the body walk already).
	for _, node := range g.Nodes {
		sort.SliceStable(node.In, func(i, j int) bool {
			return node.In[i].Site.Pos() < node.In[j].Site.Pos()
		})
	}
	return g
}

// indexMethods records every method of every named type declared at package
// scope, keyed by method name — the candidate set CHA resolves interface
// calls against.
func indexMethods(tpkg *types.Package, index map[string][]*types.Func) {
	scope := tpkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			m := named.Method(i)
			index[m.Name()] = append(index[m.Name()], m)
		}
	}
}

// addEdges walks one declaration body (closures included) and links every
// resolvable call site.
func (g *CallGraph) addEdges(node *CallNode, methodIndex map[string][]*types.Func) {
	goCalls := map[*ast.CallExpr]bool{}
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			goCalls[n.Call] = true
		case *ast.CallExpr:
			g.linkCall(node, n, goCalls[n], methodIndex)
		}
		return true
	})
}

// linkCall resolves one call site to its callee(s) and appends edges.
func (g *CallGraph) linkCall(caller *CallNode, call *ast.CallExpr, isGo bool, methodIndex map[string][]*types.Func) {
	info := caller.Pkg.Info
	// Static resolution: direct function or concrete-method call.
	if fn := calleeFunc(info, call); fn != nil {
		if iface := interfaceMethodOf(info, call, fn); iface != nil {
			// Interface dispatch: CHA over every implementing program type.
			for _, cand := range methodIndex[fn.Name()] {
				callee, ok := g.Nodes[cand]
				if !ok || !implementsFor(cand, iface) {
					continue
				}
				edge := &CallEdge{Caller: caller, Callee: callee, Site: call, GoEdge: isGo, Dynamic: true}
				caller.Out = append(caller.Out, edge)
				callee.In = append(callee.In, edge)
			}
			return
		}
		if callee, ok := g.Nodes[fn]; ok {
			edge := &CallEdge{Caller: caller, Callee: callee, Site: call, GoEdge: isGo}
			caller.Out = append(caller.Out, edge)
			callee.In = append(callee.In, edge)
		}
	}
}

// interfaceMethodOf returns the interface type a call dispatches through, or
// nil for a statically bound call.
func interfaceMethodOf(info *types.Info, call *ast.CallExpr, fn *types.Func) *types.Interface {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	selection, ok := info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return nil
	}
	iface, _ := selection.Recv().Underlying().(*types.Interface)
	return iface
}

// implementsFor reports whether the method's receiver type (value or
// pointer) implements the interface — the CHA candidate filter.
func implementsFor(m *types.Func, iface *types.Interface) bool {
	sig, _ := m.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return false
	}
	recv := sig.Recv().Type()
	if types.Implements(recv, iface) {
		return true
	}
	if _, isPtr := recv.(*types.Pointer); !isPtr {
		return types.Implements(types.NewPointer(recv), iface)
	}
	return false
}
