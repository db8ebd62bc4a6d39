package lint

import (
	"go/types"
	"testing"
)

// TestCallGraphCrossPackage asserts the call graph carries edges across
// package boundaries and that reachability follows them — what ctxflow's
// request path (server → admission → exec) is built on.
func TestCallGraphCrossPackage(t *testing.T) {
	root := writeModule(t, map[string]string{
		"helper/helper.go": "package helper\n\nfunc Leaf() {}\n",
		"user/user.go":     "package user\n\nimport \"example.com/m/helper\"\n\nfunc Entry() { helper.Leaf() }\n",
	})
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	funcs := map[string]*types.Func{}
	for _, pkg := range pkgs {
		for _, name := range pkg.Types.Scope().Names() {
			if fn, ok := pkg.Types.Scope().Lookup(name).(*types.Func); ok {
				funcs[name] = fn
			}
		}
	}
	entry, leaf := funcs["Entry"], funcs["Leaf"]
	if entry == nil || leaf == nil {
		t.Fatalf("Entry/Leaf not found in %v", funcs)
	}
	prog := NewProgram(pkgs)
	node := prog.CallGraph.Nodes[entry]
	if node == nil {
		t.Fatal("no call-graph node for Entry")
	}
	foundEdge := false
	for _, e := range node.Out {
		if e.Callee.Func == leaf {
			foundEdge = true
		}
	}
	if !foundEdge {
		t.Error("missing cross-package call edge Entry -> Leaf")
	}
	if !prog.CallGraph.Reachable([]*types.Func{entry})[leaf] {
		t.Error("Reachable does not cross the package boundary")
	}
}
