package lint

import (
	"go/types"
	"strings"
	"testing"
)

// TestCallGraphCrossPackage asserts the call graph carries edges across
// package boundaries and that ctxflow's request path follows them (server →
// admission → exec is built on that): a context.Background() one call below
// a serving root in another package is flagged, naming the root.
func TestCallGraphCrossPackage(t *testing.T) {
	root := writeModule(t, map[string]string{
		"helper/helper.go": "package helper\n\nimport \"context\"\n\nfunc Leaf() context.Context { return context.Background() }\n",
		"server/server.go": "package server\n\nimport \"example.com/m/helper\"\n\nfunc Entry() { helper.Leaf() }\n",
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
	node := NewProgram(pkgs).CallGraph.Nodes[entry]
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
	diags := Run(pkgs, []*Analyzer{CtxFlow})
	if len(diags) != 1 || !strings.HasSuffix(diags[0].File, "helper.go") ||
		!strings.Contains(diags[0].Message, "context.Background() on the request path") ||
		!strings.Contains(diags[0].Message, "(on the request path from Entry)") {
		t.Errorf("want one ctxflow diagnostic in helper.go naming root Entry, got %v", diags)
	}
}
