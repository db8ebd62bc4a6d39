package lint

import (
	"go/ast"
	"go/types"
)

// calleeFunc resolves a call expression to the function or method object it
// invokes. It returns nil for conversions, builtins, and calls through
// function-typed values — callees no analyzer can see through.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	f, _ := info.Uses[id].(*types.Func)
	return f
}

// receiverOf returns the defining package path and type name of a method's
// receiver (pointer receivers are dereferenced). ok is false for
// package-level functions and interface methods without a named receiver.
func receiverOf(f *types.Func) (pkgPath, typeName string, ok bool) {
	sig, _ := f.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return "", "", false
	}
	t := sig.Recv().Type()
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return "", "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return "", "", false
	}
	return obj.Pkg().Path(), obj.Name(), true
}

// isMethod reports whether f is the named method on the named type.
func isMethod(f *types.Func, pkgPath, typeName, name string) bool {
	if f == nil || f.Name() != name {
		return false
	}
	p, t, ok := receiverOf(f)
	return ok && p == pkgPath && t == typeName
}

// isPkgFunc reports whether f is the named package-level function.
func isPkgFunc(f *types.Func, pkgPath, name string) bool {
	if f == nil || f.Name() != name || f.Pkg() == nil {
		return false
	}
	if _, _, isMeth := receiverOf(f); isMeth {
		return false
	}
	return f.Pkg().Path() == pkgPath
}

// resultsError reports whether the call's result tuple ends in an error (the
// convention every engine API follows), so discarding it hides a failure.
func resultsError(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call]
	if !ok {
		return false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		return t.Len() > 0 && isErrorType(t.At(t.Len()-1).Type())
	default:
		return isErrorType(tv.Type)
	}
}

var errorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func isErrorType(t types.Type) bool {
	return types.Implements(t, errorType)
}

// funcBodies visits every function body in the file — declarations and
// function literals — with the enclosing declaration's name for messages.
func funcBodies(f *ast.File, fn func(name string, ftype *ast.FuncType, body *ast.BlockStmt)) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch d := n.(type) {
		case *ast.FuncDecl:
			if d.Body != nil {
				fn(d.Name.Name, d.Type, d.Body)
			}
		case *ast.FuncLit:
			fn("func literal", d.Type, d.Body)
		}
		return true
	})
}

// isResponseWriter reports whether t is net/http.ResponseWriter.
func isResponseWriter(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "ResponseWriter" && obj.Pkg() != nil && obj.Pkg().Path() == "net/http"
}

// parentMap records the parent of every node under root.
func parentMap(root ast.Node) map[ast.Node]ast.Node {
	m := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			m[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return m
}
