package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package under analysis.
type Package struct {
	// Path is the import path ("robustdb/internal/exec").
	Path string
	// Dir is the directory the sources were read from.
	Dir string
	// Fset positions every token of the package (shared across the load).
	Fset *token.FileSet
	// Files are the parsed non-test sources, in file-name order.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info records the type of every expression and the object behind every
	// identifier — the ground truth analyzers match against.
	Info *types.Info
}

// Loader parses and type-checks module packages using the standard library
// and the go command. `go list` decides what a package is — its directory,
// its import path, the files the toolchain compiles under the current build
// configuration, and whether it can be built at all — so the loader never
// evaluates a build constraint or walks a directory itself. Module packages
// are type-checked from source through the loader itself; standard-library
// imports go through the compiler's source importer. One Loader caches every
// package it sees, so loading ./... type-checks each package exactly once.
type Loader struct {
	Fset   *token.FileSet
	root   string                    // module root directory (holds go.mod)
	listed map[string]*listedPackage // every non-standard package go list reported, by import path
	cache  map[string]*Package
	std    types.ImporterFrom
}

// listedPackage is the part of a `go list -json` record the loader reads.
// GoFiles leaves out the files that import "C" (CgoFiles); robustdb has none.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// NewLoader creates a loader for the module containing dir, as the go
// command finds it.
func NewLoader(dir string) (*Loader, error) {
	out, err := goCommand(dir, "env", "GOMOD")
	if err != nil {
		return nil, err
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == "/dev/null" {
		return nil, fmt.Errorf("lint: %s is not inside a module", dir)
	}
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("lint: source importer unavailable")
	}
	return &Loader{
		Fset:   fset,
		root:   filepath.Dir(gomod),
		listed: map[string]*listedPackage{},
		cache:  map[string]*Package{},
		std:    std,
	}, nil
}

// Load returns the packages the patterns match, type-checked, in directory
// order. Patterns mean what they mean to the go command run at the module
// root ("./...", "./internal/exec", an absolute directory).
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	matched, err := l.list(patterns)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, lp := range matched {
		pkg, err := l.load(lp)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// LoadDir parses and type-checks the package in dir (non-test files only).
func (l *Loader) LoadDir(dir string) (*Package, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	pkgs, err := l.Load(dir)
	if err != nil {
		return nil, err
	}
	return pkgs[0], nil
}

// list asks the go command for the packages the patterns match and
// everything they import, records every non-standard one for Import, and
// returns the matched ones sorted by directory.
func (l *Loader) list(patterns []string) ([]*listedPackage, error) {
	args := append([]string{"list", "-e", "-deps", "-json=ImportPath,Dir,GoFiles,Standard,DepOnly,Error", "--"}, patterns...)
	out, err := goCommand(l.root, args...)
	if err != nil {
		return nil, err
	}
	var matched []*listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		lp := &listedPackage{}
		if err := dec.Decode(lp); err != nil {
			return nil, fmt.Errorf("lint: reading go list output: %w", err)
		}
		if !lp.Standard {
			l.listed[lp.ImportPath] = lp
		}
		if !lp.DepOnly {
			matched = append(matched, lp)
		}
	}
	sort.Slice(matched, func(i, j int) bool { return matched[i].Dir < matched[j].Dir })
	return matched, nil
}

// goCommand runs the go command, found on PATH, in dir and returns what it
// printed; a failure carries what it printed on standard error.
func goCommand(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		if msg := bytes.TrimSpace(stderr.Bytes()); len(msg) > 0 {
			err = fmt.Errorf("%w: %s", err, msg)
		}
		return nil, fmt.Errorf("lint: go %s in %s: %w", args[0], dir, err)
	}
	return out, nil
}

// Import resolves an import path for the type checker: module packages load
// from source through the loader, everything else (the standard library)
// goes through the compiler's source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	lp, ok := l.listed[path]
	if !ok {
		return l.std.ImportFrom(path, l.root, 0)
	}
	pkg, err := l.load(lp)
	if err != nil {
		return nil, err
	}
	return pkg.Types, nil
}

// load parses and type-checks one listed package. A package the go command
// could not make sense of — an import cycle, no Go files, constraints that
// exclude every file, a malformed //go:build line — fails with its error, so
// type-checking never recurses into a cycle.
func (l *Loader) load(lp *listedPackage) (*Package, error) {
	if pkg, ok := l.cache[lp.ImportPath]; ok {
		return pkg, nil
	}
	if lp.Error != nil {
		return nil, fmt.Errorf("lint: %s: %s", lp.ImportPath, lp.Error.Err)
	}
	var files []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(l.Fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %s: %w", lp.ImportPath, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(lp.ImportPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", lp.ImportPath, err)
	}
	pkg := &Package{Path: lp.ImportPath, Dir: lp.Dir, Fset: l.Fset, Files: files, Types: tpkg, Info: info}
	l.cache[lp.ImportPath] = pkg
	return pkg, nil
}
