package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule materializes a synthetic module in a temp directory: files maps
// module-relative paths to contents. Loader failure modes (syntax errors,
// import cycles, excluded files) are tested on synthetic trees because the
// repo itself must stay gofmt-clean and compilable.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module example.com/m\n\ngo 1.22\n"
	for rel, content := range files {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatalf("mkdir for %s: %v", rel, err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatalf("write %s: %v", rel, err)
		}
	}
	return root
}

// loadErr loads one directory of a synthetic module and returns the error,
// failing the test on success — every case here is a failure mode that must
// surface as a clean diagnostic, not a panic or an unbounded recursion.
func loadErr(t *testing.T, root, dir string) error {
	t.Helper()
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	_, err = loader.LoadDir(filepath.Join(root, dir))
	if err == nil {
		t.Fatalf("LoadDir(%s): expected an error, got none", dir)
	}
	return err
}

func TestLoadMalformedSource(t *testing.T) {
	root := writeModule(t, map[string]string{
		"broken/broken.go": "package broken\n\nfunc Oops( {\n",
	})
	err := loadErr(t, root, "broken")
	if !strings.Contains(err.Error(), "broken") {
		t.Errorf("syntax-error diagnostic does not name the package: %v", err)
	}
}

func TestLoadTypeError(t *testing.T) {
	root := writeModule(t, map[string]string{
		"badtypes/badtypes.go": "package badtypes\n\nvar X = undefinedName\n",
	})
	err := loadErr(t, root, "badtypes")
	if !strings.Contains(err.Error(), "type-checking") {
		t.Errorf("type error not reported as a type-checking diagnostic: %v", err)
	}
}

func TestLoadImportCycle(t *testing.T) {
	root := writeModule(t, map[string]string{
		"a/a.go": "package a\n\nimport \"example.com/m/b\"\n\nvar X = b.Y\n",
		"b/b.go": "package b\n\nimport \"example.com/m/a\"\n\nvar Y = a.X\n",
	})
	err := loadErr(t, root, "a")
	if !strings.Contains(err.Error(), "import cycle not allowed") {
		t.Errorf("cycle not reported as an import-cycle diagnostic: %v", err)
	}
}

func TestLoadEmptyDir(t *testing.T) {
	root := writeModule(t, map[string]string{
		"empty/README.txt": "no Go files here\n",
	})
	err := loadErr(t, root, "empty")
	if !strings.Contains(err.Error(), "no Go files") {
		t.Errorf("empty package dir not reported cleanly: %v", err)
	}
}

func TestLoadSkipsExcludedFiles(t *testing.T) {
	// The gated file declares a symbol that would collide with the real one;
	// loading succeeds only if the build constraint actually excludes it.
	root := writeModule(t, map[string]string{
		"tagged/tagged.go": "package tagged\n\nconst Mode = \"real\"\n",
		"tagged/gen.go":    "//go:build generate_tool\n\npackage tagged\n\nconst Mode = \"tool\"\n",
	})
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := loader.LoadDir(filepath.Join(root, "tagged"))
	if err != nil {
		t.Fatalf("LoadDir: build-tag-excluded file broke the load: %v", err)
	}
	if len(pkg.Files) != 1 {
		t.Errorf("want 1 included file, got %d", len(pkg.Files))
	}
}

func TestLoadAllFilesExcluded(t *testing.T) {
	root := writeModule(t, map[string]string{
		"gated/gated.go": "//go:build sometool\n\npackage gated\n\nconst X = 1\n",
	})
	err := loadErr(t, root, "gated")
	if !strings.Contains(err.Error(), "build constraints exclude all Go files") {
		t.Errorf("all-excluded package not reported cleanly: %v", err)
	}
}

// TestBuildTagsSatisfied loads one package a row, each a real file beside
// a gated one, and checks the loader includes the gated file exactly when
// `go build` builds it (the built column is the toolchain's verdict on this
// host). An excluded file repeats the real declaration, so a loader that
// wrongly includes it fails to type-check.
func TestBuildTagsSatisfied(t *testing.T) {
	cases := []struct {
		name, header string
		built        bool
	}{
		{"no constraint", "", true},
		{"unknown tag", "//go:build sometool\n\n", false},
		{"negated unknown tag", "//go:build !sometool\n\n", true},
		{"host os", "//go:build linux || darwin\n\n", true},
		{"foreign os", "//go:build plan9\n\n", false},
		{"compiler", "//go:build gc\n\n", true},
		{"go version", "//go:build go1.21\n\n", true},
		{"future go version", "//go:build go1.999\n\n", false},
		{"doc comment first", "// Package p does things.\n//go:build sometool\n", false},
	}
	files := map[string]string{
		"malformed/real.go":  "package p\n\nconst Real = 1\n",
		"malformed/gated.go": "//go:build !!(\n\npackage p\n",
	}
	for i, tc := range cases {
		decl := "Real"
		if tc.built {
			decl = "Gated"
		}
		files[fmt.Sprintf("row%d/real.go", i)] = "package p\n\nconst Real = 1\n"
		files[fmt.Sprintf("row%d/gated.go", i)] = tc.header + "package p\n\nconst " + decl + " = 2\n"
	}
	root := writeModule(t, files)
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	for i, tc := range cases {
		pkg, err := loader.LoadDir(filepath.Join(root, fmt.Sprintf("row%d", i)))
		if err != nil {
			t.Errorf("%s: LoadDir: %v", tc.name, err)
			continue
		}
		if got := len(pkg.Files) == 2; got != tc.built {
			t.Errorf("%s: gated file included = %v, want %v", tc.name, got, tc.built)
		}
	}
	if err := loadErr(t, root, "malformed"); !strings.Contains(err.Error(), "gated.go") {
		t.Errorf("malformed constraint: load error does not name the file: %v", err)
	}
}
