package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// sharedLoader caches type-checked packages (and the parsed standard
// library) across all fixture loads in the test binary.
var (
	loaderOnce   sync.Once
	sharedLoader *Loader
	loaderErr    error
)

func fixtureLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		sharedLoader, loaderErr = NewLoader(".")
	})
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	return sharedLoader
}

func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	pkg, err := fixtureLoader(t).LoadDir(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	return pkg
}

// wantRe extracts golden expectations: a backquoted regex after "want",
// in a comment trailing the offending line.
var wantRe = regexp.MustCompile("want `([^`]+)`")

type want struct {
	line    int
	re      *regexp.Regexp
	matched bool
}

// parseWants scans a fixture directory's sources for want comments, keyed by
// file path.
func parseWants(t *testing.T, pkg *Package) map[string][]*want {
	t.Helper()
	wants := map[string][]*want{}
	for _, f := range pkg.Files {
		path := pkg.Fset.Position(f.Pos()).Filename
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("reading %s: %v", path, err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			re, err := regexp.Compile(m[1])
			if err != nil {
				t.Fatalf("%s:%d: bad want regexp %q: %v", path, i+1, m[1], err)
			}
			wants[path] = append(wants[path], &want{line: i + 1, re: re})
		}
	}
	return wants
}

// checkFixture runs every registered analyzer over the fixture and matches
// the diagnostics against the want comments — exhaustively in both
// directions, so a fixture can neither miss a finding nor trip an analyzer
// it does not mean to.
func checkFixture(t *testing.T, name string) {
	t.Helper()
	pkg := loadFixture(t, name)
	wants := parseWants(t, pkg)
	for _, d := range Run([]*Package{pkg}, Analyzers) {
		found := false
		for _, w := range wants[d.File] {
			if w.line == d.Line && !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for file, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", file, w.line, w.re)
			}
		}
	}
}

// TestGolden checks one positive (violations, with want comments) and one
// negative (clean) fixture per analyzer.
func TestGolden(t *testing.T) {
	for _, a := range Analyzers {
		for _, suffix := range []string{"_bad", "_ok"} {
			name := a.Name + suffix
			t.Run(name, func(t *testing.T) { checkFixture(t, name) })
		}
	}
}

// TestGoldenPositivesFire asserts every _bad fixture actually produces at
// least one diagnostic from its own analyzer — so a silently broken analyzer
// cannot pass by matching zero wants against zero findings.
func TestGoldenPositivesFire(t *testing.T) {
	for _, a := range Analyzers {
		pkg := loadFixture(t, a.Name+"_bad")
		diags := Run([]*Package{pkg}, []*Analyzer{a})
		if len(diags) == 0 {
			t.Errorf("analyzer %s reported nothing on its positive fixture", a.Name)
		}
		for _, d := range diags {
			if d.Analyzer != a.Name {
				t.Errorf("analyzer %s reported under wrong name: %s", a.Name, d)
			}
		}
	}
}

// TestSuppression checks the //lint:ignore mechanism: justified directives
// silence exactly the named analyzer, reason-less directives and directives
// naming no registered analyzer are themselves reported and suppress nothing,
// and naming the wrong analyzer leaves the finding visible.
func TestSuppression(t *testing.T) {
	if diags := Run([]*Package{loadFixture(t, "suppress_ok")}, Analyzers); len(diags) != 0 {
		t.Errorf("suppress_ok: want no diagnostics, got %v", diags)
	}

	diags := Run([]*Package{loadFixture(t, "suppress_bad")}, Analyzers)
	var malformed, unknown, stale, virtualtime int
	for _, d := range diags {
		switch {
		case d.Analyzer == "lint" && strings.Contains(d.Message, "malformed"):
			malformed++
		case d.Analyzer == "lint" && strings.Contains(d.Message, `unknown analyzer "virtualtme"`):
			unknown++
		case d.Analyzer == "lint" && strings.Contains(d.Message, "stale"):
			stale++
		case d.Analyzer == "virtualtime":
			virtualtime++
		default:
			t.Errorf("suppress_bad: unexpected diagnostic %s", d)
		}
	}
	if malformed != 1 {
		t.Errorf("suppress_bad: want 1 malformed-directive diagnostic, got %d", malformed)
	}
	if unknown != 1 {
		t.Errorf("suppress_bad: want 1 unknown-analyzer diagnostic (the misspelt virtualtme directive), got %d", unknown)
	}
	if stale != 1 {
		t.Errorf("suppress_bad: want 1 stale-directive diagnostic (the wrong-analyzer errdrop ignore suppresses nothing), got %d", stale)
	}
	if virtualtime != 3 {
		t.Errorf("suppress_bad: want 3 virtualtime diagnostics (no directive suppresses them), got %d", virtualtime)
	}
}

// TestRepoClean lints the whole module: the tree must stay free of
// diagnostics, the same gate CI applies via cmd/robustlint.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("repo-wide lint skipped in -short mode")
	}
	pkgs, err := fixtureLoader(t).Load("./...")
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	if diags := Run(pkgs, Analyzers); len(diags) != 0 {
		for _, d := range diags {
			t.Errorf("repo not lint-clean: %s", d)
		}
	}
}

// TestByName pins the registry lookup the unknown-analyzer check of
// //lint:ignore directives uses.
func TestByName(t *testing.T) {
	for _, a := range Analyzers {
		if ByName(a.Name) != a {
			t.Errorf("ByName(%q) did not return the registered analyzer", a.Name)
		}
	}
	if ByName("nonexistent") != nil {
		t.Error("ByName of an unknown analyzer should return nil")
	}
}
