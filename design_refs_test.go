package robustdb

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var (
	// designRef matches a reference to DESIGN.md's sections: "DESIGN.md §27",
	// "DESIGN §6, §27" or "DESIGN.md §2/§4". A bare "§N" is the paper's.
	designRef     = regexp.MustCompile(`DESIGN(?:\.md)? §\d+(?:(?:, |/)§\d+)*`)
	designSection = regexp.MustCompile(`§(\d+)`)
	designHeading = regexp.MustCompile(`^## (\d+)\. `)

	// designRefDocs are the documents besides Go files whose DESIGN.md
	// citations must resolve. CHANGES.md is history and may quote a
	// reference that never resolved.
	designRefDocs = []string{
		"README.md",
		"EXPERIMENTS.md",
		".github/workflows/ci.yml",
		".claude/skills/verify/SKILL.md",
	}

	// modulePath matches a package directory named by its path.
	modulePath = regexp.MustCompile(`\b(?:internal|cmd)/[A-Za-z0-9_]+(?:/[A-Za-z0-9_.]+)*`)
)

// Every DESIGN.md section a Go file or one of designRefDocs cites is a
// numbered heading of DESIGN.md.
func TestDesignReferencesResolve(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]bool{}
	for _, line := range strings.Split(string(doc), "\n") {
		if m := designHeading.FindStringSubmatch(line); m != nil {
			sections[m[1]] = true
		}
	}
	refs := map[string]int{}
	check := func(path string) error {
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(src), "\n") {
			for _, ref := range designRef.FindAllString(line, -1) {
				for _, m := range designSection.FindAllStringSubmatch(ref, -1) {
					refs[filepath.Ext(path)]++
					if !sections[m[1]] {
						t.Errorf("%s:%d: %q cites §%s, which is not a heading of DESIGN.md", path, i+1, ref, m[1])
					}
				}
			}
		}
		return nil
	}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || filepath.Ext(path) != ".go" {
			return nil
		}
		return check(path)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range designRefDocs {
		if err := check(path); err != nil {
			t.Fatal(err)
		}
	}
	if refs[".go"] == 0 || refs[".md"] == 0 {
		t.Fatalf("found DESIGN.md references in %v; want some in Go files and in the docs", refs)
	}
}

// designMaxLines bounds DESIGN.md, which states the tree as it is; its
// history is CHANGES.md's.
const designMaxLines = 1400

// DESIGN.md is at most designMaxLines lines, counted as wc -l counts them.
func TestDesignFitsItsBound(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(doc), "\n"); n > designMaxLines {
		t.Errorf("DESIGN.md has %d lines, more than %d: state the tree as it is and move history to CHANGES.md", n, designMaxLines)
	}
}

// Every directory under internal/ and cmd/ that holds Go code is named by its
// path in DESIGN.md §3 and in README's Architecture block, and every such
// path those two blocks name exists.
func TestModuleMapsMatchTree(t *testing.T) {
	var dirs []string
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
				dirs = append(dirs, filepath.ToSlash(filepath.Dir(path)))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	slices.Sort(dirs)
	dirs = slices.Compact(dirs)
	if len(dirs) == 0 {
		t.Fatal("found no package under internal/ or cmd/")
	}
	maps := []struct{ file, heading string }{
		{"DESIGN.md", "## 3. "},
		{"README.md", "## Architecture"},
	}
	for _, m := range maps {
		block := markdownSection(t, m.file, m.heading)
		named := map[string]bool{}
		for _, p := range modulePath.FindAllString(block, -1) {
			p = strings.TrimSuffix(p, ".")
			named[p] = true
			if _, err := os.Stat(filepath.FromSlash(p)); err != nil {
				t.Errorf("%s %q names %s, which does not exist", m.file, m.heading, p)
			}
		}
		for _, d := range dirs {
			if !named[d] {
				t.Errorf("%s %q does not name %s", m.file, m.heading, d)
			}
		}
	}
}

// markdownSection returns the lines of file from the heading that starts
// with prefix to the next heading of level two.
func markdownSection(t *testing.T, file, prefix string) string {
	t.Helper()
	src, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	in := false
	for _, line := range strings.Split(string(src), "\n") {
		if strings.HasPrefix(line, "## ") {
			if in {
				break
			}
			in = strings.HasPrefix(line, prefix)
		}
		if in {
			out = append(out, line)
		}
	}
	if out == nil {
		t.Fatalf("%s has no heading %q", file, prefix)
	}
	return strings.Join(out, "\n")
}
