package robustdb

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// designRef matches a reference to DESIGN.md's sections in Go source:
	// "DESIGN.md §27" or "DESIGN §6, §27". A bare "§N" is the paper's.
	designRef     = regexp.MustCompile(`DESIGN(?:\.md)? §\d+(?:, §\d+)*`)
	designSection = regexp.MustCompile(`§(\d+)`)
	designHeading = regexp.MustCompile(`^## (\d+)\. `)
)

// Every DESIGN.md section a Go file cites is a numbered heading of DESIGN.md.
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
	refs := 0
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
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(src), "\n") {
			for _, ref := range designRef.FindAllString(line, -1) {
				for _, m := range designSection.FindAllStringSubmatch(ref, -1) {
					refs++
					if !sections[m[1]] {
						t.Errorf("%s:%d: %q cites §%s, which is not a heading of DESIGN.md", path, i+1, ref, m[1])
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if refs == 0 {
		t.Fatal("found no DESIGN.md reference in any Go file")
	}
}
