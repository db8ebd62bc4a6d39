// Command robustlint runs robustdb's static-analysis pass: the repo-specific
// analyzers that each flag a defect go vet, the race detector and the test
// suite all pass (DESIGN.md §25) — virtual-time determinism, surfaced errors,
// pool-bounded kernel goroutines, and the request-path lifecycle rules
// (context threading, goroutine joins). It uses the standard library
// (go/parser, go/ast, go/types) and the go command, which says what each
// package is, and is wired into CI.
//
// The run is whole-program: every matched package is loaded into one Program
// with a CHA call graph, so the interprocedural analyzers see flows that span
// packages — including robustlint linting its own sources under cmd/... and
// internal/lint.
//
// Usage:
//
//	go run ./cmd/robustlint [-github] [packages]
//
// Packages default to ./...; patterns mean what they mean to `go list` run
// at the module root.
// -github also emits GitHub Actions ::error annotations.
//
// A diagnostic can be suppressed with a justified directive on its line or
// the line above:
//
//	//lint:ignore <analyzer> <reason>
//
// A directive that suppresses nothing, or names no registered analyzer, is
// itself reported.
//
// Exit status is 0 with no diagnostics, 1 with diagnostics, 2 on usage or
// load errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"robustdb/internal/lint"
)

func main() {
	github := flag.Bool("github", false, "also emit GitHub Actions ::error annotations")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: robustlint [-github] [packages]\nanalyzers:\n")
		for _, a := range lint.Analyzers {
			fmt.Fprintf(os.Stderr, "  %-16s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "robustlint: %v\n", err)
		os.Exit(2)
	}
	loader, err := lint.NewLoader(cwd)
	if err != nil {
		fmt.Fprintf(os.Stderr, "robustlint: %v\n", err)
		os.Exit(2)
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "robustlint: %v\n", err)
		os.Exit(2)
	}

	diags := lint.Run(pkgs, lint.Analyzers)
	lint.WriteText(os.Stdout, diags)
	if *github {
		writeGitHubAnnotations(os.Stdout, cwd, diags)
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// writeGitHubAnnotations emits one GitHub Actions workflow command per
// diagnostic, so findings surface inline on the pull-request diff. Paths are
// rewritten relative to the working directory (the checkout root in CI)
// because the annotation matcher requires repo-relative files.
func writeGitHubAnnotations(w *os.File, cwd string, diags []lint.Diagnostic) {
	for _, d := range diags {
		file := d.File
		if rel, err := filepath.Rel(cwd, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = filepath.ToSlash(rel)
		}
		fmt.Fprintf(w, "::error file=%s,line=%d,col=%d,title=robustlint %s::%s\n",
			file, d.Line, d.Col, d.Analyzer, escapeAnnotation(d.Message))
	}
}

// escapeAnnotation applies the workflow-command data escaping rules:
// percent, carriage return, and newline must be URL-style encoded.
func escapeAnnotation(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}
