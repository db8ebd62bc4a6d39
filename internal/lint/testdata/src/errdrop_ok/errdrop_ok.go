// Package errdrop_ok holds clean golden-test counterparts for the errdrop
// analyzer: errors are propagated, counted, or conventionally ignorable.
package errdrop_ok

import (
	"errors"
	"fmt"
	"strings"
)

var errBoom = errors.New("boom")

func fallible() error { return errBoom }

func lookup() (int, bool) { return 0, false }

// BlankBesideValue blanks a result that is not an error: the comma-ok of a
// call, a map read and a type assertion (whose kept value is an error).
func BlankBesideValue(m map[string]int, v any) (int, error) {
	n, _ := lookup()
	k, _ := m["k"]
	err, _ := v.(error)
	return n + k, err
}

// Propagate handles the error by wrapping and returning it.
func Propagate() error {
	if err := fallible(); err != nil {
		return fmt.Errorf("wrapped: %w", err)
	}
	return nil
}

// Count surfaces the error in a counter — the Metrics.CatalogErrors pattern.
func Count(counter *int64) {
	if err := fallible(); err != nil {
		*counter++
	}
}

// ExemptWriters uses the conventionally ignorable callees: fmt.Print* and
// the never-failing strings.Builder.
func ExemptWriters() string {
	var b strings.Builder
	b.WriteString("hello")
	fmt.Println("done")
	return b.String()
}

type resource struct{}

func (resource) Close() error { return nil }

// DeferredClose uses the one conventional deferred drop: a no-argument
// Close method cleanup.
func DeferredClose() {
	r := resource{}
	defer r.Close()
}

// DeferredHandled wraps the deferred fallible call in a closure that counts
// the failure.
func DeferredHandled(counter *int64) {
	defer func() {
		if err := fallible(); err != nil {
			*counter++
		}
	}()
}

// GoHandled spawns a closure that surfaces the error instead of spawning
// the fallible call directly.
func GoHandled(counter *int64, done chan struct{}) {
	go func() {
		if err := fallible(); err != nil {
			*counter++
		}
		close(done)
	}()
}
