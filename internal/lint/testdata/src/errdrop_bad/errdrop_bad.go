// Package errdrop_bad holds golden-test violations of the errdrop analyzer:
// error returns discarded the way the pre-PR-1 catalog bug hid failures.
package errdrop_bad

import "errors"

var errBoom = errors.New("boom")

func fallible() error { return errBoom }

func falliblePair() (int, error) { return 0, errBoom }

// DropWithBlank discards the error with a blank assignment.
func DropWithBlank() {
	_ = fallible() // want `error assigned to _`
}

// DropBareCall discards the error by ignoring the call result entirely.
func DropBareCall() {
	fallible() // want `error return of fallible is silently discarded`
}

// DropPair discards a (value, error) pair wholesale.
func DropPair() {
	_, _ = falliblePair() // want `error assigned to _`
}

// DropBesideValue keeps the value and blanks the error — the shape that lets
// a nil or zero value travel on as if the call had succeeded.
func DropBesideValue() int {
	n, _ := falliblePair() // want `error assigned to _`
	return n
}

// DropVariable launders an already-bound error into the blank identifier.
func DropVariable() {
	err := fallible()
	_ = err // want `error assigned to _`
}

// DropInDefer discards the error through a defer statement — the statement
// position the pre-extension walk never visited.
func DropInDefer() {
	defer fallible() // want `error return of deferred fallible call is silently discarded`
}

// DropInGo spawns an error-returning call whose result nothing can observe.
func DropInGo() {
	go fallible() // want `error return of fallible is unobservable from a go statement`
}

// DropInGoroutineClosure blanks the error inside a goroutine closure; the
// closure body is engine code like any other.
func DropInGoroutineClosure(done chan struct{}) {
	go func() {
		_ = fallible() // want `error assigned to _`
		close(done)
	}()
}
