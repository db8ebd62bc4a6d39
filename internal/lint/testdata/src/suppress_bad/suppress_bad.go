// Package suppress_bad exercises directive failure modes: a reason-less
// //lint:ignore is itself an error and suppresses nothing, a directive
// naming one analyzer does not silence another, and a directive naming no
// registered analyzer (a typo, or an analyzer since deleted) is an error.
package suppress_bad

import "time"

// MissingReason carries a directive without a justification; the directive
// is reported and the wall-clock read stays visible.
func MissingReason() time.Time {
	//lint:ignore virtualtime
	return time.Now()
}

// WrongAnalyzer suppresses errdrop, which does not cover wall-clock reads.
func WrongAnalyzer() time.Time {
	//lint:ignore errdrop this names the wrong analyzer on purpose
	return time.Now()
}

// UnknownAnalyzer misspells the analyzer: the directive is reported instead of
// living on as a suppression of nothing.
func UnknownAnalyzer() time.Time {
	//lint:ignore virtualtme a misspelt (or since deleted) analyzer suppresses nothing
	return time.Now()
}
