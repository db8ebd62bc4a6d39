package main

import "time"

// The repo's virtualtime lint rule forbids wall-clock reads everywhere outside
// the serving layer, because engine code must replay from a seed. The
// benchmark measures wall time by definition, so every read goes through the
// three annotated helpers below and nothing else in this package touches the
// clock.

func now() time.Time {
	//lint:ignore virtualtime the benchmark harness measures wall-clock time by definition
	return time.Now()
}

func sleep(d time.Duration) {
	//lint:ignore virtualtime polling an external process (health wait) is wall-clock waiting by definition
	time.Sleep(d)
}

// ms is d in milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func after(d time.Duration) <-chan time.Time {
	//lint:ignore virtualtime bounding the wait for an external process to exit is a wall-clock timeout by definition
	return time.After(d)
}
