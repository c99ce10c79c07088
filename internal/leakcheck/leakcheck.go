// Package leakcheck is the goroutine-leak check the chaos suites share: a
// test samples Base before it starts, runs its scenario, and calls Settle
// to assert that every goroutine the scenario started has exited.
package leakcheck

import (
	"runtime"
	"testing"
	"time"

	"abnn2/internal/par"
)

// Base returns the goroutine count a scenario must come back down to. It
// first forces internal/par to start its process-lifetime pool workers —
// they start lazily at the first parallel kernel, so a base sampled before
// that counts them as a leak — and gives goroutines of earlier tests a
// moment to finish exiting.
func Base() int {
	par.Chunks(2, 2, func(_, _, _ int) {}) // two ranges always reach the pool
	time.Sleep(20 * time.Millisecond)
	return runtime.NumGoroutine()
}

// Settle waits for the goroutine count to return to base, failing with
// full stacks if it does not: a leak means some path blocked forever
// instead of erroring out.
func Settle(t testing.TB, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Errorf("%s: %d goroutines, want <= %d — leak:\n%s", what, runtime.NumGoroutine(), base, buf[:n])
}
