// Package par provides the shared bounded worker pool behind every
// parallel protocol kernel in this repository: OT-extension column
// processing and triplet matmul accumulation, plus the two pipelines
// (pipeline.go) that overlap garbling, evaluation and OT extension with
// the wire.
//
// Three properties every range helper guarantees:
//
//   - Deterministic partition: [0, n) is split into contiguous ranges
//     whose boundaries depend only on the resolved worker count and n.
//     Callers write results through disjoint, index-addressed slots, so
//     protocol outputs (and seeded transcripts) are byte-identical for
//     any worker count — Workers(1) and Workers(32) produce the same
//     bytes, only at different speeds.
//
//   - Shared and bounded: one process-wide pool of GOMAXPROCS
//     goroutines serves every subsystem. Chunks, ChunksErr and Map never
//     spawn per-invocation goroutines, so a server handling many
//     concurrent sessions cannot fork an unbounded goroutine herd. (The
//     wire pipelines Ahead and Behind start at most Workers goroutines
//     per call and join them before returning; pipeline.go says why
//     they cannot borrow the pool.)
//
//   - Deadlock-free under saturation: task submission never blocks.
//     When the queue is full (nested parallelism, oversubscription) the
//     submitting goroutine runs the task inline, degrading to
//     sequential execution instead of deadlocking.
package par

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// Workers resolves a configured worker count: values <= 0 mean one
// worker per logical CPU (GOMAXPROCS), mirroring Config.Workers.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// The shared pool. Workers are started lazily on first use and live for
// the process lifetime; protocol kernels are bursty enough that parking
// idle goroutines is cheaper than respawning them per call.
var (
	poolOnce  sync.Once
	taskQueue chan func()
)

func startPool() {
	// The channel is deliberately unbuffered: a submit succeeds only as
	// a direct handoff to a worker that is parked and ready to run.
	// With a buffered queue, nested Chunks calls could enqueue subtasks
	// and then block in wg.Wait while every pool worker is itself
	// blocked in wg.Wait — a deadlock. Direct handoff means a task is
	// either running on a worker or runs inline on the submitter, so
	// completion never depends on queue drain.
	taskQueue = make(chan func())
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		go func() {
			for task := range taskQueue {
				task()
			}
		}()
	}
}

// submit hands task to a ready pool worker, or runs it inline when none
// is ready, so progress never depends on a free worker.
func submit(task func()) {
	poolOnce.Do(startPool)
	select {
	case taskQueue <- task:
	default:
		task()
	}
}

// NumChunks reports how many ranges Chunks and ChunksErr split [0, n)
// into for the given worker setting: min(Workers(workers), n), and 0
// when n <= 0. Callers use it to size per-chunk accumulator slots.
func NumChunks(workers, n int) int {
	if n <= 0 {
		return 0
	}
	k := Workers(workers)
	if k > n {
		k = n
	}
	return k
}

// Chunks splits [0, n) into NumChunks(workers, n) contiguous
// near-equal ranges and runs fn(c, lo, hi) for chunk c covering
// [lo, hi), concurrently on the shared pool. The final chunk runs on
// the calling goroutine. It returns after every chunk completes.
func Chunks(workers, n int, fn func(c, lo, hi int)) {
	// The error path is never taken; sharing the implementation keeps
	// the partition logic in one place.
	_ = ChunksErr(workers, n, func(c, lo, hi int) error {
		fn(c, lo, hi)
		return nil
	})
}

// ChunkPanic is the value re-panicked on the calling goroutine when a
// range body panics on a pool worker. Containing the panic inside the
// pool and rethrowing it on the submitter keeps panic semantics intact
// (callers may still recover) while guaranteeing that a poisoned chunk —
// e.g. a shape mismatch provoked by malformed peer data — can never kill
// an unrelated goroutine or the whole process from inside the shared
// pool.
type ChunkPanic struct {
	Value any    // the original panic value
	Stack []byte // stack of the panicking chunk
}

func (p *ChunkPanic) Error() string {
	return fmt.Sprintf("par: chunk panicked: %v", p.Value)
}

// ChunksErr is Chunks for range bodies that can fail. Every chunk runs
// to completion; the error of the lowest-numbered failing chunk is
// returned, so the result is deterministic even when several fail. A
// panicking chunk is re-panicked on the calling goroutine as a
// *ChunkPanic (again lowest-numbered first), never on a pool worker.
func ChunksErr(workers, n int, fn func(c, lo, hi int) error) error {
	k := NumChunks(workers, n)
	if k == 0 {
		return nil
	}
	if k == 1 {
		return fn(0, 0, n)
	}
	errs := make([]error, k)
	panics := make([]*ChunkPanic, k)
	var wg sync.WaitGroup
	for c := 0; c < k-1; c++ {
		c := c
		lo, hi := c*n/k, (c+1)*n/k
		wg.Add(1)
		submit(func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panics[c] = &ChunkPanic{Value: r, Stack: debug.Stack()}
				}
			}()
			errs[c] = fn(c, lo, hi)
		})
	}
	// The final chunk runs on the calling goroutine; its panics are
	// captured too so all chunks finish (wg.Wait) before any rethrow.
	func() {
		defer func() {
			if r := recover(); r != nil {
				panics[k-1] = &ChunkPanic{Value: r, Stack: debug.Stack()}
			}
		}()
		errs[k-1] = fn(k-1, (k-1)*n/k, n)
	}()
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Map runs fn(i) for every i in [0, n) using at most Workers(workers)
// concurrent range bodies. fn must only write to state addressed by i.
func Map(workers, n int, fn func(i int)) {
	Chunks(workers, n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}
