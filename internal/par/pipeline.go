package par

import (
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Ahead and Behind pipeline a loop whose in-order stage must stay on the
// calling goroutine — it owns the wire — against a stage that may run
// beside it. They are the one place this package starts goroutines per
// call instead of borrowing the shared pool: the stage beside the caller
// either blocks on the connection itself (an OT extension sending its
// column matrix) or must make progress while the caller is blocked on
// the connection, and submit's run-inline fallback would serialise
// exactly the overlap they exist for. Both bound their goroutines by the
// resolved worker count, join every one of them before returning on
// every path, and turn a panic on one of them into a *ChunkPanic raised
// on the caller, where the session guard can see it.

// asChunkPanic wraps a recovered panic value for the hand-off to the
// calling goroutine. A *ChunkPanic — a pool chunk's panic already
// rethrown once inside the stage — passes through unchanged.
func asChunkPanic(r any) *ChunkPanic {
	if cp, ok := r.(*ChunkPanic); ok {
		return cp
	}
	return &ChunkPanic{Value: r, Stack: debug.Stack()}
}

// produced is one item on its way from a producer to the consumer: the
// value, the error that ended production, or the panic to rethrow.
type produced[T any] struct {
	v        T
	err      error
	panicked *ChunkPanic
}

// Ahead runs produce(w, i) for i in [0, n) on min(Workers(workers), n)
// producer goroutines, w numbering the goroutine so it can own scratch,
// and consume(i, v) on the calling goroutine in index order. A producer
// takes a credit before it starts an item and the consumer returns it
// when consume(i) has returned, so at most window items are produced (or
// in production) and not yet consumed; with one worker the items are
// produced strictly in order on one goroutine, which is what a stateful
// producer such as an OT extension needs.
//
// The first failing item in index order decides the result: its produce
// error is returned, its panic re-raised. A consume error is returned at
// once. On every return path, panics included, the producers are told to
// stop and waited for; one that is blocked inside produce is released by
// whatever bounds that call (for a Send: peer hangup, the round deadline,
// cancellation).
func Ahead[T any](workers, window, n int, produce func(w, i int) (T, error), consume func(i int, v T) error) error {
	workers = NumChunks(workers, n)
	if workers == 0 {
		return nil
	}
	window = min(window, n)
	// Item i travels through slot i mod window. Credits keep item i+window
	// from starting before item i is consumed, so a slot is always empty
	// when its next item arrives and a producer's push never blocks.
	slots := make([]chan produced[T], window)
	for s := range slots {
		slots[s] = make(chan produced[T], 1)
	}
	credit := make(chan struct{}, window) // counting semaphore: items in flight
	stop := make(chan struct{})
	var (
		next atomic.Int64 // first item no producer has taken
		wg   sync.WaitGroup
	)
	run := func(w, i int) (p produced[T]) {
		defer func() {
			if r := recover(); r != nil {
				p = produced[T]{panicked: asChunkPanic(r)}
			}
		}()
		v, err := produce(w, i)
		return produced[T]{v: v, err: err}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				select {
				case credit <- struct{}{}:
				case <-stop:
					return
				}
				// A select with both cases ready picks either; once the
				// consumer has stopped, producing another item is wasted
				// and, for a producer that sends, may block.
				select {
				case <-stop:
					return
				default:
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				p := run(w, i)
				slots[i%window] <- p
				if p.err != nil || p.panicked != nil {
					return
				}
			}
		}(w)
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for i := 0; i < n; i++ {
		p := <-slots[i%window]
		if p.panicked != nil {
			panic(p.panicked)
		}
		if p.err != nil {
			return p.err
		}
		if err := consume(i, p.v); err != nil {
			return err
		}
		<-credit // item consumed: a producer may start one more
	}
	return nil
}

// Behind is Ahead's mirror image: produce(i) runs on the calling
// goroutine for i in [0, n) in order, and each result is handed to
// consume(w, i, v) on a goroutine of its own, at most
// min(Workers(workers), n) of them at a time, w numbering the slot the
// consumer holds so it can own scratch. The caller waits for a free slot
// before it starts a consumer, never before it produces, so at most one
// produced item is waiting beyond those being consumed.
//
// A produce error stops the loop and is returned. A consume error does
// not stop it — the caller keeps its side of the wire conversation to the
// end — and the lowest-indexed one is returned once every item has been
// produced. Every consumer is waited for on every return path; a panic in
// one is re-raised on the caller as a *ChunkPanic, lowest index first,
// ahead of any error.
func Behind[T any](workers, n int, produce func(i int) (T, error), consume func(w, i int, v T) error) error {
	workers = NumChunks(workers, n)
	if workers == 0 {
		return nil
	}
	free := make(chan int, workers) // slot numbers no consumer holds
	for w := 0; w < workers; w++ {
		free <- w
	}
	errs := make([]error, n)
	panics := make([]*ChunkPanic, n)
	produceErr := func() error {
		// Holding every slot means no consumer is running.
		defer func() {
			for w := 0; w < workers; w++ {
				<-free
			}
		}()
		for i := 0; i < n; i++ {
			v, err := produce(i)
			if err != nil {
				return err
			}
			w := <-free
			go func() {
				defer func() { free <- w }()
				defer func() {
					if r := recover(); r != nil {
						panics[i] = asChunkPanic(r)
					}
				}()
				errs[i] = consume(w, i, v)
			}()
		}
		return nil
	}()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	if produceErr != nil {
		return produceErr
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
