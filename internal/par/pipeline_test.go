package par_test

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"abnn2/internal/leakcheck"
	"abnn2/internal/par"
)

// Every test here samples leakcheck.Base first and ends on
// leakcheck.Settle: Ahead and Behind promise that nothing they start
// outlives the call.

// TestAheadOrderAndWindow: consume sees every item once, in order, with
// the value produce made for it; the producers never hold more than
// window items the consumer has not finished; no more than `workers`
// produce calls overlap; a worker number is never used by two calls at
// once.
func TestAheadOrderAndWindow(t *testing.T) {
	for _, tc := range []struct{ workers, window, n int }{
		{1, 1, 5}, {1, 8, 3}, {1, 8, 20}, {3, 4, 25}, {8, 9, 4}, {4, 2, 17}, {2, 3, 0},
	} {
		tc := tc
		t.Run(fmt.Sprintf("w%d/win%d/n%d", tc.workers, tc.window, tc.n), func(t *testing.T) {
			base := leakcheck.Base()
			var (
				mu                  sync.Mutex
				started, consumed   int
				maxAhead, running   int
				maxRunning          int
				busy                = make([]bool, tc.workers)
				lastByWorker        = make([]int, tc.workers)
				sequentialViolation bool
			)
			for w := range lastByWorker {
				lastByWorker[w] = -1
			}
			next := 0
			err := par.Ahead(tc.workers, tc.window, tc.n,
				func(w, i int, _ <-chan struct{}) (int, error) {
					mu.Lock()
					started++
					maxAhead = max(maxAhead, started-consumed)
					running++
					maxRunning = max(maxRunning, running)
					if busy[w] || i <= lastByWorker[w] {
						sequentialViolation = true
					}
					busy[w], lastByWorker[w] = true, i
					mu.Unlock()
					runtime.Gosched()
					mu.Lock()
					running--
					busy[w] = false
					mu.Unlock()
					return i * i, nil
				},
				func(i, v int) error {
					if i != next || v != i*i {
						t.Errorf("consume(%d, %d), want (%d, %d)", i, v, next, next*next)
					}
					next++
					mu.Lock()
					consumed++
					mu.Unlock()
					return nil
				})
			if err != nil {
				t.Fatal(err)
			}
			if next != tc.n {
				t.Errorf("consumed %d items, want %d", next, tc.n)
			}
			// consumed is counted inside consume, before the credit comes
			// back, so the bound is exact.
			if maxAhead > tc.window {
				t.Errorf("%d items produced and unconsumed, window is %d", maxAhead, tc.window)
			}
			if maxRunning > tc.workers {
				t.Errorf("%d produce calls overlapped, workers is %d", maxRunning, tc.workers)
			}
			if sequentialViolation {
				t.Error("a worker number ran two items at once or out of order")
			}
			leakcheck.Settle(t, base, "success")
		})
	}
}

// TestAheadStallsAtWindow parks the consumer inside consume(0) and checks
// that exactly `window` items get produced and not one more, then that
// each finished consume releases exactly one.
func TestAheadStallsAtWindow(t *testing.T) {
	const workers, window, n = 2, 3, 10
	var produced atomic.Int32
	gate := make(chan struct{})
	waitFor := func(want int32) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for produced.Load() < want {
			if time.Now().After(deadline) {
				t.Fatalf("%d items produced, want %d", produced.Load(), want)
			}
			time.Sleep(time.Millisecond)
		}
		time.Sleep(30 * time.Millisecond)
		if got := produced.Load(); got != want {
			t.Fatalf("%d items produced, want exactly %d", got, want)
		}
	}
	done := make(chan error, 1)
	go func() {
		done <- par.Ahead(workers, window, n,
			func(_, i int, _ <-chan struct{}) (int, error) { produced.Add(1); return i, nil },
			func(int, int) error { <-gate; return nil })
	}()
	waitFor(window)
	gate <- struct{}{}
	waitFor(window + 1)
	close(gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if produced.Load() != n {
		t.Errorf("%d items produced, want %d", produced.Load(), n)
	}
}

// TestAheadErrors: the lowest-indexed failure decides, items before it
// are consumed, none after it is, and every path joins the producers.
func TestAheadErrors(t *testing.T) {
	boom := errors.New("boom")
	t.Run("produce", func(t *testing.T) {
		base := leakcheck.Base()
		for _, workers := range []int{1, 4} {
			var consumed []int
			err := par.Ahead(workers, 5, 12,
				func(_, i int, _ <-chan struct{}) (int, error) {
					if i == 6 || i == 8 {
						return 0, fmt.Errorf("item %d: %w", i, boom)
					}
					return i, nil
				},
				func(i, _ int) error { consumed = append(consumed, i); return nil })
			if err == nil || err.Error() != "item 6: boom" {
				t.Errorf("workers=%d: error %v, want item 6's", workers, err)
			}
			if len(consumed) != 6 {
				t.Errorf("workers=%d: consumed %v, want items 0-5", workers, consumed)
			}
		}
		leakcheck.Settle(t, base, "produce error")
	})
	t.Run("consume-stops-parked-producers", func(t *testing.T) {
		base := leakcheck.Base()
		var produced atomic.Int32
		err := par.Ahead(3, 4, 100,
			func(_, i int, _ <-chan struct{}) (int, error) { produced.Add(1); return i, nil },
			func(i, _ int) error {
				if i == 2 {
					return boom
				}
				return nil
			})
		if !errors.Is(err, boom) {
			t.Errorf("error %v, want boom", err)
		}
		// Items 0 and 1 returned their credits; item 2 did not.
		if got := produced.Load(); got > 2+4 {
			t.Errorf("%d items produced around a consumer that failed at item 2 with window 4", got)
		}
		leakcheck.Settle(t, base, "consume error")
	})
	t.Run("stop-releases-waiting-producers", func(t *testing.T) {
		// Item i waits for a token consume(i-1) hands over, the way a
		// garbler's producer waits for its label-OT block. A consumer that
		// fails hands over nothing more; stop must end every wait.
		base := leakcheck.Base()
		const n = 10
		tokens := make([]chan struct{}, n)
		for i := range tokens {
			tokens[i] = make(chan struct{}, 1)
		}
		tokens[0] <- struct{}{}
		err := par.Ahead(3, 4, n,
			func(_, i int, stop <-chan struct{}) (int, error) {
				select {
				case <-tokens[i]:
					return i, nil
				case <-stop:
					return 0, errors.New("stopped")
				}
			},
			func(i, _ int) error {
				if i == 3 {
					return boom
				}
				tokens[i+1] <- struct{}{}
				return nil
			})
		if !errors.Is(err, boom) {
			t.Errorf("error %v, want boom", err)
		}
		leakcheck.Settle(t, base, "stop")
	})
}

// TestAheadPanics: a panic in produce resurfaces on the caller as a
// *par.ChunkPanic carrying the producer's stack, a *par.ChunkPanic raised inside
// produce passes through unwrapped, and a panic in consume propagates as
// it is — each with the producers joined.
func TestAheadPanics(t *testing.T) {
	catch := func(f func()) (r any) {
		defer func() { r = recover() }()
		f()
		return nil
	}
	base := leakcheck.Base()
	inner := &par.ChunkPanic{Value: "pool chunk", Stack: []byte("pool stack")}
	for _, tc := range []struct {
		name string
		with any
	}{{"plain", "kaboom"}, {"rethrown", inner}} {
		r := catch(func() {
			err := par.Ahead(2, 3, 9,
				func(_, i int, _ <-chan struct{}) (int, error) {
					if i == 4 {
						panic(tc.with)
					}
					return i, nil
				},
				func(int, int) error { return nil })
			t.Errorf("%s: returned %v, want a panic", tc.name, err)
		})
		cp, ok := r.(*par.ChunkPanic)
		if !ok {
			t.Fatalf("%s: recovered %T (%v), want *par.ChunkPanic", tc.name, r, r)
		}
		if tc.with == any(inner) {
			if cp != inner {
				t.Errorf("%s: chunk panic was re-wrapped", tc.name)
			}
		} else if cp.Value != tc.with || len(cp.Stack) == 0 {
			t.Errorf("%s: got value %v with %d stack bytes", tc.name, cp.Value, len(cp.Stack))
		}
	}
	if r := catch(func() {
		_ = par.Ahead(2, 3, 9,
			func(_, i int, _ <-chan struct{}) (int, error) { return i, nil },
			func(i, _ int) error {
				if i == 1 {
					panic("consumer")
				}
				return nil
			})
	}); r != "consumer" {
		t.Errorf("consumer panic came back as %v", r)
	}
	leakcheck.Settle(t, base, "panics")
}

// TestBehind: every item is produced on the caller in order and consumed
// once with its value, at most `workers` consumers overlap, a slot number
// is never shared, and the caller produces ahead of a busy consumer by
// one item, not more.
func TestBehind(t *testing.T) {
	for _, tc := range []struct{ workers, n int }{{1, 6}, {3, 10}, {8, 3}, {2, 0}} {
		base := leakcheck.Base()
		var (
			mu         sync.Mutex
			running    int
			maxRunning int
			busy       = make([]bool, tc.workers)
			shared     bool
			got        = make([]int, tc.n)
		)
		next := 0
		err := par.Behind(tc.workers, tc.n,
			func(i int) (int, error) {
				if i != next {
					t.Errorf("produce(%d), want %d", i, next)
				}
				next++
				return i + 100, nil
			},
			func(w, i, v int) error {
				mu.Lock()
				running++
				maxRunning = max(maxRunning, running)
				shared = shared || busy[w]
				busy[w] = true
				mu.Unlock()
				runtime.Gosched()
				got[i] = v
				mu.Lock()
				running--
				busy[w] = false
				mu.Unlock()
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i+100 {
				t.Errorf("workers=%d: item %d consumed value %d", tc.workers, i, v)
			}
		}
		if maxRunning > tc.workers || shared {
			t.Errorf("workers=%d: %d consumers overlapped (slot shared: %v)", tc.workers, maxRunning, shared)
		}
		leakcheck.Settle(t, base, "behind")
	}

	// With its one consumer parked, the caller produces item 1 and then
	// waits for the slot: two items produced, not three.
	var producedN atomic.Int32
	gate := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- par.Behind(1, 5,
			func(i int) (int, error) { producedN.Add(1); return i, nil },
			func(int, int, int) error { <-gate; return nil })
	}()
	deadline := time.Now().Add(10 * time.Second)
	for producedN.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(30 * time.Millisecond)
	if got := producedN.Load(); got != 2 {
		t.Errorf("%d items produced behind a parked consumer, want 2", got)
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestBehindFailures: a consume error lets the produce loop finish and
// the lowest-indexed one comes back; a produce error stops the loop and
// wins over consume errors; a consumer panic is re-raised as a
// *par.ChunkPanic ahead of either. Nothing outlives the call.
func TestBehindFailures(t *testing.T) {
	base := leakcheck.Base()
	boom := errors.New("boom")
	failAt := func(at ...int) func(int, int, int) error {
		return func(_, i, _ int) error {
			for _, a := range at {
				if i == a {
					return fmt.Errorf("consume %d: %w", i, boom)
				}
			}
			return nil
		}
	}
	produced := 0
	err := par.Behind(3, 8, func(i int) (int, error) { produced++; return i, nil }, failAt(5, 2))
	if err == nil || err.Error() != "consume 2: boom" || produced != 8 {
		t.Errorf("consume errors: got %v after %d items, want consume 2's after all 8", err, produced)
	}
	produced = 0
	err = par.Behind(3, 8, func(i int) (int, error) {
		if i == 4 {
			return 0, errors.New("produce 4")
		}
		produced++
		return i, nil
	}, failAt(0))
	if err == nil || err.Error() != "produce 4" || produced != 4 {
		t.Errorf("produce error: got %v after %d items, want produce 4's after 4", err, produced)
	}
	var r any
	func() {
		defer func() { r = recover() }()
		_ = par.Behind(2, 6, func(i int) (int, error) { return i, nil }, func(_, i, _ int) error {
			if i == 3 {
				panic("evaluator blew up")
			}
			return boom
		})
	}()
	if cp, ok := r.(*par.ChunkPanic); !ok || cp.Value != "evaluator blew up" || len(cp.Stack) == 0 {
		t.Errorf("consumer panic came back as %T %v", r, r)
	}
	leakcheck.Settle(t, base, "behind failures")
}
