package transport

import (
	"math/rand"
	"sync"
	"testing"
)

func TestMeterEndpointSkipsFailedOps(t *testing.T) {
	a, b := Pipe()
	// The fault plan fails the second send deterministically (and closes
	// the connection, so the following Recv fails too).
	ma, meter := MeterEndpoint(Fault(a, FaultPlan{Class: FaultDisconnect, Message: 1}))
	if err := ma.Send([]byte("one")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(); err != nil {
		t.Fatal(err)
	}
	if err := ma.Send([]byte("never-arrives")); err == nil {
		t.Fatal("faulted send reported success")
	}
	if _, err := ma.Recv(); err == nil {
		t.Fatal("recv on disconnected conn reported success")
	}
	s := meter.Snapshot()
	if s.BytesAB != 3 || s.BytesBA != 0 || s.Messages != 1 {
		t.Fatalf("stats = %+v, want only the successful 3-byte send", s)
	}
}

// The two ends of a pipe see the same traffic from opposite sides: bytes
// swap between them and the message counts agree. Under strict ping-pong
// both parties perform their operations in the same global order, so the
// flight counts agree too.
func TestMeterEndpointMatchesPipeMeter(t *testing.T) {
	a, pb, aMeter := MeteredPipe()
	b, bMeter := MeterEndpoint(pb)

	done := make(chan error, 1)
	go func() {
		for i := 0; i < 10; i++ {
			if _, err := b.Recv(); err != nil {
				done <- err
				return
			}
			if err := b.Send(make([]byte, 7)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 10; i++ {
		if err := a.Send(make([]byte, 100+i)); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	got, mirror := aMeter.Snapshot(), bMeter.Snapshot()
	want := Stats{BytesAB: 10*100 + 45, BytesBA: 10 * 7, Messages: 20, Flights: 20}
	if got != want {
		t.Fatalf("first end %+v, want %+v", got, want)
	}
	if mirror.BytesAB != got.BytesBA || mirror.BytesBA != got.BytesAB {
		t.Fatalf("second end %+v does not swap the first end's bytes %+v", mirror, got)
	}
	if mirror.Messages != got.Messages || mirror.Flights != got.Flights {
		t.Fatalf("second end %+v, first end %+v: messages or flights differ", mirror, got)
	}
}

// The second end sends ahead of what it is owed, and the first end's send
// lands somewhere among those k frames. The first end's meter counts in
// its own order — one send, then k receives — so it reads the same Stats
// every run; a meter shared by both ends would count flips in whichever
// order the two ends' sends happened to land.
func TestMeteredPipeSendAheadIsExact(t *testing.T) {
	const k = 256
	want := Stats{BytesAB: 11, BytesBA: k * 3, Messages: k + 1, Flights: 2}
	for run := 0; run < 200; run++ {
		a, b, meter := MeteredPipe()
		started, done := make(chan struct{}), make(chan error, 1)
		go func() {
			close(started)
			for i := 0; i < k; i++ {
				if err := b.Send(make([]byte, 3)); err != nil {
					done <- err
					return
				}
			}
			_, err := b.Recv()
			done <- err
		}()
		<-started
		if err := a.Send(make([]byte, 11)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < k; i++ {
			if _, err := a.Recv(); err != nil {
				t.Fatal(err)
			}
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if got := meter.Snapshot(); got != want {
			t.Fatalf("run %d: stats %+v, want %+v", run, got, want)
		}
		a.Close()
	}
}

// Concurrent senders on both parties: totals must be exact and the
// flight count bounded by [2, Messages] — flights are direction changes,
// so interleaving affects where they fall but not their invariants.
func TestMeterFlightCountingUnderConcurrentSenders(t *testing.T) {
	const perSide = 200
	a, b, meter := MeteredPipe()

	var wg sync.WaitGroup
	recv := func(c Conn) {
		defer wg.Done()
		for i := 0; i < perSide; i++ {
			if _, err := c.Recv(); err != nil {
				t.Errorf("recv: %v", err)
				return
			}
		}
	}
	send := func(c Conn, size int) {
		defer wg.Done()
		for i := 0; i < perSide; i++ {
			if err := c.Send(make([]byte, size)); err != nil {
				t.Errorf("send: %v", err)
				return
			}
		}
	}
	wg.Add(4)
	go recv(a)
	go recv(b)
	go send(a, 3)
	go send(b, 5)
	wg.Wait()

	s := meter.Snapshot()
	if s.BytesAB != perSide*3 || s.BytesBA != perSide*5 {
		t.Fatalf("byte totals = %+v", s)
	}
	if s.Messages != 2*perSide {
		t.Fatalf("messages = %d, want %d", s.Messages, 2*perSide)
	}
	if s.Flights < 2 || s.Flights > s.Messages {
		t.Fatalf("flights = %d outside [2, %d]", s.Flights, s.Messages)
	}
}

// Property-style identities for the Stats arithmetic used in per-phase
// accounting.
func TestStatsSubAddIdentities(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	randStats := func() Stats {
		return Stats{
			BytesAB:  rng.Int63n(1 << 40),
			BytesBA:  rng.Int63n(1 << 40),
			Messages: rng.Int63n(1 << 20),
			Flights:  rng.Int63n(1 << 20),
		}
	}
	for i := 0; i < 1000; i++ {
		s, o, p := randStats(), randStats(), randStats()
		if got := s.Add(o).Sub(o); got != s {
			t.Fatalf("(s+o)-o = %+v, want %+v", got, s)
		}
		if got := s.Sub(s); got != (Stats{}) {
			t.Fatalf("s-s = %+v, want zero", got)
		}
		if got := s.Add(Stats{}); got != s {
			t.Fatalf("s+0 = %+v, want %+v", got, s)
		}
		if s.Add(o) != o.Add(s) {
			t.Fatal("Add is not commutative")
		}
		if s.Add(o).Add(p) != s.Add(o.Add(p)) {
			t.Fatal("Add is not associative")
		}
		if got, want := s.Add(o).TotalBytes(), s.TotalBytes()+o.TotalBytes(); got != want {
			t.Fatalf("TotalBytes additivity: %d vs %d", got, want)
		}
	}
}
