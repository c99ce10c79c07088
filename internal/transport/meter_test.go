package transport

import (
	"math/rand"
	"sync"
	"testing"
)

// A send that fails must leave Stats untouched: the bytes never moved.
// Regression test for the metered wrapper recording before Conn.Send
// returned, which inflated Stats under fault injection.
func TestMeterSkipsFailedSends(t *testing.T) {
	a, _ := Pipe()
	meter := &Meter{}
	ma := &meteredConn{Conn: Fault(a, FaultPlan{Class: FaultDisconnect, Message: 1}), meter: meter, party: 1}

	if err := ma.Send([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	if err := ma.Send([]byte("never-arrives")); err == nil {
		t.Fatal("faulted send reported success")
	}
	s := meter.Snapshot()
	if s.BytesAB != 2 || s.Messages != 1 || s.Flights != 1 {
		t.Fatalf("stats after faulted send = %+v, want 2 bytes / 1 message / 1 flight", s)
	}
}

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

// Single-ended metering must agree with the two-ended pipe meter.
func TestMeterEndpointMatchesPipeMeter(t *testing.T) {
	pa, pb, pipeMeter := MeteredPipe()
	a, aMeter := MeterEndpoint(pa)
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

	want := pipeMeter.Snapshot()
	got := aMeter.Snapshot()
	if got != want {
		t.Fatalf("endpoint view %+v, pipe view %+v", got, want)
	}
	// B's view swaps directions: its sends are the pipe's BA traffic.
	bGot := bMeter.Snapshot()
	if bGot.BytesAB != want.BytesBA || bGot.BytesBA != want.BytesAB {
		t.Fatalf("peer endpoint view %+v vs pipe view %+v", bGot, want)
	}
	if bGot.Messages != want.Messages || bGot.Flights != want.Flights {
		t.Fatalf("peer message/flight view %+v vs pipe view %+v", bGot, want)
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
