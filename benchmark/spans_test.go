package main

import (
	"math"
	"testing"
	"time"
)

// dump builds a synthetic two-party span dump: per request a client
// batch of 100 ms with an offline child (two triplets grandchildren) and
// an online child (relu, output), and a server batch with two matmuls.
// gap is the part of the client batch no child covers.
func dump(requests int, gap time.Duration, at time.Time) []traceSpan {
	ms := time.Millisecond
	var spans []traceSpan
	id := uint64(0)
	add := func(party, name string, parent uint64, d time.Duration, bytes, flights int64) uint64 {
		id++
		spans = append(spans, traceSpan{ID: id, Parent: parent, Party: party, Name: name,
			Start: at, Dur: d, BytesSent: bytes, Flights: flights})
		return id
	}
	for r := 0; r < requests; r++ {
		// Children are emitted before parents, as a tracer ends them.
		batchID := id + 6
		offID, onID := id+3, id+5
		add("client", "triplets", offID, 30*ms, 0, 0)
		add("client", "triplets", offID, 20*ms, 0, 0)
		add("client", "offline", batchID, 60*ms-gap, 1000, 4)
		add("client", "relu", onID, 30*ms, 0, 0)
		add("client", "online", batchID, 40*ms, 500, 3)
		add("client", "batch", 0, 100*ms, 1500, 7)
		sBatch := id + 3
		add("server", "matmul", sBatch, 2*ms, 0, 0)
		add("server", "matmul", sBatch, 3*ms, 0, 0)
		add("server", "batch", 0, 100*ms, 1500, 7)
		add("server", "idle", 0, 5*ms, 0, 0)
	}
	return spans
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestLedgerAggregatesAndTiles(t *testing.T) {
	at := time.Now()
	led, err := buildLedger(dump(5, 0, at), at)
	if err != nil {
		t.Fatal(err)
	}
	if led.Requests != 5 {
		t.Fatalf("%d requests, want 5", led.Requests)
	}
	for name, c := range map[string][2]float64{
		"batch": {led.Batch, 0.100}, "offline": {led.Offline, 0.060}, "triplets": {led.Triplets, 0.050},
		"online": {led.Online, 0.040}, "relu": {led.ReLU, 0.030}, "matmul": {led.Matmul, 0.005},
		"pool": {led.Pool, 0}, "offline bytes": {led.OfflineBytes, 1000}, "online flights": {led.OnlineFlights, 3},
		"residual": {led.Residual, 0}, "spans per request": {led.SpansPerRequest, 9},
	} {
		if !near(c[0], c[1]) {
			t.Errorf("%s = %v, want %v", name, c[0], c[1])
		}
	}
}

// A batch whose children leave 8 ms of 100 uncovered is over the limit.
func TestLedgerResidual(t *testing.T) {
	at := time.Now()
	led, err := buildLedger(dump(3, 8*time.Millisecond, at), at)
	if err != nil {
		t.Fatal(err)
	}
	if !near(led.Residual, 0.08) || led.Residual <= tilingLimit {
		t.Fatalf("residual %v, want 0.08 (over the %v limit)", led.Residual, tilingLimit)
	}
}

// Requests that began before the sink was armed are not counted, and a
// span whose parent never arrived is an error, not a silent gap.
func TestLedgerWindowAndOrphans(t *testing.T) {
	at := time.Now()
	early := dump(2, 0, at.Add(-time.Second))
	late := dump(3, 0, at)
	for i := range late { // keep ids apart: one tracer numbers all its spans
		late[i].ID += 1000
		if late[i].Parent != 0 {
			late[i].Parent += 1000
		}
	}
	led, err := buildLedger(append(early, late...), at)
	if err != nil {
		t.Fatal(err)
	}
	if led.Requests != 3 {
		t.Fatalf("%d requests, want the 3 that began after arming", led.Requests)
	}
	orphan := dump(1, 0, at)[:1] // a triplets span alone
	if _, err := buildLedger(orphan, at); err == nil {
		t.Fatal("a span without its parent was accepted")
	}
}
