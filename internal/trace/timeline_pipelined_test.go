package trace

import (
	"testing"
	"time"
)

// pipelinedSession is a synthetic offline layer of four chunks under a
// window of three: the server sends u #1..#3 back to back before the
// first payload arrives, so its sends interleave with the client's in
// wall-clock order, and u #2 and #3 sit in the client's socket until it
// gets to them. Times are on the server clock, 5 ms transit each way;
// client stamps are shifted by -skew. Every flight has its own size, so
// a pairing by anything other than the per-direction ordinal would pair
// mismatched sizes and be dropped.
//
//	 0, 2, 4 ms  server send u#1, u#2, u#3        (window exhausted)
//	 5 ms        client recv u#1;  9 ms client send p#1
//	 9 ms        client recv u#2 (arrived at 7); 13 ms client send p#2
//	13 ms        client recv u#3 (arrived at 9); 17 ms client send p#3
//	14 ms        server recv p#1; 16 ms server send u#4
//	18, 22 ms    server recv p#2, p#3
//	21 ms        client recv u#4; 25 ms client send p#4
//	30 ms        server recv p#4, layer ends
func pipelinedSession(skew time.Duration) (spans []Span, flights []Flight) {
	base := time.Unix(2000, 0)
	srv := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	cli := func(ms int) time.Time { return srv(ms).Add(-skew) }
	add := func(party, dir string, size int64, at []int, clock func(int) time.Time) {
		for i, ms := range at {
			seq := int64(i + 1)
			flights = append(flights, Flight{Party: party, Session: 3, Dir: dir, Seq: seq, Bytes: size + seq, Wall: clock(ms)})
		}
	}
	const u, p = 1000, 500
	add("server", DirSend, u, []int{0, 2, 4, 16}, srv)
	add("client", DirRecv, u, []int{5, 9, 13, 21}, cli)
	add("client", DirSend, p, []int{9, 13, 17, 25}, cli)
	add("server", DirRecv, p, []int{14, 18, 22, 30}, srv)

	spans = []Span{
		{ID: 1, Party: "server", Session: 3, Name: "triplets", Layer: 0, Start: srv(0), Dur: 30 * time.Millisecond},
		{ID: 2, Party: "client", Session: 3, Name: "triplets", Layer: 0, Start: cli(5), Dur: 20 * time.Millisecond},
	}
	return spans, flights
}

// TestBuildTimelineInterleavedSends: with the server sending ahead, the
// reconciled timeline must still pair flights by per-direction ordinal
// (all eight pairs, exact offset), and its intervals must still tile the
// session within the 1 % that abnn2-inspect -timeline enforces.
func TestBuildTimelineInterleavedSends(t *testing.T) {
	const skew = 80 * time.Millisecond
	spans, flights := pipelinedSession(skew)
	tl, err := BuildTimeline(3, spans, flights)
	if err != nil {
		t.Fatal(err)
	}
	if tl.Pairs != 8 {
		t.Errorf("matched %d flight pairs, want 8", tl.Pairs)
	}
	// The fastest pair in each direction saw the bare 5 ms transit (u#1,
	// u#4 and every payload); the queued u#2 and u#3 saw 7 and 9 ms and
	// must not win the min filter.
	if tl.Offset != skew || tl.OffsetBound != 5*time.Millisecond {
		t.Errorf("offset = %v ± %v, want %v ± 5ms", tl.Offset, tl.OffsetBound, skew)
	}
	if tl.Wall != 30*time.Millisecond {
		t.Errorf("wall = %v, want 30ms", tl.Wall)
	}
	if err := tl.Check(0.01); err != nil {
		t.Fatalf("partition: %v", err)
	}
	// Gaps that end in a send are the sender's compute, gaps that end in
	// a receive are wire: server 0-4 and 14-16, client 5-13, 16-17 and
	// 22-25 are compute; 4-5, 13-14, 17-22 and 25-30 are wire.
	want := map[string]time.Duration{
		ClassCompute: 18 * time.Millisecond,
		ClassWire:    12 * time.Millisecond,
	}
	for class, d := range want {
		if got := tl.ByClass[class]; got != d {
			t.Errorf("ByClass[%s] = %v, want %v", class, got, d)
		}
	}
	byParty := map[string]time.Duration{}
	for _, a := range tl.Attr {
		if a.Class != ClassCompute {
			continue
		}
		if a.Phase != "triplets" || a.Layer != 0 {
			t.Errorf("compute interval attributed to phase %q layer %d, want triplets/0", a.Phase, a.Layer)
		}
		byParty[a.Party] += a.Dur
	}
	if byParty["server"] != 6*time.Millisecond || byParty["client"] != 12*time.Millisecond {
		t.Errorf("compute split server=%v client=%v, want 6ms / 12ms", byParty["server"], byParty["client"])
	}
}
