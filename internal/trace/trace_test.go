package trace

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"abnn2/internal/transport"
)

func TestNilTracerIsDisabled(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("setup")
	if sp != nil {
		t.Fatalf("disabled tracer returned a span")
	}
	// Every method must be a no-op on the nil SpanCtx.
	sp.SetLayer(3).SetBatch(2).SetWorkers(4)
	sp.End(errors.New("ignored"))
	if got := New(nil); got != nil {
		t.Fatalf("New(nil) = %v, want nil tracer", got)
	}
}

func TestNilTracerAllocatesNothing(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(100, func() {
		sp := tr.Start("matmul").SetLayer(1)
		sp.End(nil)
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer allocates %.1f per span", allocs)
	}
}

func TestSpanCountersAndNesting(t *testing.T) {
	var c Collector
	var ctr transport.Stats
	tr := New(&c,
		WithParty("client"), WithSession(7), WithLabel("run"),
		WithCounters(func() transport.Stats { return ctr }))

	root := tr.Start("batch").SetBatch(4)
	ctr.BytesAB += 100
	ctr.Messages++
	ctr.Flights++
	child := tr.Start("triplets").SetLayer(0).SetWorkers(8)
	ctr.BytesBA += 50
	ctr.Messages++
	ctr.Flights++
	child.End(nil)
	ctr.BytesAB += 10
	ctr.Messages++
	root.End(errors.New("boom"))

	spans := c.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	ch, rt := spans[0], spans[1]
	if ch.Name != "triplets" || ch.Layer != 0 || ch.Workers != 8 {
		t.Fatalf("child span = %+v", ch)
	}
	if ch.Parent != rt.ID {
		t.Fatalf("child parent = %d, want root id %d", ch.Parent, rt.ID)
	}
	if ch.BytesSent != 0 || ch.BytesRecvd != 50 || ch.Messages != 1 || ch.Flights != 1 {
		t.Fatalf("child counters = %+v", ch)
	}
	if rt.Parent != 0 || rt.Batch != 4 || rt.Layer != -1 {
		t.Fatalf("root span = %+v", rt)
	}
	if rt.BytesSent != 110 || rt.BytesRecvd != 50 || rt.Messages != 3 || rt.Flights != 2 {
		t.Fatalf("root counters = %+v", rt)
	}
	if rt.Err != "boom" {
		t.Fatalf("root err = %q", rt.Err)
	}
	for _, s := range spans {
		if s.Party != "client" || s.Session != 7 || s.Label != "run" {
			t.Fatalf("span identity = %+v", s)
		}
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONL(&buf)
	tr := New(sink, WithParty("server"))
	sp := tr.Start("offline").SetBatch(2)
	sub := tr.Start("triplets").SetLayer(1)
	sub.End(nil)
	sp.End(nil)

	spans, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Name != "triplets" || spans[0].Layer != 1 {
		t.Fatalf("span 0 = %+v", spans[0])
	}
	if spans[1].Name != "offline" || spans[1].Batch != 2 || spans[1].Layer != -1 {
		t.Fatalf("span 1 = %+v", spans[1])
	}
}

func TestMultiFansOutAndDropsNil(t *testing.T) {
	var a, b Collector
	sink := Multi(nil, &a, nil, &b)
	tr := New(sink)
	tr.Start("setup").End(nil)
	if len(a.Spans()) != 1 || len(b.Spans()) != 1 {
		t.Fatalf("multi sink did not fan out: %d/%d", len(a.Spans()), len(b.Spans()))
	}
	if Multi(nil, nil) != nil {
		t.Fatal("Multi of only nils should be nil")
	}
	if got := Multi(&a); got != Sink(&a) {
		t.Fatal("Multi of one sink should return it unwrapped")
	}
}

func TestRootsLeavesSummarize(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "setup", Layer: -1, Party: "client", BytesSent: 10, Dur: time.Millisecond},
		{ID: 2, Name: "batch", Layer: -1, Party: "client", BytesSent: 100, BytesRecvd: 40},
		{ID: 3, Parent: 2, Name: "offline", Layer: -1, Party: "client", BytesSent: 60},
		{ID: 4, Parent: 3, Name: "triplets", Layer: 0, Party: "client", BytesSent: 30},
		{ID: 5, Parent: 3, Name: "triplets", Layer: 1, Party: "client", BytesSent: 30},
	}
	roots := Roots(spans)
	if len(roots) != 2 {
		t.Fatalf("roots = %d, want 2", len(roots))
	}
	var rootBytes int64
	for _, s := range roots {
		rootBytes += s.Bytes()
	}
	if rootBytes != 150 {
		t.Fatalf("root bytes = %d, want 150", rootBytes)
	}
	leaves := Leaves(spans)
	if len(leaves) != 3 { // setup + two triplets layers
		t.Fatalf("leaves = %d, want 3: %+v", len(leaves), leaves)
	}
	stats := Summarize(leaves)
	if len(stats) != 3 {
		t.Fatalf("summary groups = %d, want 3", len(stats))
	}
	tbl := FormatTable(stats)
	for _, want := range []string{"setup", "triplets", "total"} {
		if !strings.Contains(tbl, want) {
			t.Fatalf("table missing %q:\n%s", want, tbl)
		}
	}
}

func TestSummarizeGroupsRepeats(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "relu", Layer: 0, Party: "server", BytesSent: 5, Messages: 1},
		{ID: 2, Name: "relu", Layer: 0, Party: "server", BytesSent: 7, Messages: 1},
		{ID: 3, Name: "relu", Layer: 1, Party: "server", BytesSent: 1, Messages: 1},
	}
	stats := Summarize(spans)
	if len(stats) != 2 {
		t.Fatalf("groups = %d, want 2", len(stats))
	}
	if stats[0].Count != 2 || stats[0].BytesSent != 12 || stats[0].Messages != 2 {
		t.Fatalf("layer-0 group = %+v", stats[0])
	}
}

// Two parties of an in-process run share one sink; Emit must be
// concurrency-safe.
func TestConcurrentEmit(t *testing.T) {
	var c Collector
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			tr := New(&c, WithSession(uint64(p)))
			for i := 0; i < 100; i++ {
				tr.Start("matmul").SetLayer(i).End(nil)
			}
		}(p)
	}
	wg.Wait()
	if got := len(c.Spans()); got != 400 {
		t.Fatalf("collected %d spans, want 400", got)
	}
}
