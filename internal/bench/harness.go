// Package bench regenerates every table of the paper's evaluation
// section (Tables 1-5) plus the ablation studies listed in DESIGN.md.
// Each table function runs the real protocols between two in-process
// parties over pipes metered at each endpoint, measures wall time and
// exact wire traffic, and applies the paper's published link parameters
// analytically to produce LAN/WAN rows (see internal/transport's NetModel and DESIGN.md,
// "Substitutions").
//
// All randomness is seeded: rerunning a table reproduces it bit for bit.
package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"abnn2/internal/trace"
	"abnn2/internal/transport"
)

// Options tunes how much work the tables do. The zero value runs the
// full paper configuration; Quick trims batch sizes and dimensions so the
// whole suite finishes in well under a minute (used by `go test -bench`).
type Options struct {
	Quick bool
	Out   io.Writer // defaults to io.Discard when nil
	// Workers bounds the per-party kernel parallelism (core.Params.Workers)
	// of every measured protocol run. 0 means one worker per CPU; set 1 to
	// measure the sequential baselines.
	Workers int
	// Trace, when non-nil, receives per-phase spans from every traced
	// protocol run (both parties, Label set to the table row identity) —
	// the raw material behind each table entry. Nil disables tracing.
	Trace trace.Sink
	// Plan is TablePlan's -plan flag value ("" = auto); Link its -link
	// value ("" = wan). Other tables ignore both.
	Plan string
	Link string
}

func (o Options) out() io.Writer {
	if o.Out == nil {
		return io.Discard
	}
	return o.Out
}

// measurement is one protocol execution's cost profile.
type measurement struct {
	Wall  time.Duration
	Stats transport.Stats
}

// CommMB reports traffic in MiB, the unit the paper labels "MB".
func (m measurement) CommMB() float64 {
	return float64(m.Stats.TotalBytes()) / (1 << 20)
}

// timeUnder applies a network model: measured compute plus modelled wire
// time, in seconds.
func (m measurement) timeUnder(nm transport.NetModel) float64 {
	return nm.TotalTime(m.Wall, m.Stats).Seconds()
}

// runPair executes the two protocol sides concurrently over a metered
// pipe and returns the cost profile. Errors from either side abort.
func runPair(client func(transport.Conn) error, server func(transport.Conn) error) (measurement, error) {
	return runPairT(Options{}, "",
		func(c transport.Conn, _ *trace.Tracer) error { return client(c) },
		func(c transport.Conn, _ *trace.Tracer) error { return server(c) })
}

// tracerOver builds one party's tracer over that party's endpoint meter
// (nil when tracing is off).
func tracerOver(opt Options, party, label string, meter *transport.Meter) *trace.Tracer {
	if opt.Trace == nil {
		return nil
	}
	return trace.New(opt.Trace, trace.WithParty(party), trace.WithLabel(label), trace.WithCounters(func() trace.Counters {
		s := meter.Snapshot()
		return trace.Counters{BytesSent: s.BytesAB, BytesRecvd: s.BytesBA, Messages: s.Messages, Flights: s.Flights}
	}))
}

// runPairT is runPair with tracing: each side receives its own tracer
// (nil when opt.Trace is nil), both emitting to opt.Trace with the
// given row label.
//
// Each end of the pipe is metered on its own, and the measurement is the
// client endpoint's view: BytesAB is what the client sent, and Flights —
// the NetModel input behind the LAN/WAN columns — is counted in the order
// the client performed its operations. That order is fixed by the
// protocol; a meter shared by both ends would count flights in arrival
// order, which depends on scheduling now that the server sends ahead in
// the offline phase (see transport.Stats).
func runPairT(opt Options, label string, client func(transport.Conn, *trace.Tracer) error, server func(transport.Conn, *trace.Tracer) error) (measurement, error) {
	a, b := transport.Pipe()
	ca, cliMeter := transport.MeterEndpoint(a)
	cb, srvMeter := transport.MeterEndpoint(b)
	defer ca.Close()
	cliTr, srvTr := tracerOver(opt, "client", label, cliMeter), tracerOver(opt, "server", label, srvMeter)
	errc := make(chan error, 1)
	start := time.Now()
	go func() { errc <- server(cb, srvTr) }()
	cerr := client(ca, cliTr)
	serr := <-errc
	wall := time.Since(start)
	if cerr != nil {
		return measurement{}, fmt.Errorf("client: %w", cerr)
	}
	if serr != nil {
		return measurement{}, fmt.Errorf("server: %w", serr)
	}
	return measurement{Wall: wall, Stats: cliMeter.Snapshot()}, nil
}

// table is a tiny fixed-width text table writer.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		line(r)
	}
	return b.String()
}

func secs(v float64) string { return fmt.Sprintf("%.3f", v) }
func mb(v float64) string   { return fmt.Sprintf("%.2f", v) }
func count(v int64) string  { return fmt.Sprintf("%d", v) }

// fig4Shapes are the paper's evaluation network layer shapes (Figure 4).
type layerShape struct{ M, N int }

var fig4Shapes = []layerShape{{128, 784}, {128, 128}, {10, 128}}
