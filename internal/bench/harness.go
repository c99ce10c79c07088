// Package bench prints the paper's evaluation as tables: Tables 1-5, the
// CNN and planner extension tables, the accuracy ladder and the ablation
// studies listed in DESIGN.md. Table 1 is analytic; every other row is a
// real protocol execution between two in-process parties under the one
// harness in this file (run): a pipe metered at each endpoint, wall time
// and exact wire traffic measured, the paper's published link parameters
// applied analytically for the LAN/WAN columns (transport.NetModel;
// DESIGN.md, "Substitutions"). It imports the protocol packages, never the
// root package.
//
// All randomness is seeded: rerunning a table reproduces its bytes and
// flights exactly, and testdata/quick.golden pins them.
package bench

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"text/tabwriter"
	"time"

	"abnn2/internal/prg"
	"abnn2/internal/quant"
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

// tracerOver builds one party's tracer over that party's endpoint meter
// (nil when tracing is off).
func tracerOver(opt Options, party, label string, meter *transport.Meter) *trace.Tracer {
	if opt.Trace == nil {
		return nil
	}
	return trace.New(opt.Trace, trace.WithParty(party), trace.WithLabel(label), trace.WithCounters(meter.Snapshot))
}

// side is what the harness hands one party: its endpoint of the pipe,
// that endpoint's meter, and its tracer (nil when tracing is off).
type side struct {
	conn  transport.Conn
	meter *transport.Meter
	trace *trace.Tracer
}

// offlinePhase wraps a party that generates triplets without an engine in
// the "offline" span an engine would have opened, so these runs leave
// their bytes and time in opt.Trace as the end-to-end ones do.
func offlinePhase(party func(side) error) func(side) error {
	return func(s side) error {
		sp := s.trace.Start("offline")
		err := party(s)
		sp.End(err)
		return err
	}
}

// testHookRun, set by TestQuickTablesPinned only, sees the label and the
// client endpoint's counters of every measurement a table row is built
// from.
var testHookRun func(label string, s transport.Stats)

func record(label string, s transport.Stats) {
	if testHookRun != nil {
		testHookRun(label, s)
	}
}

// run is the one two-party execution under every table: the two protocol
// sides run concurrently over a pipe metered at each endpoint, each with
// its own tracer emitting to opt.Trace under the row label. A side that
// fails closes its endpoint, so a peer parked in Recv returns instead of
// waiting out the test timeout; both errors come back joined.
//
// The measurement is the client endpoint's meter: BytesAB is what the
// client sent, and Flights, the NetModel input behind the LAN/WAN columns,
// counts in the client's own order (see transport.Stats).
func run(opt Options, label string, client, server func(side) error) (measurement, error) {
	a, b := transport.Pipe()
	ca, cliMeter := transport.MeterEndpoint(a)
	cb, srvMeter := transport.MeterEndpoint(b)
	defer ca.Close()
	cli := side{ca, cliMeter, tracerOver(opt, "client", label, cliMeter)}
	srv := side{cb, srvMeter, tracerOver(opt, "server", label, srvMeter)}
	errc := make(chan error, 1)
	start := time.Now()
	go func() {
		err := server(srv)
		if err != nil {
			cb.Close()
			err = fmt.Errorf("server: %w", err)
		}
		errc <- err
	}()
	cerr := client(cli)
	if cerr != nil {
		ca.Close()
		cerr = fmt.Errorf("client: %w", cerr)
	}
	serr := <-errc
	wall := time.Since(start)
	if err := errors.Join(cerr, serr); err != nil {
		return measurement{}, err
	}
	m := measurement{Wall: wall, Stats: cliMeter.Snapshot()}
	record(label, m.Stats)
	return m, nil
}

// mustRun is run for the table drivers: a seeded in-process run that
// fails is a bug, and the table cannot be printed without it.
func mustRun(opt Options, label string, client, server func(side) error) measurement {
	m, err := run(opt, label, client, server)
	if err != nil {
		panic(fmt.Sprintf("bench: %s: %v", label, err))
	}
	return m
}

// table is a tiny text table: columns two spaces apart, the header
// underlined.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) String() string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 0, 0, 2, ' ', 0)
	rule := make([]string, len(t.header))
	for i, h := range t.header {
		rule[i] = strings.Repeat("-", len(h))
	}
	for _, r := range append([][]string{t.header, rule}, t.rows...) {
		fmt.Fprintln(w, strings.Join(r, "\t"))
	}
	w.Flush()
	return b.String()
}

// secs prints a time; NaN, a row with none measured, prints "-".
func secs(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%.3f", v)
}

func mb(v float64) string { return fmt.Sprintf("%.2f", v) }

// layerShape is one fully connected layer: M outputs, N inputs.
type layerShape struct{ M, N int }

// shapes is the evaluation network's layers: the paper's Figure 4, or the
// scaled-down network every Quick table runs instead.
func (o Options) shapes() []layerShape {
	if o.Quick {
		return []layerShape{{32, 96}, {32, 32}, {10, 32}}
	}
	return []layerShape{{128, 784}, {128, 128}, {10, 128}}
}

// randWeights draws n weights uniformly from the scheme's range. The
// tables measure cost, which does not depend on weight values.
func randWeights(rng *prg.PRG, scheme quant.Scheme, n int) []int64 {
	min, max := scheme.Range()
	span := int(max - min + 1)
	w := make([]int64, n)
	for i := range w {
		w[i] = min + int64(rng.Intn(span))
	}
	return w
}
