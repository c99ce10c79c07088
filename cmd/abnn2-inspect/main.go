// Command abnn2-inspect prints a quantized model's structure and its
// predicted secure-inference cost: per-layer OT counts and offline
// communication from the paper's Table 1 closed forms, plus GC costs for
// the activation layers — before running any protocol. Useful for sizing
// batch/bitwidth/link trade-offs offline.
//
// With -trace it instead replays a recorded span dump (the JSONL files
// written by the -trace-out flags of abnn2-server, abnn2-client, and
// abnn2-bench) and prints the measured per-phase/per-layer breakdown —
// the observed counterpart of the projections above, in the shape of
// the paper's cost tables.
//
// With -timeline it merges the JSONL dumps of a session's two endpoints
// (client and server -trace-out files, comma-separated) into one
// reconciled cross-party timeline: it estimates the clock offset between
// the parties from matched wire flights, shifts the client's stamps onto
// the server clock, and attributes every interval of the session's wall
// time to compute, wire transit, admission-queue wait, or bank wait —
// exiting non-zero if the attribution does not tile the wall time within
// -tolerance.
//
// Usage:
//
//	abnn2-train -out model.json
//	abnn2-inspect -model model.json -batch 1,32,128 -link 9:72
//	abnn2-inspect -trace spans.jsonl
//	abnn2-inspect -timeline client.jsonl,server.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"abnn2/internal/core"
	"abnn2/internal/gc"
	"abnn2/internal/nn"
	"abnn2/internal/otext"
	"abnn2/internal/plan"
	"abnn2/internal/trace"
	"abnn2/internal/transport"
)

func main() {
	modelPath := flag.String("model", "model.json", "quantized model JSON")
	batches := flag.String("batch", "1,32,128", "comma-separated batch sizes to project")
	ringBits := flag.Uint("ring", 32, "share ring bit width l")
	tracePath := flag.String("trace", "", "replay a JSONL span dump instead of projecting a model")
	timeline := flag.String("timeline", "", "merge comma-separated JSONL dumps (client and server) into a cross-party session timeline")
	session := flag.Uint64("session", 0, "session id for -timeline (0 = the unique session both parties recorded)")
	tolerance := flag.Float64("tolerance", 0.01, "allowed fraction of wall time left unattributed by -timeline before failing")
	jsonOut := flag.Bool("json", false, "emit the -timeline result as JSON instead of a table")
	planFlag := flag.String("plan", "", "print the "+
		"protocol planner's predicted per-layer cost table for -model (auto, a backend name, or one entry per layer, e.g. abnn2,minionn); "+
		"with -trace, also the measured per-layer offline spans beside it")
	linkFlag := flag.String("link", "wan", "link model pricing the projection table and -plan: lan, wan, or MBps:RTTms")
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("abnn2-inspect: ")

	if *timeline != "" {
		buildTimeline(*timeline, *session, *tolerance, *jsonOut)
		return
	}
	if *planFlag != "" {
		planReport(*modelPath, *planFlag, *linkFlag, batchSizes(*batches)[0], *ringBits, *tracePath)
		return
	}
	if *tracePath != "" {
		replayTrace(*tracePath)
		return
	}

	data, err := os.ReadFile(*modelPath)
	if err != nil {
		log.Fatalf("read model: %v", err)
	}
	qm, err := nn.UnmarshalQuantized(data)
	if err != nil {
		log.Fatalf("parse model: %v", err)
	}
	link, err := plan.ParseLink(*linkFlag)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("model: %d layers, scheme %s, frac %d, ring Z_2^%d\n",
		len(qm.Layers), qm.Layers[0].Scheme.Name(), qm.Frac, *ringBits)
	fmt.Println("\nlayers:")
	var outputs, ands, tableBytes int
	for i, l := range qm.Layers {
		kind := "FC"
		extra := ""
		if l.Conv != nil {
			kind = "conv"
			extra = fmt.Sprintf(" %dx%d/%d over %dx%dx%d", l.Conv.Kh, l.Conv.Kw, l.Conv.Stride, l.Conv.Ci, l.Conv.H, l.Conv.W)
		}
		if l.Pool != nil {
			extra += fmt.Sprintf(" + pool %d", l.Pool.K)
		}
		relu := ""
		if l.ReLU {
			relu = " + ReLU"
		}
		// The circuit the engine garbles per output: Algorithm 2 over one
		// pooling window, or over one neuron for a bare ReLU.
		var circ *gc.Circuit
		if l.Pool != nil {
			circ = gc.BatchMaxPoolCircuit(*ringBits, l.Pool.K*l.Pool.K, 1, l.ReLU)
		} else if l.ReLU {
			circ = gc.BatchReLUCircuit(*ringBits, 1)
		}
		if circ != nil {
			outputs += l.OutputSize()
			ands += l.OutputSize() * circ.NumAND()
			tableBytes += l.OutputSize() * circ.TableBytes()
		}
		req := ""
		if l.ReqC != 0 {
			req = fmt.Sprintf(" (requant %d/2^%d)", l.ReqC, l.ReqT)
		}
		fmt.Printf("  %d: %s %d -> %d%s%s%s\n", i, kind, l.In, l.OutputSize(), extra, relu, req)
	}

	fmt.Printf("\nprojected offline cost (Table 1 closed forms), %s link %.1f MB/s + %g ms RTT:\n",
		link.Name, link.BandwidthBytes/1e6, float64(link.RTT)/float64(time.Millisecond))
	fmt.Printf("%8s %14s %12s %14s\n", "batch", "#OT", "offline MB", "transfer s")
	for _, b := range batchSizes(*batches) {
		var ots int64
		var bits float64
		for _, l := range qm.Layers {
			c := core.OfflineComplexity(*ringBits, l.Scheme, core.ShapeAt(l.Shape, b))
			ots += c.NumOTs
			bits += c.CommBits
		}
		mb := bits / 8 / (1 << 20)
		fmt.Printf("%8d %14d %12.2f %14.2f\n", b, ots, mb, link.NetworkTime(transport.Stats{BytesAB: int64(bits / 8)}).Seconds())
	}

	fmt.Printf("\nactivations: %d ReLU neurons and pool windows/prediction -> %d AND gates, %.2f MB garbled tables\n",
		outputs, ands, float64(tableBytes)/(1<<20))
	fmt.Printf("(kappa = %d; every OT sends N-1 ciphertexts of batch*l bits: the candidate-0 pad is the mask at every batch size)\n", otext.Kappa)
}

// batchSizes parses -batch, a comma-separated list of positive batch
// sizes, and exits on any other entry.
func batchSizes(list string) []int {
	var sizes []int
	for _, bStr := range strings.Split(list, ",") {
		b, err := strconv.Atoi(strings.TrimSpace(bStr))
		if err != nil || b <= 0 {
			log.Fatalf("bad batch size %q", bStr)
		}
		sizes = append(sizes, b)
	}
	return sizes
}

// planReport prints the protocol planner's predicted per-layer cost
// table for a model at the given batch size, and — when a span dump is
// supplied — the measured per-layer offline ("triplets") spans beside the
// predictions, so a recorded run can be judged against the cost model
// that planned it.
func planReport(modelPath, planVal, linkVal string, batch int, ringBits uint, tracePath string) {
	data, err := os.ReadFile(modelPath)
	if err != nil {
		log.Fatalf("read model: %v", err)
	}
	qm, err := nn.UnmarshalQuantized(data)
	if err != nil {
		log.Fatalf("parse model: %v", err)
	}
	link, err := plan.ParseLink(linkVal)
	if err != nil {
		log.Fatal(err)
	}
	in := plan.Input{Arch: core.ArchOf(qm), RingBits: ringBits, Batch: batch, Link: link}
	p, est, err := plan.FromFlag(planVal, in)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plan: %s (batch %d, %s link)\n", p, batch, link.Name)
	fmt.Print(est.Table())
	if tracePath == "" {
		return
	}

	f, err := os.Open(tracePath)
	if err != nil {
		log.Fatalf("open trace: %v", err)
	}
	defer f.Close()
	spans, err := trace.ReadJSONL(f)
	if err != nil {
		log.Fatalf("parse trace: %v", err)
	}
	// One party's view of each layer's offline span is the measured
	// counterpart of the predicted row; prefer the client's (both
	// directions of the shared wire appear in either).
	party := "server"
	for _, s := range spans {
		if s.Party == "client" && s.Name == "triplets" {
			party = "client"
			break
		}
	}
	type agg struct {
		bytes, flights int64
		dur            float64
		n              int
	}
	perLayer := map[int]*agg{}
	for _, s := range spans {
		if s.Name != "triplets" || s.Party != party || s.Layer < 0 {
			continue
		}
		a := perLayer[s.Layer]
		if a == nil {
			a = &agg{}
			perLayer[s.Layer] = a
		}
		a.bytes += s.Bytes()
		a.flights += s.Flights
		a.dur += s.Dur.Seconds()
		a.n++
	}
	if len(perLayer) == 0 {
		log.Fatalf("trace %s holds no per-layer triplets spans", tracePath)
	}
	fmt.Printf("\nmeasured offline spans (%s party, %s):\n", party, tracePath)
	fmt.Printf("%5s %10s %12s %12s %9s %8s\n", "layer", "runs", "meas comm", "pred comm", "flights", "wall s")
	for li, l := range est.Layers {
		a := perLayer[li]
		if a == nil {
			fmt.Printf("%5d %10s\n", li, "-")
			continue
		}
		fmt.Printf("%5d %10d %12s %12s %9d %8.3f\n",
			li, a.n, fmtMB(a.bytes), fmtMB(int64(l.Chosen.CommBits/8)), a.flights, a.dur)
	}
}

// fmtMB renders a byte count in MB with enough precision for small
// layers.
func fmtMB(b int64) string {
	return fmt.Sprintf("%.3f MB", float64(b)/(1<<20))
}

// replayTrace loads a recorded span dump and prints the measured
// per-phase/per-layer cost breakdown plus per-session root totals.
func replayTrace(path string) {
	f, err := os.Open(path)
	if err != nil {
		log.Fatalf("open trace: %v", err)
	}
	defer f.Close()
	spans, err := trace.ReadJSONL(f)
	if err != nil {
		log.Fatalf("parse trace: %v", err)
	}
	if len(spans) == 0 {
		log.Fatalf("trace %s holds no spans", path)
	}
	sessions := map[uint64]bool{}
	for _, s := range spans {
		sessions[s.Session] = true
	}
	fmt.Printf("%s: %d spans, %d sessions\n\n", path, len(spans), len(sessions))
	fmt.Print(trace.FormatTable(trace.Summarize(spans)))

	roots := trace.Roots(spans)
	var sent, recvd, flights int64
	batches := 0
	for _, r := range roots {
		sent += r.BytesSent
		recvd += r.BytesRecvd
		flights += r.Flights
		if r.Name == "batch" && r.Err == "" {
			batches++
		}
	}
	fmt.Printf("\nroot totals: %d B sent, %d B received, %d flights, %d completed batches\n",
		sent, recvd, flights, batches)
}

// buildTimeline merges the span/flight dumps named in paths (comma-
// separated; typically the client's and the server's -trace-out files)
// and prints the reconciled cross-party timeline of one session. With
// session == 0 the session is auto-detected: exactly one session must
// have flights from both parties.
func buildTimeline(paths string, session uint64, tolerance float64, jsonOut bool) {
	var spans []trace.Span
	var flights []trace.Flight
	for _, p := range strings.Split(paths, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		f, err := os.Open(p)
		if err != nil {
			log.Fatalf("open dump: %v", err)
		}
		ss, ff, err := trace.ReadDump(f)
		f.Close()
		if err != nil {
			log.Fatalf("parse dump %s: %v", p, err)
		}
		spans = append(spans, ss...)
		flights = append(flights, ff...)
	}
	if session == 0 {
		ids := trace.Sessions(flights)
		switch len(ids) {
		case 0:
			log.Fatalf("no session has flights from both parties (did both endpoints trace with -trace-out?)")
		case 1:
			session = ids[0]
		default:
			log.Fatalf("%d sessions have flights from both parties (%v); pick one with -session", len(ids), ids)
		}
	}
	tl, err := trace.BuildTimeline(session, spans, flights)
	if err != nil {
		log.Fatal(err)
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(tl); err != nil {
			log.Fatalf("encode timeline: %v", err)
		}
	} else {
		fmt.Print(trace.FormatTimeline(tl))
	}
	if err := tl.Check(tolerance); err != nil {
		log.Fatal(err)
	}
}
