// Command benchmark is the repository's layered benchmark: five named
// workloads over real TCP loopback sockets, the end-to-end metrics a user
// of the system sees, and a per-layer ledger from a traced run and a
// kernel replay. README.md has the workloads, the glossary and how the
// metrics interact; BENCHMARK.json has the contract the driver runs it by.
//
//	bash benchmark/run.sh --workload mlp_b1_lan --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh --workload all --seed 1 --out out/set1.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// defaultSeconds is run_seconds of BENCHMARK.json.
const defaultSeconds = 20

// report is the file -out writes and benchmark/agree reads.
type report struct {
	Seed      uint64             `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Link      string             `json:"link"`
	Workloads map[string]*record `json:"workloads"`
}

// record is one workload's untraced and traced run.
type record struct {
	Attempted   int                    `json:"requests_attempted"`
	Failed      int                    `json:"requests_failed"`
	FailedShare float64                `json:"failed_share"`
	Samples     int                    `json:"samples"`
	EndToEnd    map[string]metricValue `json:"end_to_end"`
	PerLayer    map[string]metricValue `json:"per_layer"`
}

// driverLine is the last line of standard output of a single-workload run.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name, or \"all\"")
	seed := flag.Uint64("seed", 1, "workload seed: inputs and both parties' Config.Seed derive from it")
	seconds := flag.Float64("seconds", defaultSeconds, "timed window of one run")
	traceFlag := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run and the replay")
	requests := flag.Int("requests", 0, "fixed requests per client and round instead of the time box")
	linkFlag := flag.String("link", "", "MBps:RTTms of the shaped link of mlp_b1_wan (default 24.3:40)")
	out := flag.String("out", "", "with -workload all: write every metric of every workload to this file")
	outDir := flag.String("trace-dir", "", "where traced runs write <workload>.trace.jsonl (default: out/ in the benchmark's directory)")
	flag.Parse()
	if *outDir == "" {
		// run.sh starts the binary at the root of the checkout, go run -C
		// benchmark inside the benchmark's directory.
		*outDir = "out"
		if _, err := os.Stat("benchmark/go.mod"); err == nil {
			*outDir = "benchmark/out"
		}
	}

	rc := runConfig{Seed: *seed, Seconds: *seconds, Requests: *requests, Link: wanLink, OutDir: *outDir}
	if *linkFlag != "" {
		l, err := parseLink(*linkFlag)
		if err != nil {
			fatal(err)
		}
		rc.Link = l
	}
	if rc.Seconds <= 0 || *traceFlag < 0 || *traceFlag > 1 {
		fatal(fmt.Errorf("-seconds must be positive and -trace 0 or 1"))
	}
	if *name == "all" {
		if err := runAll(rc, *out); err != nil {
			fatal(err)
		}
		return
	}
	w, err := findWorkload(*name)
	if err != nil {
		fatal(err)
	}
	run := runUntraced
	if *traceFlag == 1 {
		run = runTraced
	}
	res, err := run(w, rc)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", w.Name, err))
	}
	printTable(os.Stderr, w, rc, res)
	line, err := json.Marshal(driverLine{Correct: res.Failed == 0, Attempted: res.Attempted,
		Failed: res.Failed, Metrics: res.Metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// runAll runs every workload untraced and traced, prints every metric by
// name and fails if any request failed.
func runAll(rc runConfig, out string) error {
	rep := report{Seed: rc.Seed, Seconds: rc.Seconds, Link: rc.Link.String(), Workloads: map[string]*record{}}
	failed := 0
	for _, w := range workloads {
		e2e, err := runUntraced(w, rc)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		printTable(os.Stdout, w, rc, e2e)
		layers, err := runTraced(w, rc)
		if err != nil {
			return fmt.Errorf("%s (traced): %w", w.Name, err)
		}
		printTable(os.Stdout, w, rc, layers)
		attempted := e2e.Attempted + layers.Attempted
		rec := &record{Attempted: attempted, Failed: e2e.Failed + layers.Failed, Samples: e2e.Samples,
			EndToEnd: e2e.Metrics, PerLayer: layers.Metrics}
		rec.FailedShare = share(float64(rec.Failed), float64(attempted))
		rep.Workloads[w.Name] = rec
		failed += rec.Failed
		if r := layers.Metrics["core.tiling_residual_share"].Value; r > tilingLimit {
			return fmt.Errorf("%s: spans leave %.3f of the batch span unaccounted for (limit %.2f)", w.Name, r, tilingLimit)
		}
	}
	if out != "" {
		raw, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(raw, '\n'), 0o644); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d requests failed", failed)
	}
	return nil
}

// printTable prints one run's metrics by name, with units.
func printTable(dst io.Writer, w workload, rc runConfig, res result) {
	fmt.Fprintf(dst, "\n%s  seed=%d  seconds=%g  clients=%d  workers/party=%d\n",
		w.Name, rc.Seed, rc.Seconds, w.clients(), partyWorkers())
	if w.WAN {
		fmt.Fprintf(dst, "link: %s\n", rc.Link)
	}
	fmt.Fprintf(dst, "requests_attempted=%d requests_failed=%d failed_share=%g samples=%d\n",
		res.Attempted, res.Failed, share(float64(res.Failed), float64(res.Attempted)), res.Samples)
	if q := res.Quartiles; len(q) == 5 {
		fmt.Fprintf(dst, "request seconds: min %.4g  q1 %.4g  median %.4g  q3 %.4g  max %.4g\n", q[0], q[1], q[2], q[3], q[4])
	}
	for _, e := range res.Errors {
		fmt.Fprintln(dst, "  error:", e)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(dst, 0, 0, 2, ' ', 0)
	for _, n := range names {
		v := res.Metrics[n]
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", n, v.Value, v.Unit)
	}
	tw.Flush()
}
