// Command agree compares two result files written by
// `benchmark --workload all --out`, metric by metric, against the bounds
// BENCHMARK.json fixes. Two sets agree when neither is worse than the
// other by more than a metric's bound, and the seeded wire counts
// (comm_mib_per_predict, flights_per_predict) are equal. It prints each
// workload on its own row and exits non-zero when the sets disagree.
//
//	go run -C benchmark ./agree out/set1.json out/set2.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"text/tabwriter"
)

type spec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

type report struct {
	Workloads map[string]struct {
		Failed   int `json:"requests_failed"`
		EndToEnd map[string]struct {
			Value float64 `json:"value"`
		} `json:"end_to_end"`
	} `json:"workloads"`
}

// exact names the metrics that must repeat to the last digit: with both
// parties seeded, bytes and flights are a property of the protocol.
var exact = map[string]bool{"comm_mib_per_predict": true, "flights_per_predict": true}

func load(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func main() {
	bench := flag.String("bench", "../BENCHMARK.json", "the benchmark's contract, for metric names and bounds")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: agree [-bench BENCHMARK.json] a.json b.json")
		os.Exit(2)
	}
	var sp spec
	var a, b report
	for _, f := range []struct {
		path string
		into any
	}{{*bench, &sp}, {flag.Arg(0), &a}, {flag.Arg(1), &b}} {
		if err := load(f.path, f.into); err != nil {
			fmt.Fprintln(os.Stderr, "agree:", err)
			os.Exit(2)
		}
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprint(tw, "workload")
	for _, m := range sp.EndToEnd {
		fmt.Fprintf(tw, "\t%s (%s, bound %g)", m.Name, m.Unit, m.Bound)
	}
	fmt.Fprintln(tw)
	disagreements := 0
	for _, w := range sp.Workloads {
		wa, oka := a.Workloads[w.Name]
		wb, okb := b.Workloads[w.Name]
		if !oka || !okb {
			fmt.Fprintf(tw, "%s\tmissing from a result file\n", w.Name)
			disagreements++
			continue
		}
		fmt.Fprint(tw, w.Name)
		if wa.Failed+wb.Failed > 0 {
			disagreements++
			fmt.Fprintf(tw, " (%d+%d requests FAILED)", wa.Failed, wb.Failed)
		}
		for _, m := range sp.EndToEnd {
			va, vb := wa.EndToEnd[m.Name].Value, wb.EndToEnd[m.Name].Value
			mark := ""
			if exact[m.Name] && va != vb || apart(va, vb) > m.Bound {
				mark = " DISAGREE"
				disagreements++
			}
			fmt.Fprintf(tw, "\t%.6g | %.6g (%+.1f%%)%s", va, vb, 100*(vb-va)/va, mark)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	if disagreements > 0 {
		fmt.Printf("%d disagreements\n", disagreements)
		os.Exit(1)
	}
	fmt.Println("the two sets agree within the bounds")
}

// apart is how much the worse of two values is worse than the better, as
// a share of the better: the same number whichever way a metric points.
func apart(a, b float64) float64 {
	lo, hi := min(a, b), max(a, b)
	if lo <= 0 {
		if hi == lo {
			return 0
		}
		return 1
	}
	return (hi - lo) / lo
}
