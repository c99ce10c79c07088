// Command abnn2-bench regenerates the paper's evaluation tables (1-5),
// the CNN and planner extension tables, the accuracy ladder and the
// ablation studies from DESIGN.md.
//
// Usage:
//
//	abnn2-bench                 # tables 1-5 and cnn, full paper configuration
//	abnn2-bench -table 3        # one table: 1..5, cnn or plan
//	abnn2-bench -table plan -plan abnn2,minionn -link 9:72
//	abnn2-bench -quick          # scaled-down shapes (< 1 minute total)
//	abnn2-bench -ablations      # ablation studies only
//	abnn2-bench -accuracy       # quantization accuracy ladder only
//
// Full mode runs the exact paper shapes (Figure 4 network, batch sizes up
// to 128) and can take several minutes on one core; see EXPERIMENTS.md
// for recorded outputs and the paper-vs-measured discussion.
package main

import (
	"flag"
	"fmt"
	"os"

	"abnn2/internal/bench"
	"abnn2/internal/plan"
	"abnn2/internal/trace"
)

func main() {
	table := flag.String("table", "all", "which table to run: 1..5, cnn, plan, or all (1..5 and cnn)")
	quick := flag.Bool("quick", false, "scaled-down shapes for a fast run")
	ablations := flag.Bool("ablations", false, "run ablation studies instead of tables")
	accuracy := flag.Bool("accuracy", false, "run the quantization accuracy ladder instead of tables")
	workers := flag.Int("workers", 0, "worker goroutines for protocol kernels (0 = one per CPU)")
	traceOut := flag.String("trace-out", "", "append per-phase protocol spans as JSONL to this file (empty = off); replay with abnn2-inspect -trace")
	planFlag := flag.String("plan", "", "for -table plan: "+plan.FlagUsage)
	linkFlag := flag.String("link", "", "for -table plan: link model pricing the plan (lan, wan, or MBps:RTTms; empty = wan)")
	flag.Parse()

	opt := bench.Options{Quick: *quick, Out: os.Stdout, Workers: *workers, Plan: *planFlag, Link: *linkFlag}
	if *traceOut != "" {
		f, err := os.OpenFile(*traceOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "abnn2-bench: open trace output: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		opt.Trace = trace.NewJSONL(f)
	}
	if *accuracy {
		bench.Accuracy(opt)
		return
	}
	if *ablations {
		bench.AblationOneBatch(opt)
		bench.AblationMultiBatch(opt)
		bench.AblationReLU(opt)
		bench.AblationFragmentN(opt)
		bench.AblationRing(opt)
		bench.AblationXONN(opt)
		return
	}
	run := map[string]func(bench.Options){
		"1":    func(o bench.Options) { bench.Table1(o) },
		"2":    func(o bench.Options) { bench.Table2(o) },
		"3":    func(o bench.Options) { bench.Table3(o) },
		"4":    func(o bench.Options) { bench.Table4(o) },
		"5":    func(o bench.Options) { bench.Table5(o) },
		"cnn":  func(o bench.Options) { bench.TableCNN(o) },
		"plan": func(o bench.Options) { bench.TablePlan(o) },
	}
	if *table == "all" {
		for _, k := range []string{"1", "2", "3", "4", "5", "cnn"} {
			run[k](opt)
		}
		return
	}
	f, ok := run[*table]
	if !ok {
		fmt.Fprintf(os.Stderr, "abnn2-bench: unknown table %q (want 1..5, cnn, plan, or all)\n", *table)
		os.Exit(2)
	}
	if *table == "plan" {
		if err := bench.CheckPlan(opt); err != nil {
			fmt.Fprintf(os.Stderr, "abnn2-bench: %v\n", err)
			os.Exit(2)
		}
	}
	f(opt)
}
