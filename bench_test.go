// An external test package, like the examples: these benchmarks use
// nothing of the root package, only internal/bench, which drives the
// protocol packages directly and does not import abnn2.
package abnn2_test

// One testing.B benchmark per paper table plus the ablations, backed by
// the same harness as cmd/abnn2-bench. The benchmarks run the scaled-down
// (Quick) configurations so `go test -bench=.` completes in minutes on
// one core; `abnn2-bench` (no flags) runs the full paper shapes and is
// what EXPERIMENTS.md records. Custom metrics report exact protocol
// traffic alongside ns/op.

import (
	"testing"

	"abnn2/internal/bench"
)

func reportRows(b *testing.B, commMB float64) {
	b.ReportMetric(commMB, "comm-MB")
}

func BenchmarkTable1OTComplexity(b *testing.B) {
	var rows []bench.Table1Row
	for i := 0; i < b.N; i++ {
		rows = bench.Table1(bench.Options{Quick: true})
	}
	reportRows(b, rows[1].CommMB)
}

func BenchmarkTable2OfflineTriplets(b *testing.B) {
	var rows []bench.Table2Row
	for i := 0; i < b.N; i++ {
		rows = bench.Table2(bench.Options{Quick: true})
	}
	var total float64
	for _, r := range rows {
		total += r.CommMB
	}
	reportRows(b, total)
}

func BenchmarkTable3MatmulVsSecureML(b *testing.B) {
	var rows []bench.Table3Row
	for i := 0; i < b.N; i++ {
		rows = bench.Table3(bench.Options{Quick: true})
	}
	var total float64
	for _, r := range rows {
		total += r.CommMB
	}
	reportRows(b, total)
}

func BenchmarkTable4EndToEndVsMiniONN(b *testing.B) {
	var rows []bench.Table4Row
	for i := 0; i < b.N; i++ {
		rows = bench.Table4(bench.Options{Quick: true})
	}
	var total float64
	for _, r := range rows {
		total += r.CommMB
	}
	reportRows(b, total)
}

func BenchmarkTable5VsQuotient(b *testing.B) {
	var rows []bench.Table5Row
	for i := 0; i < b.N; i++ {
		rows = bench.Table5(bench.Options{Quick: true})
	}
	for _, r := range rows {
		if !r.Reference {
			reportRows(b, r.CommMB)
			break
		}
	}
}

func BenchmarkAblationOneBatch(b *testing.B) {
	var rows []bench.AblationRow
	for i := 0; i < b.N; i++ {
		rows = bench.AblationOneBatch(bench.Options{Quick: true})
	}
	reportRows(b, rows[1].CommMB)
}

func BenchmarkAblationMultiBatch(b *testing.B) {
	var rows []bench.AblationRow
	for i := 0; i < b.N; i++ {
		rows = bench.AblationMultiBatch(bench.Options{Quick: true})
	}
	reportRows(b, rows[0].CommMB)
}

func BenchmarkAblationReLU(b *testing.B) {
	var rows []bench.AblationRow
	for i := 0; i < b.N; i++ {
		rows = bench.AblationReLU(bench.Options{Quick: true})
	}
	reportRows(b, rows[1].CommMB)
}

func BenchmarkAblationFragmentN(b *testing.B) {
	var rows []bench.AblationRow
	for i := 0; i < b.N; i++ {
		rows = bench.AblationFragmentN(bench.Options{Quick: true})
	}
	reportRows(b, rows[1].CommMB)
}

func BenchmarkAblationRing(b *testing.B) {
	var rows []bench.AblationRow
	for i := 0; i < b.N; i++ {
		rows = bench.AblationRing(bench.Options{Quick: true})
	}
	reportRows(b, rows[1].CommMB)
}
