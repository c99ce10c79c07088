package bench

import (
	"fmt"

	"abnn2/internal/core"
	"abnn2/internal/quant"
)

// Table1Row is one analytic comparison row: communication as this
// implementation sends it (the KK13 code sized to N) and as the paper's
// Table 1 prints it (2*kappa column bits for every OT).
type Table1Row struct {
	System  string
	NumOTs  int64
	CommMB  float64
	PaperMB float64
}

// Table1 reproduces the paper's Table 1: analytic OT counts and
// communication for SecureML vs ABNN2's multi-batch and one-batch
// variants, for an m x n quantized matrix times an n x o matrix.
// The defaults mirror the microbenchmark scale (128 x 1000, l = 64,
// 8-bit weights as (2,2,2,2)); Quick shrinks n.
func Table1(opt Options) []Table1Row {
	m, n, o := 128, 1000, 16
	if opt.Quick {
		n = 100
	}
	const l = 64
	scheme := quant.Uniform(2, 4)
	shMulti := core.MatShape{M: m, N: n, O: o}
	shOne := core.MatShape{M: m, N: n, O: 1}

	rows := []Table1Row{}
	add := func(c core.Complexity) {
		rows = append(rows, Table1Row{System: c.Label, NumOTs: c.NumOTs, CommMB: c.CommMB(), PaperMB: c.PaperMB()})
	}
	add(core.SecureMLComplexity(l, shMulti))
	add(core.MultiBatchComplexity(l, scheme, shMulti))
	add(core.SecureMLComplexity(l, shOne))
	add(core.OneBatchComplexity(l, scheme, shOne))

	t := &table{header: []string{"system", "#OT", "comm(MB)", "paper 2k(MB)"}}
	for _, r := range rows {
		t.add(r.System, fmt.Sprint(r.NumOTs), mb(r.CommMB), mb(r.PaperMB))
	}
	fmt.Fprintf(opt.out(), "Table 1: OT complexity, %dx%d * %dx{%d,1}, l=%d, kappa=128\n%s\n",
		m, n, n, o, l, t)
	return rows
}
