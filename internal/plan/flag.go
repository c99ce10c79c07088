package plan

import (
	"fmt"
	"strings"
	"text/tabwriter"
)

// FlagUsage documents the shared -plan flag value syntax.
const FlagUsage = "per-layer offline backend plan: auto (cost-model planner under -link), " +
	"a backend name (abnn2, secureml, minionn, quotient) for a uniform plan, " +
	"or one entry per layer as the tools print it, e.g. abnn2,abnn2:4(4),minionn " +
	"(empty = no plan, the all-ABNN2 default)"

// FromFlag resolves a -plan flag value against a model: "auto" runs
// the cost-model planner under in.Link; anything else is the plan's
// textual form (Plan.String), where a single entry stands for every
// layer. The empty value means no plan (nil, nil, nil); any other comes
// back validated and priced.
func FromFlag(val string, in Input) (*Plan, *Estimate, error) {
	switch val {
	case "":
		return nil, nil, nil
	case "auto":
		return Choose(in)
	}
	p, err := FromString(val)
	if err != nil {
		return nil, nil, fmt.Errorf("plan: bad -plan value %q (want auto, a backend name, or one entry per layer): %w", val, err)
	}
	if len(p.Layers) == 1 {
		one := p.Layers[0]
		p.Layers = make([]Choice, len(in.Arch.Layers))
		for i := range p.Layers {
			p.Layers[i] = one
		}
	}
	est, err := EstimatePlan(in, p)
	if err != nil {
		return nil, nil, err
	}
	return p, est, nil
}

// Table renders the estimate as an aligned predicted-cost table, one
// row per layer plus a totals row.
func (e *Estimate) Table() string {
	var sb strings.Builder
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "layer\tshape\tbackend\tpred comm\tflights\tpred time")
	var flights int
	for _, l := range e.Layers {
		name := l.Chosen.Choice.Backend.String()
		if s := l.Chosen.Choice.Scheme; s != "" {
			name += ":" + s
		}
		fmt.Fprintf(w, "%d\t%dx%dx%d\t%s\t%s\t%d\t%.3fs\n",
			l.Layer, l.Shape.M, l.Shape.N, l.Shape.O, name,
			fmtBits(l.Chosen.CommBits), l.Chosen.Flights, l.Chosen.Seconds)
		flights += l.Chosen.Flights
	}
	fmt.Fprintf(w, "total\t\t%s\t%s\t%d\t%.3fs\n", e.Link.Name, fmtBits(e.TotalCommBits()), flights, e.TotalSeconds())
	w.Flush()
	return sb.String()
}

// fmtBits renders a bit count as bytes with a binary unit.
func fmtBits(bits float64) string {
	b := bits / 8
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.2f MiB", b/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KiB", b/(1<<10))
	}
	return fmt.Sprintf("%.0f B", b)
}
