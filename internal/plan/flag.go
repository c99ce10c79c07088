package plan

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"abnn2/internal/core"
)

// FlagUsage documents the shared -plan flag value syntax.
const FlagUsage = "per-layer offline backend plan: auto (cost-model planner under -link), " +
	"a backend name (abnn2, secureml, minionn, quotient) for a uniform plan, " +
	"or one entry per layer as the tools print it, e.g. abnn2,abnn2:4(4),minionn " +
	"(empty = no plan, the all-ABNN2 default)"

// Uniform builds the schedule running every one of n layers on backend b
// under the session scheme.
func Uniform(b core.BackendID, n int) core.Schedule {
	s := make(core.Schedule, n)
	for i := range s {
		s[i].Backend = b
	}
	return s
}

// FromFlag resolves a -plan flag value against a model: "auto" runs
// the cost-model planner under in.Link; anything else is the plan's
// text form (core.ParseSchedule), where a single entry stands for every
// layer. The empty value means no plan (nil, nil, nil); any other comes
// back validated and priced.
func FromFlag(val string, in Input) (core.Schedule, *Estimate, error) {
	switch val {
	case "":
		return nil, nil, nil
	case "auto":
		return Choose(in)
	}
	s, err := core.ParseSchedule(val)
	if err != nil {
		return nil, nil, fmt.Errorf("plan: bad -plan value %q (want auto, a backend name, or one entry per layer): %w", val, err)
	}
	if len(s) == 1 {
		one := s[0]
		s = make(core.Schedule, len(in.Arch.Layers))
		for i := range s {
			s[i] = one
		}
	}
	est, err := EstimatePlan(in, s)
	if err != nil {
		return nil, nil, err
	}
	return s, est, nil
}

// Table renders the estimate as an aligned predicted-cost table, one
// row per layer plus a totals row.
func (e *Estimate) Table() string {
	var sb strings.Builder
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "layer\tshape\tbackend\tpred comm\tflights\tpred time")
	var flights int
	for _, l := range e.Layers {
		fmt.Fprintf(w, "%d\t%dx%dx%d\t%s\t%s\t%d\t%.3fs\n",
			l.Layer, l.Shape.M, l.Shape.N, l.Shape.O, l.Chosen.Choice,
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
