package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

// Offline analysis of recorded spans: aggregate a dump into the
// per-phase/per-layer cost tables of the paper's evaluation section.

// PhaseStat is the aggregate cost of one (party, phase, layer) group.
type PhaseStat struct {
	Party      string
	Name       string
	Layer      int // -1 when the phase is not layer-scoped
	Count      int
	Dur        time.Duration
	BytesSent  int64
	BytesRecvd int64
	Messages   int64
	Flights    int64
}

// Bytes returns the group's total traffic, both directions.
func (p PhaseStat) Bytes() int64 { return p.BytesSent + p.BytesRecvd }

// Roots filters to root spans (no parent). Root spans partition a
// session's wire traffic, so their byte counts sum to the endpoint's
// meter total; nested spans overlap their parents and would double
// count.
func Roots(spans []Span) []Span {
	var out []Span
	for _, s := range spans {
		if s.Parent == 0 {
			out = append(out, s)
		}
	}
	return out
}

// Leaves filters to spans no other span claims as parent — the
// finest-grained phases, which is what per-layer tables want.
func Leaves(spans []Span) []Span {
	hasChild := make(map[uint64]bool, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			hasChild[s.Parent] = true
		}
	}
	var out []Span
	for _, s := range spans {
		if !hasChild[s.ID] {
			out = append(out, s)
		}
	}
	return out
}

// Summarize aggregates spans by (party, name, layer), in first-seen
// order. Callers typically pass Roots or Leaves of a dump.
func Summarize(spans []Span) []PhaseStat {
	type key struct {
		party string
		name  string
		layer int
	}
	idx := make(map[key]int)
	var out []PhaseStat
	for _, s := range spans {
		k := key{s.Party, s.Name, s.Layer}
		i, ok := idx[k]
		if !ok {
			i = len(out)
			idx[k] = i
			out = append(out, PhaseStat{Party: s.Party, Name: s.Name, Layer: s.Layer})
		}
		out[i].Count++
		out[i].Dur += s.Dur
		out[i].BytesSent += s.BytesSent
		out[i].BytesRecvd += s.BytesRecvd
		out[i].Messages += s.Messages
		out[i].Flights += s.Flights
	}
	// Stable presentation: group parties together, keep first-seen order
	// within a party.
	sort.SliceStable(out, func(i, j int) bool { return out[i].Party < out[j].Party })
	return out
}

// FormatTable renders phase stats as a fixed-width text table, one row
// per group plus a totals row.
func FormatTable(stats []PhaseStat) string {
	var b strings.Builder
	header := []string{"party", "phase", "layer", "count", "time", "sent", "recvd", "msgs", "flights"}
	rows := [][]string{header}
	var tot PhaseStat
	for _, p := range stats {
		layer := "-"
		if p.Layer >= 0 {
			layer = fmt.Sprint(p.Layer)
		}
		rows = append(rows, []string{
			p.Party, p.Name, layer, fmt.Sprint(p.Count),
			p.Dur.Round(time.Microsecond).String(),
			fmtBytes(p.BytesSent), fmtBytes(p.BytesRecvd),
			fmt.Sprint(p.Messages), fmt.Sprint(p.Flights),
		})
		tot.Count += p.Count
		tot.Dur += p.Dur
		tot.BytesSent += p.BytesSent
		tot.BytesRecvd += p.BytesRecvd
		tot.Messages += p.Messages
		tot.Flights += p.Flights
	}
	rows = append(rows, []string{
		"", "total", "", fmt.Sprint(tot.Count),
		tot.Dur.Round(time.Microsecond).String(),
		fmtBytes(tot.BytesSent), fmtBytes(tot.BytesRecvd),
		fmt.Sprint(tot.Messages), fmt.Sprint(tot.Flights),
	})
	writeTable(&b, rows)
	return b.String()
}

// writeTable renders rows, the first of them the header, as columns two
// spaces apart with the header underlined.
func writeTable(out io.Writer, rows [][]string) {
	w := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	for i, r := range rows {
		fmt.Fprintln(w, strings.Join(r, "\t"))
		if i == 0 {
			rule := make([]string, len(r))
			for j, h := range r {
				rule[j] = strings.Repeat("-", len(h))
			}
			fmt.Fprintln(w, strings.Join(rule, "\t"))
		}
	}
	w.Flush()
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}
