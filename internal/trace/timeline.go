package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Cross-party timeline reconciliation: merge the span/flight dumps of a
// session's two endpoints into one timeline on the server's clock, and
// attribute every interval of the session's wall time to one of four
// classes. The attribution is a partition — the intervals tile the
// session exactly — so the per-class durations always sum to the wall
// time; Timeline.Check guards that invariant against merge regressions.
//
// Classes:
//
//	compute    a party is working between wire operations
//	wire       a message is in transit (or the receiver is blocked on it)
//	queue      dial, handshake, and admission-control wait
//	bank-wait  drawing/claiming correlations from the bank
//
// Clock offset. Each endpoint stamps its own flights with its own clock.
// Over an ordered lossless transport the i-th send of one party is the
// i-th receive of the other, so every matched (send, recv) pair bounds
// the offset from one side: recv_stamp - send_stamp = offset + transit,
// with transit > 0. Taking the minimum over each direction (the
// NTP-style min filter) and averaging the two bounds cancels the
// symmetric part of the transit time:
//
//	min_c2s = min over i of (server_recv_i - client_send_i) =  off + t1
//	min_s2c = min over j of (client_recv_j - server_send_j) = -off + t2
//	offset  = (min_c2s - min_s2c) / 2      error bound: (min_c2s + min_s2c) / 2
//
// where offset converts client stamps to the server clock. The bound is
// exact when the fastest flight in each direction saw equal transit.

// Attribution class names.
const (
	ClassCompute  = "compute"
	ClassWire     = "wire"
	ClassQueue    = "queue"
	ClassBankWait = "bank-wait"
)

// Interval is one attributed slice of the reconciled session timeline.
// Start is on the server's clock.
type Interval struct {
	Start time.Time     `json:"start"`
	Dur   time.Duration `json:"dur_ns"`
	Class string        `json:"class"`
	// Party owns the interval for compute/queue/bank-wait; empty for
	// wire time, which belongs to the link.
	Party string `json:"party,omitempty"`
	// Phase is the name of the innermost span covering the interval on
	// the owning party, "" when no span covers it.
	Phase string `json:"phase,omitempty"`
	// Layer is the covering span's layer index, -1 otherwise.
	Layer int `json:"layer"`
}

// AttrStat aggregates intervals by (class, party, phase, layer).
type AttrStat struct {
	Class string        `json:"class"`
	Party string        `json:"party,omitempty"`
	Phase string        `json:"phase,omitempty"`
	Layer int           `json:"layer"`
	Count int           `json:"count"`
	Dur   time.Duration `json:"dur_ns"`
}

// Timeline is the reconciled two-party view of one session.
type Timeline struct {
	Session uint64 `json:"session"`
	// Offset is added to client stamps to land on the server clock.
	Offset time.Duration `json:"clock_offset_ns"`
	// OffsetBound is the estimation error bound (half the summed minimum
	// one-way delays).
	OffsetBound time.Duration `json:"clock_offset_bound_ns"`
	// Pairs is the number of matched (send, recv) flight pairs the
	// offset was estimated from.
	Pairs int `json:"matched_flights"`
	// Start/End delimit the session on the server clock: first observed
	// event to last flight.
	Start     time.Time                `json:"start"`
	End       time.Time                `json:"end"`
	Wall      time.Duration            `json:"wall_ns"`
	Intervals []Interval               `json:"intervals"`
	ByClass   map[string]time.Duration `json:"by_class_ns"`
	Attr      []AttrStat               `json:"attribution"`
}

// EstimateOffset estimates the clock offset between the two endpoints of
// one session from their flight stamps, via the min filter described in
// the package comment. It returns the offset to add to client stamps, an
// error bound, and the number of matched pairs. Pairs whose sizes
// disagree (truncated or mismatched dumps) are skipped.
func EstimateOffset(client, server []Flight) (offset, bound time.Duration, pairs int, err error) {
	bySeq := func(fs []Flight, dir string) map[int64]Flight {
		m := make(map[int64]Flight)
		for _, f := range fs {
			if f.Dir == dir {
				m[f.Seq] = f
			}
		}
		return m
	}
	cSend, cRecv := bySeq(client, DirSend), bySeq(client, DirRecv)
	sSend, sRecv := bySeq(server, DirSend), bySeq(server, DirRecv)

	const none = time.Duration(1<<63 - 1)
	minC2S, minS2C := none, none
	for seq, cs := range cSend {
		sr, ok := sRecv[seq]
		if !ok || sr.Bytes != cs.Bytes {
			continue
		}
		pairs++
		if d := sr.Wall.Sub(cs.Wall); d < minC2S {
			minC2S = d
		}
	}
	for seq, ss := range sSend {
		cr, ok := cRecv[seq]
		if !ok || cr.Bytes != ss.Bytes {
			continue
		}
		pairs++
		if d := cr.Wall.Sub(ss.Wall); d < minS2C {
			minS2C = d
		}
	}
	if minC2S == none || minS2C == none {
		return 0, 0, pairs, fmt.Errorf("trace: need matched flights in both directions to estimate clock offset (client %d flights, server %d)", len(client), len(server))
	}
	// The bound is the half-sum of the minimum one-way delays — a
	// magnitude. Clock drift between the two minima can push the raw sum
	// below zero; report its size either way.
	if bound = (minC2S + minS2C) / 2; bound < 0 {
		bound = -bound
	}
	return (minC2S - minS2C) / 2, bound, pairs, nil
}

// BuildTimeline merges the spans and flights of one session — both
// parties' dumps concatenated — into a reconciled timeline. Spans and
// flights are filtered to the given session id; both parties must have
// contributed flights.
func BuildTimeline(session uint64, spans []Span, flights []Flight) (*Timeline, error) {
	var cf, sf []Flight
	for _, f := range flights {
		if f.Session != session {
			continue
		}
		switch f.Party {
		case "client":
			cf = append(cf, f)
		case "server":
			sf = append(sf, f)
		}
	}
	if len(cf) == 0 || len(sf) == 0 {
		return nil, fmt.Errorf("trace: session %d: flights from both parties required (client %d, server %d)", session, len(cf), len(sf))
	}
	offset, bound, pairs, err := EstimateOffset(cf, sf)
	if err != nil {
		return nil, fmt.Errorf("trace: session %d: %w", session, err)
	}

	// Reconcile onto the server clock: shift client stamps by +offset.
	shifted := make([]Flight, 0, len(cf)+len(sf))
	for _, f := range cf {
		f.Wall = f.Wall.Add(offset)
		shifted = append(shifted, f)
	}
	shifted = append(shifted, sf...)
	sort.SliceStable(shifted, func(i, j int) bool {
		if !shifted[i].Wall.Equal(shifted[j].Wall) {
			return shifted[i].Wall.Before(shifted[j].Wall)
		}
		// Ties: a send precedes the receive it caused.
		return shifted[i].Dir == DirSend && shifted[j].Dir == DirRecv
	})

	// Innermost-span lookup per party, over the session's leaf spans
	// with reconciled start times.
	leaves := map[string][]Span{}
	for _, s := range Leaves(spans) {
		if s.Session != session {
			continue
		}
		if s.Party == "client" {
			s.Start = s.Start.Add(offset)
		}
		leaves[s.Party] = append(leaves[s.Party], s)
	}

	// The session runs from the first observed event (span start or
	// flight) to the last flight; whatever happens after the final
	// flight is connection teardown, not session work.
	start := shifted[0].Wall
	for _, ss := range leaves {
		for _, s := range ss {
			if s.Start.Before(start) {
				start = s.Start
			}
		}
	}
	end := shifted[len(shifted)-1].Wall

	// Boundaries: every flight stamp, plus the edges of non-compute
	// spans (dial/admission/bank) so a single inter-flight gap can split
	// across classes when, say, admission wait ends mid-gap.
	bounds := []time.Time{start}
	for _, f := range shifted {
		bounds = append(bounds, f.Wall)
	}
	for _, ss := range leaves {
		for _, s := range ss {
			if classOfSpan(s.Name) == ClassCompute {
				continue
			}
			for _, t := range []time.Time{s.Start, s.Start.Add(s.Dur)} {
				if t.After(start) && t.Before(end) {
					bounds = append(bounds, t)
				}
			}
		}
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i].Before(bounds[j]) })

	tl := &Timeline{
		Session: session, Offset: offset, OffsetBound: bound, Pairs: pairs,
		Start: start, End: end, Wall: end.Sub(start),
		ByClass: map[string]time.Duration{},
	}
	// Flight stamps sorted, for "next flight at or after t" queries.
	ftimes := make([]time.Time, len(shifted))
	for i, f := range shifted {
		ftimes[i] = f.Wall
	}
	for i := 0; i+1 < len(bounds); i++ {
		a, b := bounds[i], bounds[i+1]
		if !b.After(a) {
			continue
		}
		// The flight that ends this gap (the first at or after b)
		// determines the class: waiting to receive is wire time, working
		// toward a send is the sender's time, refined by its spans.
		j := sort.Search(len(shifted), func(k int) bool { return !ftimes[k].Before(b) })
		if j == len(shifted) {
			break // past the last flight: teardown, out of scope
		}
		next := shifted[j]
		iv := Interval{Start: a, Dur: b.Sub(a), Layer: -1}
		if next.Dir == DirRecv {
			iv.Class = ClassWire
		} else {
			mid := a.Add(b.Sub(a) / 2)
			iv.Party = next.Party
			iv.Class = ClassCompute
			if sp, ok := covering(leaves[next.Party], mid); ok {
				iv.Class = classOfSpan(sp.Name)
				iv.Phase = sp.Name
				iv.Layer = sp.Layer
			}
		}
		tl.Intervals = append(tl.Intervals, iv)
		tl.ByClass[iv.Class] += iv.Dur
	}
	tl.Attr = aggregate(tl.Intervals)
	return tl, nil
}

// classOfSpan maps a span name to its attribution class.
func classOfSpan(name string) string {
	switch name {
	case "bank", "bank-peer":
		return ClassBankWait
	case "dial", "admission":
		return ClassQueue
	}
	return ClassCompute
}

// covering returns the innermost (latest-starting) span containing t.
func covering(spans []Span, t time.Time) (Span, bool) {
	var best Span
	found := false
	for _, s := range spans {
		if t.Before(s.Start) || t.After(s.Start.Add(s.Dur)) {
			continue
		}
		if !found || s.Start.After(best.Start) {
			best, found = s, true
		}
	}
	return best, found
}

func aggregate(ivs []Interval) []AttrStat {
	type key struct {
		class, party, phase string
		layer               int
	}
	idx := map[key]int{}
	var out []AttrStat
	for _, iv := range ivs {
		k := key{iv.Class, iv.Party, iv.Phase, iv.Layer}
		i, ok := idx[k]
		if !ok {
			i = len(out)
			idx[k] = i
			out = append(out, AttrStat{Class: iv.Class, Party: iv.Party, Phase: iv.Phase, Layer: iv.Layer})
		}
		out[i].Count++
		out[i].Dur += iv.Dur
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Class != out[j].Class {
			return classRank(out[i].Class) < classRank(out[j].Class)
		}
		return out[i].Dur > out[j].Dur
	})
	return out
}

func classRank(c string) int {
	switch c {
	case ClassCompute:
		return 0
	case ClassWire:
		return 1
	case ClassQueue:
		return 2
	case ClassBankWait:
		return 3
	}
	return 4
}

// Check verifies the partition invariant: the attributed intervals must
// tile the session, summing to the wall time within the given fraction
// (e.g. 0.01 for 1%).
func (tl *Timeline) Check(frac float64) error {
	var sum time.Duration
	for _, iv := range tl.Intervals {
		sum += iv.Dur
	}
	diff := tl.Wall - sum
	if diff < 0 {
		diff = -diff
	}
	if float64(diff) > frac*float64(tl.Wall) {
		return fmt.Errorf("trace: attributed %v of %v wall time (diff %v exceeds %.1f%%)",
			sum, tl.Wall, diff, frac*100)
	}
	return nil
}

// FormatTimeline renders the reconciled timeline as a human-readable
// report: offset estimate, per-class split, and the attribution table.
func FormatTimeline(tl *Timeline) string {
	var b strings.Builder
	fmt.Fprintf(&b, "session %d: wall %v (%s .. %s, server clock)\n",
		tl.Session, tl.Wall.Round(time.Microsecond),
		tl.Start.Format("15:04:05.000000"), tl.End.Format("15:04:05.000000"))
	fmt.Fprintf(&b, "clock offset (client->server): %v ± %v, from %d matched flights\n\n",
		tl.Offset.Round(time.Microsecond), tl.OffsetBound.Round(time.Microsecond), tl.Pairs)
	for _, c := range []string{ClassCompute, ClassWire, ClassQueue, ClassBankWait} {
		d := tl.ByClass[c]
		pct := 0.0
		if tl.Wall > 0 {
			pct = 100 * float64(d) / float64(tl.Wall)
		}
		fmt.Fprintf(&b, "%10s  %12v  %5.1f%%\n", c, d.Round(time.Microsecond), pct)
	}
	b.WriteString("\n")
	rows := [][]string{{"class", "party", "phase", "layer", "count", "time"}}
	for _, a := range tl.Attr {
		layer := "-"
		if a.Layer >= 0 {
			layer = fmt.Sprint(a.Layer)
		}
		phase := a.Phase
		if phase == "" {
			phase = "-"
		}
		party := a.Party
		if party == "" {
			party = "-"
		}
		rows = append(rows, []string{a.Class, party, phase, layer,
			fmt.Sprint(a.Count), a.Dur.Round(time.Microsecond).String()})
	}
	writeTable(&b, rows)
	return b.String()
}

// Sessions lists the session ids that have flights from both parties in
// the given set — the sessions BuildTimeline can reconcile.
func Sessions(flights []Flight) []uint64 {
	parties := map[uint64]map[string]bool{}
	for _, f := range flights {
		if parties[f.Session] == nil {
			parties[f.Session] = map[string]bool{}
		}
		parties[f.Session][f.Party] = true
	}
	var out []uint64
	for id, p := range parties {
		if p["client"] && p["server"] {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
