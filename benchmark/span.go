package main

import (
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from outside the program.
// Spans of one re-enacted request share Req; Parent is the ID of the span
// that caused this one (0 for a request's root). IDs start at 1.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Round  int    `json:"round"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Mallocs and Bytes are the runtime.MemStats Mallocs/TotalAlloc
	// deltas across the call; Work is the call's own work count (nonzeros,
	// work units, tasks, bytes — per span name, see README).
	Mallocs uint64 `json:"mallocs"`
	Bytes   uint64 `json:"bytes"`
	Work    int64  `json:"work"`
	// GStart and GEnd bracket the call together with the tracer's own
	// bookkeeping around it; what lies between them and [Start, End] is
	// what tracing cost.
	GStart int64 `json:"gross_start_ns"`
	GEnd   int64 `json:"gross_end_ns"`
}

func (s span) dur() int64   { return s.End - s.Start }
func (s span) gross() int64 { return s.GEnd - s.GStart }

// tracer keeps spans in memory until the run ends. The two ReadMemStats
// calls per span stop the world, so they sit outside [Start, End]: a
// span's duration is the call alone, and the price of tracing shows up in
// the gross interval and in trace.overhead_pct, not inside a layer number.
type tracer struct {
	epoch time.Time
	spans []span
	round int
	// counters are per-layer metrics no span carries, read off the
	// program's own counters when the traced pass ends.
	counters map[string]float64
	ms       runtime.MemStats
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), counters: make(map[string]float64)}
}

func (t *tracer) begin(name string, parent, req int) int {
	g0 := time.Since(t.epoch)
	runtime.ReadMemStats(&t.ms)
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Req: req, Round: t.round, Name: name,
		Mallocs: t.ms.Mallocs, Bytes: t.ms.TotalAlloc, GStart: int64(g0),
	})
	s := &t.spans[len(t.spans)-1]
	s.Start = int64(time.Since(t.epoch))
	return s.ID
}

func (t *tracer) end(id int, work int64) {
	end := int64(time.Since(t.epoch))
	runtime.ReadMemStats(&t.ms)
	s := &t.spans[id-1]
	s.End = end
	s.Mallocs = t.ms.Mallocs - s.Mallocs
	s.Bytes = t.ms.TotalAlloc - s.Bytes
	s.Work = work
	s.GEnd = int64(time.Since(t.epoch))
}

// call wraps one layer call in a span and returns the span's duration; f
// returns the call's work count.
func (t *tracer) call(name string, parent, req int, f func() int64) int64 {
	id := t.begin(name, parent, req)
	t.end(id, f())
	return t.spans[id-1].dur()
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its child spans cover, their bookkeeping included (children may be
// adjacent, nested deeper, or — were they ever concurrent — overlapping:
// the union is subtracted once).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].GStart < kids[b].GStart })
		covered, hi := int64(0), s.Start
		for _, k := range kids {
			lo, end := max(k.GStart, hi), min(k.GEnd, s.End)
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// spanSeries is one span name's calls over the traced rounds.
type spanSeries struct {
	// dur is the calls' own time, gross the same with the tracer's
	// bookkeeping around them, kids the summed time of their direct
	// child spans.
	dur, gross, kids series
	// work is the work count of the k-th call of a round; mallocs the
	// allocations of all the calls of a round, per round that made any.
	work    []int64
	mallocs []float64
	round   int // the round mallocs' last entry belongs to
}

func (s *spanSeries) callsPerRound() float64 { return float64(len(s.dur.calls)) }

func (s *spanSeries) totalWork() (w int64) {
	for _, x := range s.work {
		w += x
	}
	return w
}

// bySpan groups the spans by name, and within a name by round and by the
// order of the calls within the round.
func (t *tracer) bySpan() map[string]*spanSeries {
	kids := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		kids[s.Parent] += s.dur()
	}
	out := make(map[string]*spanSeries)
	for _, s := range t.spans {
		ss := out[s.Name]
		if ss == nil {
			ss = &spanSeries{round: -1}
			out[s.Name] = ss
		}
		if s.Round != ss.round {
			ss.round = s.Round
			ss.dur.endRound()
			ss.gross.endRound()
			ss.kids.endRound()
			ss.mallocs = append(ss.mallocs, 0)
		}
		if k := ss.dur.k; k == len(ss.work) {
			ss.work = append(ss.work, s.Work)
		}
		ss.dur.add(float64(s.dur()))
		ss.gross.add(float64(s.gross()))
		ss.kids.add(float64(kids[s.ID]))
		ss.mallocs[len(ss.mallocs)-1] += float64(s.Mallocs)
	}
	return out
}

// write stores the spans, each with its self time, as one JSON array.
func (t *tracer) write(path string) error {
	type stored struct {
		span
		Self int64 `json:"self_ns"`
	}
	self := selfTimes(t.spans)
	all := make([]stored, len(t.spans))
	for i, s := range t.spans {
		all[i] = stored{s, self[i]}
	}
	data, err := json.Marshal(all)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
