package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Spans are recorded by the benchmark itself, around each call it makes
// into a layer; nothing inside the program is instrumented. They stay in
// memory until the run ends. A span's self time is its duration minus the
// part of it that its child spans cover.

// span is one recorded interval. Times are nanoseconds since the log's
// origin. Req groups the spans of one job; Parent is a span ID or -1.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int32  `json:"req"`
	Round  int32  `json:"round"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// spanLog collects spans from any number of goroutines. A nil *spanLog
// records nothing, so untraced runs pay one nil check per call site.
type spanLog struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// add records a finished span and returns its ID.
func (l *spanLog) add(name string, parent, req, round int32, start, end time.Time) int32 {
	if l == nil {
		return -1
	}
	l.mu.Lock()
	id := int32(len(l.spans))
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Req: req, Round: round, Name: name,
		Start: start.Sub(l.origin).Nanoseconds(), End: end.Sub(l.origin).Nanoseconds(),
	})
	l.mu.Unlock()
	return id
}

// reserve allocates an ID for a parent span whose end is not known yet;
// finish fills it in. Children can then name their parent while it runs.
func (l *spanLog) reserve(name string, parent, req, round int32, start time.Time) int32 {
	return l.add(name, parent, req, round, start, start)
}

func (l *spanLog) finish(id int32, end time.Time) {
	if l == nil || id < 0 {
		return
	}
	l.mu.Lock()
	l.spans[id].End = end.Sub(l.origin).Nanoseconds()
	l.mu.Unlock()
}

// computeSelf fills every span's Self: duration minus the union of its
// children's intervals, clipped to the span.
func computeSelf(spans []span) {
	children := make(map[int32][]int32)
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			children[p] = append(children[p], int32(i))
		}
	}
	for i := range spans {
		sp := &spans[i]
		dur := sp.End - sp.Start
		kids := children[sp.ID]
		if len(kids) == 0 {
			sp.Self = dur
			continue
		}
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered, curEnd int64
		curEnd = sp.Start
		for _, k := range kids {
			s, e := spans[k].Start, spans[k].End
			if s < curEnd {
				s = curEnd
			}
			if e > sp.End {
				e = sp.End
			}
			if e > s {
				covered += e - s
				curEnd = e
			}
		}
		sp.Self = dur - covered
	}
}

// spanAgg is the per-name rollup written beside the raw spans.
type spanAgg struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
	MeanMS  float64 `json:"mean_ms"`
}

func aggregateSpans(spans []span) []spanAgg {
	byName := map[string]*spanAgg{}
	for i := range spans {
		sp := &spans[i]
		a := byName[sp.Name]
		if a == nil {
			a = &spanAgg{Name: sp.Name}
			byName[sp.Name] = a
		}
		a.Count++
		a.TotalMS += float64(sp.End-sp.Start) / 1e6
		a.SelfMS += float64(sp.Self) / 1e6
	}
	out := make([]spanAgg, 0, len(byName))
	for _, a := range byName {
		a.MeanMS = a.TotalMS / float64(a.Count)
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// traceRoundsKept bounds the raw spans written out: the rollup covers the
// whole profiled phase, the raw list only its first rounds (a serve-mix run
// records several hundred thousand spans).
const traceRoundsKept = 2

// traceFile is the layout of benchmark/out/<workload>.trace.json.
type traceFile struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Note      string             `json:"note"`
	Summary   []spanAgg          `json:"summary"`
	CPUShares map[string]float64 `json:"cpu_shares"`
	CPUNs     int64              `json:"cpu_ns"`
	Spans     []span             `json:"spans"`
}

// finalize computes self times and returns the rollup plus the spans of
// the first rounds.
func (l *spanLog) finalize() (summary []spanAgg, kept []span) {
	if l == nil {
		return nil, nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	computeSelf(l.spans)
	summary = aggregateSpans(l.spans)
	for i := range l.spans {
		if l.spans[i].Round < traceRoundsKept {
			kept = append(kept, l.spans[i])
		}
	}
	return summary, kept
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// meanMS returns the named rollup's mean duration, or 0 when absent.
func meanMS(summary []spanAgg, name string) float64 {
	for _, a := range summary {
		if a.Name == name {
			return a.MeanMS
		}
	}
	return 0
}
