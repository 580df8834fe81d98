package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one cell share
// its fingerprint as Trace. IDs are unique within the process that
// recorded the span (Proc); Parent 0 marks a root.
type span struct {
	Name   string `json:"name"`
	Trace  string `json:"trace,omitempty"`
	Proc   string `json:"proc"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer records spans in memory; they are written out when the run
// ends. Safe for concurrent use.
type tracer struct {
	proc  string
	mu    sync.Mutex
	next  int
	spans []span
}

func newTracer(proc string) *tracer { return &tracer{proc: proc} }

// begin opens a span and returns it; end records it.
func (t *tracer) begin(name, trace string, parent int) span {
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return span{Name: name, Trace: trace, Proc: t.proc, ID: id, Parent: parent, Start: time.Now().UnixNano()}
}

func (t *tracer) end(s span) {
	s.End = time.Now().UnixNano()
	t.record(s)
}

// record keeps a finished span.
func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// do runs f inside a child span of parent.
func (t *tracer) do(name string, parent span, f func()) {
	s := t.begin(name, parent.Trace, parent.ID)
	f()
	t.end(s)
}

// selfSeconds returns, per span name, the summed self time: each span's
// duration minus the part of it that its children cover.
func selfSeconds(spans []span) map[string]float64 {
	type key struct {
		proc string
		id   int
	}
	children := map[key][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			k := key{s.Proc, s.Parent}
			children[k] = append(children[k], s)
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += float64(s.End-s.Start-covered(s, children[key{s.Proc, s.ID}])) / 1e9
	}
	return out
}

// covered returns how many nanoseconds of p the union of the child
// intervals covers.
func covered(p span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	cur := p.Start
	for _, k := range kids {
		lo, hi := max(k.Start, cur), min(k.End, p.End)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

// named returns the spans called name, in recording order.
func named(spans []span, name string) []span {
	var out []span
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the spans' durations in seconds.
func durations(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = s.seconds()
	}
	return out
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// busyFrac is the summed duration of the spans over workers × window.
func busyFrac(spans []span, workers int, window float64) float64 {
	if window <= 0 {
		return 0
	}
	return sum(durations(spans)) / (float64(workers) * window)
}
