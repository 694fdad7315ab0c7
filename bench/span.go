package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// Track separates the replayed request path from the standalone passes
// that time inner calls the request path cannot reach from outside.
const (
	trackRequests   = 0
	trackStandalone = 1
)

// span is one timed call into a layer's public function. Spans of one
// request share its number; parent is the index of the span that caused
// this one (-1: a root).
type span struct {
	name    string
	start   time.Time
	end     time.Time
	parent  int
	request int
	track   int
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, which is how the untraced pass runs the same code.
type recorder struct {
	spans []span
}

// begin opens a span and returns its index, for end and for children.
func (r *recorder) begin(name string, parent, request, track int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{name: name, start: time.Now(), parent: parent, request: request, track: track})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) {
	if r == nil {
		return
	}
	r.spans[i].end = time.Now()
}

// selfTimes returns, per span name, each span's self time: its duration
// minus the part of that interval its child spans cover (overlapping
// children are counted once).
func (r *recorder) selfTimes() map[string][]time.Duration {
	children := make(map[int][]int)
	for i, s := range r.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := make(map[string][]time.Duration)
	for i, s := range r.spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return r.spans[kids[a]].start.Before(r.spans[kids[b]].start) })
		covered := time.Duration(0)
		edge := s.start // everything before edge is already counted
		for _, k := range kids {
			cs, ce := r.spans[k].start, r.spans[k].end
			if cs.Before(edge) {
				cs = edge
			}
			if ce.After(s.end) {
				ce = s.end
			}
			if ce.After(cs) {
				covered += ce.Sub(cs)
				edge = ce
			}
		}
		out[s.name] = append(out[s.name], s.end.Sub(s.start)-covered)
	}
	return out
}

// writeChrome writes the spans in Chrome trace-event form (load into
// chrome://tracing or Perfetto): one complete event per span, one timeline
// per track, the request number and parent in args.
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	var origin time.Time
	if len(r.spans) > 0 {
		origin = r.spans[0].start
	}
	events := make([]event, len(r.spans))
	for i, s := range r.spans {
		events[i] = event{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.track,
			Ts:   float64(s.start.Sub(origin)) / float64(time.Microsecond),
			Dur:  float64(s.end.Sub(s.start)) / float64(time.Microsecond),
			Args: map[string]int{"request": s.request, "parent": s.parent, "span": i},
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
