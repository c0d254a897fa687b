package main

import (
	"encoding/json"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the harness into a layer. Op identifies
// the rep or job it belongs to, Parent the span that caused it (0 for a
// rep or job itself), TID the client that ran it.
type span struct {
	ID     int
	Parent int
	Name   string
	Op     int
	TID    int
	Start  time.Duration // since the tracer's epoch
	End    time.Duration
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the benchmark ends. A nil tracer
// records nothing, which is how timed operations run with spans off.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// open is a started span; end records it.
type open struct {
	t *tracer
	s span
}

// start opens a span under parent (nil for a rep or job).
func (t *tracer) start(name string, parent *open, op, tid int) *open {
	if t == nil {
		return nil
	}
	o := &open{t: t, s: span{Name: name, Op: op, TID: tid}}
	if parent != nil {
		o.s.Parent = parent.s.ID
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{}) // reserve the ID
	o.s.ID = len(t.spans)
	t.mu.Unlock()
	o.s.Start = time.Since(t.epoch)
	return o
}

func (o *open) end() {
	if o == nil {
		return
	}
	o.s.End = time.Since(o.t.epoch)
	o.t.mu.Lock()
	o.t.spans[o.s.ID-1] = o.s
	o.t.mu.Unlock()
}

// all returns the ended spans; one cut short by a failed operation
// never ended and is left out.
func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.ID != 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its children cover. Children may overlap each other
// (clients run concurrently) and are clipped to the parent.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		cs := children[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered := time.Duration(0)
		edge := s.Start // everything before edge is already counted
		for _, c := range cs {
			lo, hi := c.Start, c.End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// ledgerRow is one layer boundary's share of the traced operations.
type ledgerRow struct {
	Name    string  `json:"name"`
	Calls   int     `json:"calls"`
	TotalS  float64 `json:"total_s"`
	SelfS   float64 `json:"self_s"`
	MedianS float64 `json:"median_s"`
}

// ledger sums spans by name, in order of first appearance.
func ledger(spans []span) []ledgerRow {
	self := selfTimes(spans)
	var rows []ledgerRow
	at := map[string]int{}
	durs := map[string][]float64{}
	for _, s := range spans {
		i, ok := at[s.Name]
		if !ok {
			i = len(rows)
			at[s.Name] = i
			rows = append(rows, ledgerRow{Name: s.Name})
		}
		rows[i].Calls++
		rows[i].TotalS += s.dur().Seconds()
		rows[i].SelfS += self[s.ID].Seconds()
		durs[s.Name] = append(durs[s.Name], s.dur().Seconds())
	}
	for i := range rows {
		rows[i].MedianS = median(durs[rows[i].Name])
	}
	return rows
}

// unattributedShare is the part of the reps' or jobs' wall clock that
// no child span covers.
func unattributedShare(spans []span) float64 {
	self := selfTimes(spans)
	var total, own time.Duration
	for _, s := range spans {
		if s.Parent == 0 {
			total += s.dur()
			own += self[s.ID]
		}
	}
	if total == 0 {
		return 0
	}
	return own.Seconds() / total.Seconds()
}

// spanMedian is the median duration in seconds of the spans named name.
func spanMedian(spans []span, name string) float64 {
	var d []float64
	for _, s := range spans {
		if s.Name == name {
			d = append(d, s.dur().Seconds())
		}
	}
	return median(d)
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, which chrome://tracing and Perfetto load.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// workloadSpans are the spans of one workload's traced run.
type workloadSpans struct {
	workload string
	spans    []span
}

// chromeTrace renders each workload's spans as one process of a Chrome
// trace.
func chromeTrace(traces []workloadSpans) ([]byte, error) {
	events := []chromeEvent{}
	for pid, t := range traces {
		events = append(events, chromeEvent{
			Name: "process_name", Ph: "M", PID: pid + 1,
			Args: map[string]any{"name": t.workload},
		})
		for _, s := range t.spans {
			events = append(events, chromeEvent{
				Name: s.Name, Ph: "X", PID: pid + 1, TID: s.TID,
				TS:   float64(s.Start.Nanoseconds()) / 1e3,
				Dur:  float64(s.dur().Nanoseconds()) / 1e3,
				Args: map[string]any{"id": s.ID, "parent": s.Parent, "op": s.Op},
			})
		}
	}
	return json.MarshalIndent(map[string]any{"traceEvents": events}, "", " ")
}
