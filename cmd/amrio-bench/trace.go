package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Spans are recorded here and nowhere else: around calls into each
// layer's exported functions, from outside the program under test. They
// stay in memory during the traced pass and are written at exit.
//
// The traced pass runs the real op under an "op" span and then replays
// each layer in turn, so child spans follow their parent in time rather
// than nesting inside it; parent is the logical link. A layer's self
// time is its span minus its children either way.

// span is one timed call (or replayed call) into a layer.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Op     int    `json:"op_id"`
	Parent int    `json:"parent"` // span ID; -1 for an op's root span
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Derived marks a span whose interval is a difference of two
	// replays (faults.price = priced with − without the fault plan),
	// not a directly timed call.
	Derived bool `json:"derived,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer collects spans.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, op, parent int) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Name: name, Op: op, Parent: parent,
		Start: time.Since(t.t0).Nanoseconds(),
	})
	return id
}

// end closes a span and returns its duration in nanoseconds. A
// negative ID (a span that was never opened) is ignored.
func (t *tracer) end(id int) int64 {
	if id < 0 {
		return 0
	}
	t.spans[id].End = time.Since(t.t0).Nanoseconds()
	return t.spans[id].dur()
}

// derive adds a child span of the given duration anchored at its
// parent's start (see span.Derived).
func (t *tracer) derive(name string, op, parent int, ns int64) {
	if parent < 0 {
		return
	}
	if ns < 0 {
		ns = 0
	}
	start := t.spans[parent].Start
	t.spans = append(t.spans, span{
		ID: len(t.spans), Name: name, Op: op, Parent: parent,
		Start: start, End: start + ns, Derived: true,
	})
}

// selfTimes returns each span's self time: its duration minus the
// durations of its direct children, floored at zero.
func selfTimes(spans []span) map[int]int64 {
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	for id, ns := range self {
		if ns < 0 {
			self[id] = 0
		}
	}
	return self
}

// opBreakdown is one op's time split by layer: the root span's
// duration, and the self time of every span under it summed by name.
// What the names do not add up to is unattributed.
type opBreakdown struct {
	opNS   int64
	byName map[string]int64
}

// breakdown groups spans by op.
func breakdown(spans []span) map[int]*opBreakdown {
	self := selfTimes(spans)
	out := map[int]*opBreakdown{}
	for _, s := range spans {
		b := out[s.Op]
		if b == nil {
			b = &opBreakdown{byName: map[string]int64{}}
			out[s.Op] = b
		}
		if s.Parent < 0 {
			b.opNS += s.dur()
			continue
		}
		b.byName[s.Name] += self[s.ID]
	}
	return out
}

// writeTrace writes the spans of one workload's traced pass.
func writeTrace(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, spans})
	if err != nil {
		return "", fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}
