package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// The trace is recorded from outside the program: a span wraps each call
// the harness makes into a layer's public function. Spans live in memory
// until the run ends and are then written to out/trace-<workload>.json.

// span is one timed interval. Parent is the id of the span that caused it
// (-1 for a root); spans of one op share Op. Synthetic spans are rebuilt
// from durations the program returned (Diag.Iters, elapsed_ms) rather
// than timed by the harness.
type span struct {
	ID        int                `json:"id"`
	Parent    int                `json:"parent"`
	Op        int                `json:"op"`
	Name      string             `json:"name"`
	StartUS   float64            `json:"start_us"`
	EndUS     float64            `json:"end_us"`
	SelfUS    float64            `json:"self_us"`
	Synthetic bool               `json:"synthetic,omitempty"`
	Counts    map[string]float64 `json:"counts,omitempty"`
}

type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// newTracer reserves room for a run's spans up front, so that recording
// one rarely has to move the rest.
func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// ref addresses one open span. The zero ref (nil tracer) records nothing,
// so the untraced pass runs the same code with tracing off.
type ref struct {
	t      *tracer
	id, op int
}

func (t *tracer) us(at time.Time) float64 { return float64(at.Sub(t.t0).Nanoseconds()) / 1e3 }

func (t *tracer) open(parent, op int, name string, start time.Time, synthetic bool) ref {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, StartUS: t.us(start), Synthetic: synthetic})
	return ref{t, id, op}
}

// root opens the root span of op; a nil tracer yields the zero ref.
func (t *tracer) root(op int, name string) ref {
	if t == nil {
		return ref{}
	}
	return t.open(-1, op, name, time.Now(), false)
}

func (r ref) child(name string) ref {
	if r.t == nil {
		return ref{}
	}
	return r.t.open(r.id, r.op, name, time.Now(), false)
}

// synth records a closed child span from times the program reported.
func (r ref) synth(name string, start time.Time, d time.Duration) ref {
	if r.t == nil {
		return ref{}
	}
	c := r.t.open(r.id, r.op, name, start, true)
	c.endAt(start.Add(d))
	return c
}

func (r ref) end() { r.endAt(time.Now()) }

func (r ref) endAt(at time.Time) {
	if r.t == nil {
		return
	}
	r.t.mu.Lock()
	r.t.spans[r.id].EndUS = r.t.us(at)
	r.t.mu.Unlock()
}

func (r ref) count(key string, v float64) {
	if r.t == nil {
		return
	}
	r.t.mu.Lock()
	s := &r.t.spans[r.id]
	if s.Counts == nil {
		s.Counts = map[string]float64{}
	}
	s.Counts[key] += v
	r.t.mu.Unlock()
}

// finish computes self times: a span's duration minus its children's.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		t.spans[i].SelfUS = t.spans[i].EndUS - t.spans[i].StartUS
	}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			t.spans[s.Parent].SelfUS -= s.EndUS - s.StartUS
		}
	}
	return t.spans
}

// perOpMS returns, per op that has a span of that name, the summed self
// (or total) milliseconds of those spans.
func perOpMS(spans []span, name string, self bool) []float64 {
	byOp := map[int]float64{}
	for _, s := range spans {
		if s.Name != name || s.Op < 0 {
			continue
		}
		d := s.EndUS - s.StartUS
		if self {
			d = s.SelfUS
		}
		byOp[s.Op] += d / 1e3
	}
	ops := make([]int, 0, len(byOp))
	for op := range byOp {
		ops = append(ops, op)
	}
	sort.Ints(ops)
	out := make([]float64, len(ops))
	for i, op := range ops {
		out[i] = byOp[op]
	}
	return out
}

func writeTrace(dir, workload string, manifest map[string]any, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	body, err := json.Marshal(map[string]any{"manifest": manifest, "spans": spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), body, 0o644)
}
