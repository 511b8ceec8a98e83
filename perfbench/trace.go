package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call the benchmark made into a layer. Spans of one
// frame or packet share Op; Parent names the span that caused this one.
// Times are nanoseconds since the tracer's epoch.
type Span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Op     uint64 `json:"op,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Node   int    `json:"node"`
}

func (s Span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// Tracer keeps spans in memory until the run ends. A nil *Tracer is a
// disabled tracer: every method is a cheap no-op, so untraced runs pay
// one nil check per call site.
type Tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []Span
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Now returns nanoseconds since the epoch (monotonic).
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// NewID allocates a span or operation identifier.
func (t *Tracer) NewID() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// Add records a finished span, allocating its ID when unset.
func (t *Tracer) Add(s Span) uint64 {
	if t == nil {
		return 0
	}
	if s.ID == 0 {
		s.ID = t.NewID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.ID
}

// Time runs fn inside a span named name and returns its duration.
func (t *Tracer) Time(name string, op, parent uint64, fn func()) time.Duration {
	start := t.Now()
	begin := time.Now()
	fn()
	d := time.Since(begin)
	if t != nil {
		t.Add(Span{Name: name, Op: op, Parent: parent, Start: start, End: start + int64(d)})
	}
	return d
}

// Named returns the recorded spans called name, in start order.
func (t *Tracer) Named(name string) []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	var out []Span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Len reports how many spans are recorded.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// WriteFile writes every span as one JSON object per line.
func (t *Tracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTime is a span's duration minus the part of its interval its
// children cover (overlapping children count once).
func selfTime(parent Span, children []Span) time.Duration {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			covered += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		covered += curB - curA
	}
	return parent.dur() - time.Duration(covered)
}
