package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer's public entry point, recorded
// from outside the program.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 at the root
	Name   string `json:"name"`
	Batch  int    `json:"batch"` // stream batch index, -1 outside the stream
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call site. It is used
// from the benchmark's single calling goroutine only.
type tracer struct {
	t0    time.Time
	spans []span
	// self is the time spent inside begin/end, the tracing overhead.
	self time.Duration
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, batch int) int {
	if t == nil {
		return -1
	}
	s := time.Now()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Batch: batch, Start: s.Sub(t.t0).Nanoseconds()})
	t.self += time.Since(s)
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	e := time.Now()
	t.spans[id].End = e.Sub(t.t0).Nanoseconds()
	t.self += time.Since(e)
}

// childSeconds returns, for every span called parent, the summed
// duration of its direct children called name.
func (t *tracer) childSeconds(parent, name string) []float64 {
	idx := map[int]int{}
	var out []float64
	for _, s := range t.spans {
		if s.Name == parent {
			idx[s.ID] = len(out)
			out = append(out, 0)
		}
	}
	for _, s := range t.spans {
		if i, ok := idx[s.Parent]; ok && s.Name == name {
			out[i] += s.seconds()
		}
	}
	return out
}

// write stores the spans as one JSON array.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
