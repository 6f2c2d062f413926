package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// tracer keeps the traced run's spans in memory: one span per call the
// benchmark makes into a layer's public API, with its parent. A nil
// tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []spanRec
}

type spanRec struct {
	name       string
	start, end time.Duration // since epoch
	parent     int           // index into spans, -1 for a root
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, spanRec{name: name, start: now, end: -1, parent: parent})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// add records an already-measured span.
func (t *tracer) add(name string, parent int, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	s := start.Sub(t.epoch)
	t.mu.Lock()
	t.spans = append(t.spans, spanRec{name: name, start: s, end: s + d, parent: parent})
	t.mu.Unlock()
}

// call runs fn inside span name and returns its wall time, which
// untraced runs need too.
func (t *tracer) call(name string, parent int, fn func() error) (time.Duration, error) {
	id := t.begin(name, parent)
	start := time.Now()
	err := fn()
	d := time.Since(start)
	t.end(id)
	return d, err
}

// childCover returns, for span id, its duration and the part of it its
// direct children cover (children may overlap; their union is taken).
func (t *tracer) childCover(id int) (total, covered time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var kids []spanRec
	for _, s := range t.spans {
		if s.parent == id && s.end >= 0 {
			kids = append(kids, s)
		}
	}
	// Spans recorded after the fact (add) arrive out of start order.
	sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
	reach := time.Duration(-1)
	for _, s := range kids {
		covered += max(0, s.end-max(s.start, reach))
		reach = max(reach, s.end)
	}
	return t.spans[id].end - t.spans[id].start, covered
}

// writeChrome writes the spans as Chrome trace-event JSON (complete
// events, microsecond timestamps), loadable in Perfetto. Every span of
// one root shares the root's track.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		root := i
		for t.spans[root].parent >= 0 {
			root = t.spans[root].parent
		}
		events = append(events, event{
			Name: s.name, Ph: "X", PID: 1, TID: root,
			TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Args: map[string]int{"id": i, "parent": s.parent},
		})
	}
	t.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
