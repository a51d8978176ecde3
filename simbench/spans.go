package main

import (
	"encoding/json"
	"sort"
	"sync"
	"time"
)

// tracer records a span around each call the benchmark makes into a
// layer: name, layer, start, end, parent span, and the run id shared by
// the pass. Spans stay in memory and are written out when the run ends. A
// nil *tracer records nothing, which is how untraced passes run.
type tracer struct {
	mu    sync.Mutex
	run   string
	t0    time.Time
	spans []span
}

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Run    string `json:"run"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was made
	End    int64  `json:"end_ns"`
}

func newTracer(run string) *tracer { return &tracer{run: run, t0: time.Now()} }

// begin opens a span under parent (0 for a root) and returns its id.
func (t *tracer) begin(parent int, layer, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: t.run, Layer: layer, Name: name, Start: now, End: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// total sums the durations of a layer's spans, of every name when name
// is empty.
func (t *tracer) total(layer, name string) time.Duration {
	var d int64
	for _, s := range t.spans {
		if s.Layer == layer && (name == "" || s.Name == name) {
			d += s.End - s.Start
		}
	}
	return time.Duration(d)
}

// selfTimes returns each layer's self time: a span's duration minus the
// part its child spans cover. Every instant is charged to the innermost
// spans open at it, split evenly when concurrent clients hold several
// open, so the self times of all layers sum to the time the root spans
// cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	type edge struct {
		at   int64
		id   int
		open bool
	}
	edges := make([]edge, 0, 2*len(t.spans))
	for _, s := range t.spans {
		edges = append(edges, edge{s.Start, s.ID, true}, edge{s.End, s.ID, false})
	}
	// Stable, so a span that opens and closes at one instant opens first.
	sort.SliceStable(edges, func(i, j int) bool { return edges[i].at < edges[j].at })
	open := make(map[int]bool)
	openKids := make(map[int]int)
	self := make(map[string]float64)
	var prev int64
	for _, e := range edges {
		if dt := e.at - prev; dt > 0 {
			var inner []int
			for id := range open {
				if openKids[id] == 0 {
					inner = append(inner, id)
				}
			}
			for _, id := range inner {
				self[t.spans[id-1].Layer] += float64(dt) / float64(len(inner))
			}
		}
		prev = e.at
		parent := t.spans[e.id-1].Parent
		if e.open {
			open[e.id] = true
			openKids[parent]++
		} else {
			delete(open, e.id)
			openKids[parent]--
		}
	}
	out := make(map[string]time.Duration, len(self))
	for layer, ns := range self {
		out[layer] = time.Duration(ns)
	}
	return out
}

func (t *tracer) write(path string) error {
	data, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return writeFileAtomic(path, data)
}
