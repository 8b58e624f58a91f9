package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer: its name, the operation it
// served, its parent span (-1 for a root) and its interval in
// nanoseconds since the tracer started.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span of a traced run in memory; they are written
// out once the run ends. Several goroutines record into it (the client
// loop, the leader's publish path, the follower's subscription).
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// record appends a finished span and returns its id.
func (t *tracer) record(name string, op int64, parent int32, start, end int64) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: end})
	return id
}

// open starts a span whose interval is filled in by set; children may
// name it as their parent meanwhile.
func (t *tracer) open(name string, op int64, parent int32) int32 {
	now := t.now()
	return t.record(name, op, parent, now, -1)
}

// set fixes an open span's interval once it is known.
func (t *tracer) set(id int32, start, end int64) {
	t.mu.Lock()
	t.spans[id].Start, t.spans[id].End = start, end
	t.mu.Unlock()
}

// selfTimes returns, per span name, the self time of every finished
// span: its duration minus the part of its interval its children
// cover.
func (t *tracer) selfTimes() map[string][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int32][]int32)
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	out := make(map[string][]float64)
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		covered := int64(0)
		if kids := children[s.ID]; len(kids) > 0 {
			iv := make([][2]int64, 0, len(kids))
			for _, k := range kids {
				c := t.spans[k]
				lo, hi := max(c.Start, s.Start), min(c.End, s.End)
				if hi > lo {
					iv = append(iv, [2]int64{lo, hi})
				}
			}
			sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
			cur := [2]int64{-1, -1}
			for _, x := range iv {
				if x[0] > cur[1] {
					covered += cur[1] - cur[0]
					cur = x
				} else if x[1] > cur[1] {
					cur[1] = x[1]
				}
			}
			covered += cur[1] - cur[0]
		}
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-covered))
	}
	return out
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
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
