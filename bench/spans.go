package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// request share Req; Parent is the ID of the span that caused this one
// (0 for a root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Req     int64  `json:"req"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so the untraced path runs the same code minus the
// clock reads.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// open appends a span starting now; under a parent it inherits the
// parent's request ID and, with fromParentStart, its start.
func (r *recorder) open(name string, parent int, req int64, fromParentStart bool) int {
	s := span{Name: name, Parent: parent, Req: req, StartNS: r.now()}
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = len(r.spans) + 1
	if parent != 0 {
		s.Req = r.spans[parent-1].Req
		if fromParentStart {
			s.StartNS = r.spans[parent-1].StartNS
		}
	}
	r.spans = append(r.spans, s)
	return s.ID
}

// root opens a span with no parent and returns its ID (0 on a nil
// recorder); req identifies the request to every span beneath it.
func (r *recorder) root(name string, req int64) int {
	if r == nil {
		return 0
	}
	return r.open(name, 0, req, false)
}

// child opens a span under parent, inheriting its request ID.
func (r *recorder) child(name string, parent int) int {
	if r == nil || parent == 0 {
		return 0
	}
	return r.open(name, parent, 0, false)
}

// childFromStart is child for an interval that began when its parent
// did — the start only the enclosing span observed.
func (r *recorder) childFromStart(name string, parent int) int {
	if r == nil || parent == 0 {
		return 0
	}
	return r.open(name, parent, 0, true)
}

// end closes a span; ID 0 is a no-op.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := r.now()
	r.mu.Lock()
	r.spans[id-1].EndNS = now
	r.mu.Unlock()
}

// writeFile writes the spans as JSONL.
func (r *recorder) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for i := range r.spans {
		if err = enc.Encode(&r.spans[i]); err != nil {
			break
		}
	}
	r.mu.Unlock()
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// selfTimes sums, per span name, each span's self time: its duration
// minus the part of that interval its child spans cover (overlapping
// children are counted once, and a child is clipped to its parent).
func selfTimes(spans []span) map[string]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]int64)
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, edge), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.Name] += s.EndNS - s.StartNS - covered
	}
	return self
}
