package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer of the program under test. Spans
// of one request (one proof, one HTTP operation) share Req; Parent is the
// ID of the span that caused this one, or 0 for a root.
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Req    int64         `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Dur is the span's wall duration.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Recorder keeps spans in memory until the run ends. A nil *Recorder is
// valid and records nothing, so untraced runs pay one nil check per call.
type Recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []Span
}

func newRecorder() *Recorder { return &Recorder{t0: time.Now()} }

// Start opens a span and returns its ID (0 on a nil recorder).
func (r *Recorder) Start(name string, parent int, req int64) int {
	if r == nil {
		return 0
	}
	t := time.Now()
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Req: req, Name: name, Start: t.Sub(r.t0)})
	r.mu.Unlock()
	return id
}

// End closes span id.
func (r *Recorder) End(id int) {
	if r == nil || id == 0 {
		return
	}
	t := time.Now()
	r.mu.Lock()
	r.spans[id-1].End = t.Sub(r.t0)
	r.mu.Unlock()
}

// Time runs fn inside a span named name.
func (r *Recorder) Time(name string, parent int, req int64, fn func(id int)) time.Duration {
	t := time.Now()
	id := r.Start(name, parent, req)
	fn(id)
	r.End(id)
	return time.Since(t)
}

// Spans returns a copy of the recorded spans.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// tracedVsPlain runs an operation traced and untraced, pairs times each,
// alternating which goes first so neither gains from its position, and
// returns the traced median over the untraced median, minus 1: the share
// by which tracing slows the operation. It is noisy around 0.
func tracedVsPlain(pairs int, traced, plain func() (time.Duration, error)) (float64, error) {
	var t, u []float64
	for i := 0; i < pairs; i++ {
		order := []bool{true, false}
		if i%2 == 1 {
			order = []bool{false, true}
		}
		for _, tr := range order {
			op, out := plain, &u
			if tr {
				op, out = traced, &t
			}
			d, err := op()
			if err != nil {
				return 0, err
			}
			*out = append(*out, d.Seconds())
		}
	}
	return median(t)/median(u) - 1, nil
}

// WriteFile writes the spans and their per-name self times as JSON.
func (r *Recorder) WriteFile(path string) error {
	spans := r.Spans()
	out := struct {
		Spans    []Span             `json:"spans"`
		SelfTime map[string]float64 `json:"self_time_s"`
	}{spans, map[string]float64{}}
	for name, d := range selfTimes(spans) {
		out.SelfTime[name] = d.Seconds()
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval covered by its direct children. Overlapping children (a
// parallel step) are merged first, so covered time is never counted twice.
func selfTimes(spans []Span) map[string]time.Duration {
	children := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += s.Dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent Span, kids []Span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curLo, curHi time.Duration
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	total += curHi - curLo
	return total
}

// durations lists the wall durations, in seconds, of every span named name.
func durations(spans []Span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.Dur().Seconds())
		}
	}
	return out
}
