package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.9, 4.6}, {1, 5},
	}
	for _, c := range cases {
		if got := percentile(xs, c.q); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if got := median([]float64{1, 2, 3, 10}); !near(got, 2.5) {
		t.Errorf("median of even count = %v, want 2.5", got)
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("empty input must yield 0")
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 4, 16}); !near(got, 4) {
		t.Errorf("geomean = %v, want 4", got)
	}
	if got := geomean([]float64{0.01, 100}); !near(got, 1) {
		t.Errorf("geomean = %v, want 1", got)
	}
	if geomean([]float64{1, 0}) != 0 || geomean(nil) != 0 {
		t.Error("geomean of a non-positive or empty input must be 0")
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		{ID: 1, Name: "step", Start: 0, End: 100 * ms},
		// Two overlapping children cover [10, 50) and one more [60, 70).
		{ID: 2, Parent: 1, Name: "msm", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "msm", Start: 30 * ms, End: 50 * ms},
		{ID: 4, Parent: 1, Name: "fold", Start: 60 * ms, End: 70 * ms},
		// A grandchild counts against its parent only.
		{ID: 5, Parent: 4, Name: "mul", Start: 62 * ms, End: 65 * ms},
		// A child overrunning its parent is clipped.
		{ID: 6, Name: "open", Start: 200 * ms, End: 210 * ms},
		{ID: 7, Parent: 6, Name: "msm", Start: 205 * ms, End: 220 * ms},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"step": 100*ms - 40*ms - 10*ms,
		"msm":  30*ms + 20*ms + 15*ms,
		"fold": 10*ms - 3*ms,
		"mul":  3 * ms,
		"open": 10*ms - 5*ms,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %v, want %v", name, got[name], w)
		}
	}
}

func TestRecorder(t *testing.T) {
	var nilRec *Recorder
	if id := nilRec.Start("x", 0, 0); id != 0 {
		t.Fatalf("nil recorder returned span %d", id)
	}
	nilRec.End(0)
	if nilRec.Spans() != nil {
		t.Fatal("nil recorder must record nothing")
	}

	r := newRecorder()
	r.Time("outer", 0, 7, func(id int) {
		r.Time("inner", id, 7, func(int) { time.Sleep(time.Millisecond) })
	})
	spans := r.Spans()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[1].Req != 7 {
		t.Fatalf("unexpected spans %+v", spans)
	}
	if spans[0].Dur() < spans[1].Dur() {
		t.Fatal("parent shorter than its child")
	}
}

func TestTracedVsPlain(t *testing.T) {
	var order []string
	op := func(name string, d time.Duration) func() (time.Duration, error) {
		return func() (time.Duration, error) { order = append(order, name); return d, nil }
	}
	got, err := tracedVsPlain(3, op("t", 11*time.Millisecond), op("u", 10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if !near(got, 0.1) {
		t.Errorf("overhead = %v, want 0.1", got)
	}
	if want := "tuuttu"; strings.Join(order, "") != want {
		t.Errorf("run order %q, want %q", strings.Join(order, ""), want)
	}
}
