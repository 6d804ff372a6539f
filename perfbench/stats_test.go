package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// TestQuartilesMatchPython pins quartiles to CPython's
// statistics.quantiles(xs, n=4), extrapolation for tiny samples included.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.1, 0.5, 2.2, 9.7, 4.4, 1.0, 7.3}, 1.0, 7.3},
		{[]float64{4}, 4, 4},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestQuantileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := quantile(xs, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v, %g) = %g, want %g", xs, c.q, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); !near(got, 2.5) {
		t.Errorf("median = %g, want 2.5", got)
	}
	if xs[0] != 5 {
		t.Error("quantile reordered its input")
	}
	if !math.IsNaN(median(nil)) || !math.IsNaN(mean(nil)) {
		t.Error("empty samples must give NaN")
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 4, 16}); !near(got, 4) {
		t.Errorf("geomean = %g, want 4", got)
	}
	for _, xs := range [][]float64{nil, {1, 0}, {2, -1}, {math.NaN()}} {
		if !math.IsNaN(geomean(xs)) {
			t.Errorf("geomean(%v) should be NaN", xs)
		}
	}
}

// TestSelfTimes checks exclusive time: a parent's self time excludes its
// children, and every span is counted.
func TestSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 50, End: 70, Parent: 0},
		{Name: "a", Start: 200, End: 210, Parent: -1},
		{Name: "open", Start: 300, End: -1, Parent: -1},
	}}
	self, count := tr.selfTimes()
	want := map[string]float64{"root": 50e-9, "a": 40e-9, "b": 20e-9}
	for name, w := range want {
		if !near(self[name], w) {
			t.Errorf("self[%s] = %g, want %g", name, self[name], w)
		}
	}
	if count["a"] != 2 || count["open"] != 0 {
		t.Errorf("counts %v", count)
	}
	var nilTracer *tracer
	nilTracer.do("x", -1, "", func() {})
	if s, _ := nilTracer.selfTimes(); len(s) != 0 {
		t.Error("a nil tracer must record nothing")
	}
}
