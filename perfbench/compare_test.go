package main

import (
	"bytes"
	"strings"
	"testing"
)

func sideOf(vals ...float64) side {
	s := side{}
	for i, v := range vals {
		s[int64(i)] = v
	}
	return s
}

func TestJudgeVerdicts(t *testing.T) {
	base := sideOf(100, 101, 99, 100, 102, 98, 100, 101, 99, 100)
	lower := bound{Better: "lower", Bound: 0.10}
	for _, c := range []struct {
		name   string
		a, b   side
		bd     bound
		want   string
		wonMin float64
	}{
		{"clear improvement", base, sideOf(80, 81, 79, 80, 82, 78, 80, 81, 79, 80), lower, "improved", 1},
		{"regression past the bound", base, sideOf(120, 121, 119, 120, 122, 118, 120, 121, 119, 120), lower, "worse", 0},
		{"small regression inside the bound", base, sideOf(104, 105, 103, 104, 106, 102, 104, 105, 103, 104), lower, "within-bound", 0},
		{"baseline spread wider than the bound", sideOf(50, 150, 60, 140, 100, 70, 130, 90, 110, 100), sideOf(100, 100, 100, 100, 100, 100, 100, 100, 100, 100), lower, "unresolved", 0},
		{"higher is better", sideOf(10, 10, 10, 10, 10), sideOf(5, 5, 5, 5, 5), bound{Better: "higher", Bound: 0.2}, "worse", 0},
		{"no change runs", base, side{}, lower, "unresolved", 0},
	} {
		v := judge(c.a, c.b, c.bd)
		if v.Verdict != c.want || v.Won < c.wonMin {
			t.Errorf("%s: verdict %s (won %.2f), want %s", c.name, v.Verdict, v.Won, c.want)
		}
	}
}

// TestJudgeImprovementNeedsNineTenths: a change that wins only most
// pairs is not an improvement, however far its median moved.
func TestJudgeImprovementNeedsNineTenths(t *testing.T) {
	a := sideOf(100, 100, 100, 100, 100, 100, 100, 100, 100, 100)
	b := sideOf(50, 50, 50, 50, 50, 50, 50, 50, 150, 150)
	if v := judge(a, b, bound{Better: "lower", Bound: 0.6}); v.Verdict == "improved" || v.Won != 0.8 {
		t.Errorf("verdict %s, won %.2f; want no improvement at 80%% of pairs", v.Verdict, v.Won)
	}
}

func TestPairsPreferSharedSeeds(t *testing.T) {
	a := side{1: 10, 2: 20, 3: 30}
	b := side{2: 21, 3: 29, 9: 0}
	if got := pairs(a, b); len(got) != 2 {
		t.Errorf("pairs on shared seeds = %v, want 2", got)
	}
	if got := pairs(side{1: 1, 2: 2}, side{7: 3, 8: 4}); len(got) != 2 || got[0] != [2]float64{1, 3} {
		t.Errorf("pairs in seed order = %v", got)
	}
}

func TestWriteComparison(t *testing.T) {
	mk := func(seed int64, lat float64) *result {
		return &result{Workload: "provision-cold", Seed: seed,
			Gated:   []value{{Name: "latency_ms", Value: lat, Unit: "ms"}},
			Metrics: []value{{Name: "cold_dense_ms", Value: 2 * lat, Unit: "ms"}, {Name: "unbounded", Value: 1}}}
	}
	var a, b []*result
	for i := int64(0); i < 10; i++ {
		a = append(a, mk(i, 100+float64(i%3)))
		b = append(b, mk(i, 70+float64(i%3)))
	}
	var out bytes.Buffer
	writeComparison(&out, a, b, map[string]bound{"latency_ms": {Better: "lower", Bound: 0.1}})
	text := out.String()
	for _, want := range []string{"latency_ms", "cold_dense_ms", "error_rate", "improved"} {
		if !strings.Contains(text, want) {
			t.Errorf("comparison lacks %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "unbounded") {
		t.Errorf("a metric without a bound was judged:\n%s", text)
	}
}
