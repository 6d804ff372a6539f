package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// smallSizes shrink every workload to seconds: P=64 skeletons, a short
// open loop, a small halo.
var smallSizes = sizes{
	SparseProcs: []int{64},
	DenseProcs:  32,
	StreamProcs: 64,
	StreamSteps: 4,
	FabricProcs: 64,
	HaloProcs:   512,
	LightRate:   100,
	HeavyRate:   200,
	SweepRates:  []float64{300, 400},
	MinRounds:   1,
}

// benchmarkNames reads the metric names BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	return endToEnd, perLayer
}

func names(vs []value) []string {
	var out []string
	for _, v := range vs {
		out = append(out, v.Name)
	}
	sort.Strings(out)
	return out
}

// TestWorkloadsSmoke runs every workload end to end at small sizes: all
// checks pass and the run reports exactly BENCHMARK.json's end-to-end
// metrics, each positive.
func TestWorkloadsSmoke(t *testing.T) {
	want, _ := benchmarkNames(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := execute(w, 3, 4*time.Second, smallSizes)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Tally.Attempted == 0 || res.Tally.failed() != 0 {
				t.Fatalf("correct %v, attempted %d, failed %d: %v", res.Correct, res.Tally.Attempted, res.Tally.failed(), res.Tally.Notes)
			}
			if got := names(res.Gated); strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("gated metrics %v, BENCHMARK.json declares %v", got, want)
			}
			for _, v := range append(res.Gated, res.Metrics...) {
				if !(v.Value > 0) {
					t.Errorf("metric %s = %g, want > 0", v.Name, v.Value)
				}
			}
			if len(res.Metrics) == 0 {
				t.Error("no named metrics")
			}
		})
	}
}

// TestTracedSmoke replays every workload's layers once and checks the
// traced run reports exactly BENCHMARK.json's per-layer metrics.
func TestTracedSmoke(t *testing.T) {
	_, want := benchmarkNames(t)
	w, _ := lookupWorkload("stream-ingest")
	res, err := executeTraced(w, 5, time.Second, smallSizes, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Tally.failed() != 0 {
		t.Fatalf("traced run failed: %v", res.Tally.Notes)
	}
	if got := names(res.Layers); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("per-layer metrics %v, BENCHMARK.json declares %v", got, want)
	}
}

func TestCLIRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "serve-mixed", "--trace", "2"},
		{"--workload", "serve-mixed", "--seed", "-1"},
		{"--workload", "serve-mixed", "extra"},
		{"compare", "only-one-dir"},
	} {
		var out, errOut strings.Builder
		if code := cli(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("cli(%v) = %d with output %q; want a failure and no result", args, code, out.String())
		}
	}
}
