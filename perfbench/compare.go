package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// bound is a metric's direction and the share of the baseline median by
// which it may worsen before it counts as a regression.
type bound struct {
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`
}

// namedBounds are the bounds of the workloads' named metrics. The gated
// metrics take theirs from BENCHMARK.json; these are report-only.
var namedBounds = map[string]bound{
	"cold_sparse_ms":      {"lower", 0.10},
	"cold_dense_ms":       {"lower", 0.10},
	"cold_compare_ms":     {"lower", 0.10},
	"hot_light_p50_ms":    {"lower", 0.25},
	"hot_light_p99_ms":    {"lower", 0.25},
	"hot_p50_ms":          {"lower", 0.25},
	"hot_p99_ms":          {"lower", 0.25},
	"hot_max_rps":         {"higher", 0.25},
	"hot_capacity_rps":    {"higher", 0.25},
	"peer_fill_ms":        {"lower", 0.25},
	"gen_lag_p99_ms":      {"lower", 0.25},
	"stream_deltas_per_s": {"higher", 0.10},
	"replay_deltas_per_s": {"higher", 0.10},
	"boundary_post_ms":    {"lower", 0.15},
	"replay_apps_s":       {"lower", 0.10},
	"replay_halo_s":       {"lower", 0.10},
	"peak_rss_mb":         {"lower", 0.25},
}

// benchmarkBounds reads the end_to_end bounds of BENCHMARK.json.
func benchmarkBounds(path string) (map[string]bound, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct {
			Name string `json:"name"`
			bound
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	out := map[string]bound{}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.bound
	}
	return out, nil
}

// loadResults reads every untraced result file in dir.
func loadResults(dir string) ([]*result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*-trace0.json"))
	if err != nil {
		return nil, err
	}
	var out []*result
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		res := new(result)
		if err := json.Unmarshal(data, res); err != nil {
			return nil, fmt.Errorf("parsing %s: %w", p, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// side is one result set's runs of one metric, keyed by seed.
type side map[int64]float64

func (s side) values() []float64 {
	out := make([]float64, 0, len(s))
	for _, v := range s {
		out = append(out, v)
	}
	return out
}

// verdict judges the change (b) against the baseline (a):
//   - improved: b wins at least nine tenths of the pairs, ties counting
//     for neither, and the medians differ by more than a's interquartile
//     spread;
//   - worse: b's median is worse than a's by more than the bound;
//   - unresolved: a's spread exceeds the bound, so "no worse" cannot be
//     told apart from noise, unless every b run beats every a run;
//   - within-bound: none of these.
type verdict struct {
	MedA, Q1A, Q3A float64
	MedB, Q1B, Q3B float64
	Won            float64 // share of pairs b won
	Pairs          int
	Verdict        string
}

func judge(a, b side, bd bound) verdict {
	av, bv := a.values(), b.values()
	v := verdict{MedA: median(av), MedB: median(bv)}
	v.Q1A, v.Q3A = quartiles(av)
	v.Q1B, v.Q3B = quartiles(bv)
	better := func(x, y float64) bool { // x better than y
		if bd.Better == "higher" {
			return x > y
		}
		return x < y
	}
	for _, p := range pairs(a, b) {
		v.Pairs++
		if better(p[1], p[0]) {
			v.Won++
		}
	}
	if v.Pairs > 0 {
		v.Won /= float64(v.Pairs)
	}
	worse := v.MedB - v.MedA
	if bd.Better == "higher" {
		worse = -worse
	}
	dominates := len(av) > 0 && len(bv) > 0
	for _, x := range bv {
		for _, y := range av {
			dominates = dominates && better(x, y)
		}
	}
	switch {
	case len(av) == 0 || len(bv) == 0:
		v.Verdict = "unresolved"
	case worse > bd.Bound*math.Abs(v.MedA):
		v.Verdict = "worse"
	case v.Won >= 0.9 && -worse > v.Q3A-v.Q1A:
		v.Verdict = "improved"
	case (v.Q3A-v.Q1A) > bd.Bound*math.Abs(v.MedA) && !dominates:
		v.Verdict = "unresolved"
	default:
		v.Verdict = "within-bound"
	}
	return v
}

// pairs matches runs of equal seed; when no seed is shared the runs are
// paired in seed order instead.
func pairs(a, b side) [][2]float64 {
	var out [][2]float64
	for s, x := range a {
		if y, ok := b[s]; ok {
			out = append(out, [2]float64{x, y})
		}
	}
	if len(out) > 0 {
		return out
	}
	sa, sb := seeds(a), seeds(b)
	for i := 0; i < len(sa) && i < len(sb); i++ {
		out = append(out, [2]float64{a[sa[i]], b[sb[i]]})
	}
	return out
}

func seeds(s side) []int64 {
	out := make([]int64, 0, len(s))
	for k := range s {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// compareCLI reports, per workload and metric, each result set's median
// and quartiles, the share of pairs the second set won, and a verdict.
// It is report-only: the exit code says nothing about the verdicts.
func compareCLI(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bench := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the end-to-end bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare [-bench BENCHMARK.json] <baseline-dir> <change-dir>")
		return 2
	}
	gated, err := benchmarkBounds(*bench)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
		return 2
	}
	var sets [2][]*result
	for i := range sets {
		if sets[i], err = loadResults(fs.Arg(i)); err != nil {
			fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
			return 2
		}
	}
	writeComparison(stdout, sets[0], sets[1], gated)
	return 0
}

func writeComparison(w io.Writer, a, b []*result, gated map[string]bound) {
	collect := func(rs []*result) map[string]map[string]side {
		out := map[string]map[string]side{} // workload → metric → seed → value
		for _, r := range rs {
			if out[r.Workload] == nil {
				out[r.Workload] = map[string]side{}
			}
			add := func(name string, v float64) {
				if out[r.Workload][name] == nil {
					out[r.Workload][name] = side{}
				}
				out[r.Workload][name][r.Seed] = v
			}
			for _, v := range append(append([]value(nil), r.Gated...), r.Metrics...) {
				add(v.Name, v.Value)
			}
			add("error_rate", r.ErrorRate)
		}
		return out
	}
	ca, cb := collect(a), collect(b)
	var workloads []string
	for wl := range ca {
		workloads = append(workloads, wl)
	}
	sort.Strings(workloads)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbaseline median [q1, q3]\tchange median [q1, q3]\tpairs won\tbound\tverdict")
	for _, wl := range workloads {
		var names []string
		for name := range ca[wl] {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			bd, ok := gated[name]
			if !ok {
				bd, ok = namedBounds[name]
			}
			if !ok {
				if name != "error_rate" {
					continue
				}
				bd = bound{Better: "lower"}
			}
			v := judge(ca[wl][name], cb[wl][name], bd)
			fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%.0f%% of %d\t%s %g\t%s\n",
				wl, name, v.MedA, v.Q1A, v.Q3A, v.MedB, v.Q1B, v.Q3B, 100*v.Won, v.Pairs, bd.Better, bd.Bound, v.Verdict)
		}
	}
	tw.Flush()
	if len(workloads) == 0 {
		fmt.Fprintln(w, "no result files (*-trace0.json) in the baseline set")
	}
}
