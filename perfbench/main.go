// Command perfbench is hfastd's performance ledger: one benchmark that
// measures what clients of the provisioning service see, end to end,
// and where the time goes, layer by layer.
//
// Run one workload (from the repository root):
//
//	bash perfbench/run.sh --workload provision-cold --seed 1 --seconds 12 --trace 0
//
// With --trace 0 it drives hfastd in process behind real loopback HTTP
// listeners, checks every output against the direct library chain, and
// prints the workload's named end-to-end metrics. With --trace 1 it
// replays the seeded inputs of every workload through each layer's
// public functions, timing each call from outside as a span, and prints
// the per-layer metrics. The last line of standard output is always one
// JSON object: {"correct", "attempted", "failed", "metrics"}. Every run
// also writes a result file (and, traced, a span file) under
// .bench_build/results/.
//
// Compare two sets of result files (report only):
//
//	bash perfbench/run.sh compare <dir-A> <dir-B>
//
// README.md in this directory records why each workload exists, its
// loop, rates and key sets, and what each metric should respond to.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// sizes are the input scales of the four workloads. The tests shrink
// them to smoke-test every workload in seconds.
type sizes struct {
	SparseProcs []int // sparse codes (cactus, lbmhd, gtc, amr)
	DenseProcs  int   // dense codes (superlu, pmemd, paratec)
	StreamProcs int
	StreamSteps int
	FabricProcs int // skeleton replays in fabric-replay
	HaloProcs   int // the bounded-degree halo replay
	LightRate   float64
	HeavyRate   float64
	SweepRates  []float64 // hot-only open-loop sweep, ascending
	MinRounds   int       // closed-loop rounds run even past the deadline
}

var fullSizes = sizes{
	SparseProcs: []int{256, 1024},
	DenseProcs:  128,
	StreamProcs: 256,
	StreamSteps: 32,
	FabricProcs: 256,
	HaloProcs:   4096,
	LightRate:   300,
	HeavyRate:   1200,
	SweepRates:  []float64{1800, 2400, 3000, 3600},
	MinRounds:   2,
}

// value is one reported figure.
type value struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the number of samples behind a timing (0 for counts).
	N int `json:"n,omitempty"`
	// Moves names the end-to-end metric a per-layer figure should move.
	Moves string `json:"moves,omitempty"`
}

type env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// result is everything one run measured; it is written to the result
// file the comparator reads.
type result struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Trace     bool    `json:"trace"`
	Seconds   float64 `json:"seconds"`
	Env       env     `json:"env"`
	Correct   bool    `json:"correct"`
	Tally     tally   `json:"tally"`
	ErrorRate float64 `json:"error_rate"`
	// Gated are the metrics BENCHMARK.json bounds (the last line's).
	Gated []value `json:"gated"`
	// Metrics are the workload's named end-to-end metrics.
	Metrics []value `json:"metrics"`
	// Layers are the per-layer metrics of a traced run.
	Layers []value `json:"layers,omitempty"`
	// Kinds holds per-key medians, for diagnosis only.
	Kinds []value `json:"kinds,omitempty"`
}

// runner carries one workload run's inputs and accumulates its result.
type runner struct {
	seed    int64
	seconds time.Duration
	sz      sizes
	res     *result
	t       *tally
}

func newRunner(name string, seed int64, seconds time.Duration, sz sizes, traced bool) *runner {
	res := &result{
		Workload: name, Seed: seed, Trace: traced, Seconds: seconds.Seconds(),
		Env: env{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()},
	}
	return &runner{seed: seed, seconds: seconds, sz: sz, res: res, t: &res.Tally}
}

func (r *runner) metric(name string, v float64, unit string, n int) {
	r.res.Metrics = append(r.res.Metrics, value{Name: name, Value: v, Unit: unit, N: n})
}

func (r *runner) layer(name string, v float64, unit, moves string) {
	r.res.Layers = append(r.res.Layers, value{Name: name, Value: v, Unit: unit, Moves: moves})
}

func (r *runner) kind(name string, samples []float64) {
	r.res.Kinds = append(r.res.Kinds, value{Name: name, Value: median(samples), Unit: "ms", N: len(samples)})
}

// gate sets the workload's bounded metrics (README.md gives each
// workload's definitions): latency_ms, a per-operation time in
// milliseconds; heap_mb, the live heap while the system holds its
// state; and setup_s.
func (r *runner) gate(latencyMS, heapMB, setupS float64) {
	r.res.Gated = []value{
		{Name: "latency_ms", Value: latencyMS, Unit: "ms"},
		{Name: "heap_mb", Value: heapMB, Unit: "MB"},
		{Name: "setup_s", Value: setupS, Unit: "s"},
	}
}

// workload pairs a workload's end-to-end run with its traced layer
// replay over the same seeded inputs.
type workload struct {
	name   string
	run    func(*runner) error
	layers func(*runner, *tracer) error
}

var workloads = []workload{
	{"provision-cold", provisionCold, provisionLayers},
	{"serve-mixed", serveMixed, serveLayers},
	{"stream-ingest", streamIngest, streamLayers},
	{"fabric-replay", fabricReplay, fabricLayers},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareCLI(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: provision-cold, serve-mixed, stream-ingest or fabric-replay")
	seed := fs.Int64("seed", 1, "input seed (≥ 0); equal seeds give equal inputs")
	seconds := fs.Float64("seconds", 12, "measured time per run")
	trace := fs.Int("trace", 0, "1 replays every workload's inputs through the layers, traced")
	out := fs.String("out", filepath.Join(".bench_build", "results"), "directory for result and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || *seed < 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seed %d, seconds %g, trace %d)\n", *name, *seed, *seconds, *trace)
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	dur := time.Duration(*seconds * float64(time.Second))
	var res *result
	var err error
	if *trace == 1 {
		res, err = executeTraced(w, *seed, dur, fullSizes, *out)
	} else {
		res, err = execute(w, *seed, dur, fullSizes)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	base := fmt.Sprintf("%s-seed%d-trace%d.json", *name, *seed, *trace)
	if err := writeJSON(filepath.Join(*out, base), res); err != nil {
		fmt.Fprintf(stderr, "perfbench: writing result: %v\n", err)
		return 1
	}
	report(stdout, res)
	if !res.Correct {
		return 1
	}
	return 0
}

// execute runs one workload end to end, untraced.
func execute(w workload, seed int64, seconds time.Duration, sz sizes) (*result, error) {
	r := newRunner(w.name, seed, seconds, sz, false)
	if err := w.run(r); err != nil {
		return nil, err
	}
	r.metric("peak_rss_mb", peakRSSMB(), "MB", 1)
	finish(r)
	return r.res, nil
}

// executeTraced replays every workload's seeded inputs through the
// layers with spans on, so each traced run reports every per-layer
// metric. bench.trace_overhead_pct is what recording the named
// workload's spans cost, as a share of its replay's wall time: the
// per-span cost is measured in process, since the difference between
// two whole replays is far below their run-to-run noise.
func executeTraced(w workload, seed int64, seconds time.Duration, sz sizes, outDir string) (*result, error) {
	r := newRunner(w.name, seed, seconds, sz, true)
	var overhead float64
	spans := map[string][]span{}
	for _, wl := range workloads {
		tr := newTracer()
		t0 := time.Now()
		if err := wl.layers(r, tr); err != nil {
			return nil, fmt.Errorf("%s layers: %w", wl.name, err)
		}
		if wl.name == w.name {
			overhead = 100 * spanCost().Seconds() * float64(len(tr.spans)) / time.Since(t0).Seconds()
		}
		spans[wl.name] = tr.spans
	}
	r.layer("bench.trace_overhead_pct", overhead, "%", "")
	if err := writeJSON(filepath.Join(outDir, fmt.Sprintf("%s-seed%d-spans.json", w.name, seed)), spans); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	finish(r)
	return r.res, nil
}

func finish(r *runner) {
	t := r.res.Tally
	r.res.Correct = t.failed() == 0 && t.Attempted > 0
	if t.Attempted > 0 {
		r.res.ErrorRate = float64(t.failed()) / float64(t.Attempted)
	}
	// A figure that could not be measured fails the run; it is zeroed so
	// the result still encodes as JSON.
	for _, vs := range [][]value{r.res.Gated, r.res.Metrics, r.res.Layers, r.res.Kinds} {
		for i := range vs {
			if math.IsNaN(vs[i].Value) || math.IsInf(vs[i].Value, 0) {
				r.res.Correct = false
				r.t.note("metric %s could not be measured", vs[i].Name)
				vs[i].Value = 0
			}
		}
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// report prints every figure by name with its unit, then the one-line
// JSON summary as the last line.
func report(w io.Writer, res *result) {
	fmt.Fprintf(w, "workload %s seed %d trace %v: nproc %d GOMAXPROCS %d %s\n",
		res.Workload, res.Seed, res.Trace, res.Env.NProc, res.Env.GOMAXPROCS, res.Env.GoVersion)
	for _, v := range res.Metrics {
		fmt.Fprintf(w, "metric %-24s %14.4f %-6s n=%d\n", v.Name, v.Value, v.Unit, v.N)
	}
	for _, v := range res.Kinds {
		fmt.Fprintf(w, "kind   %-24s %14.4f %-6s n=%d\n", v.Name, v.Value, v.Unit, v.N)
	}
	for _, v := range res.Layers {
		moves := ""
		if v.Moves != "" {
			moves = "-> " + v.Moves
		}
		fmt.Fprintf(w, "layer  %-24s %14.4f %-6s %s\n", v.Name, v.Value, v.Unit, moves)
	}
	for _, v := range res.Gated {
		fmt.Fprintf(w, "gated  %-24s %14.4f %s\n", v.Name, v.Value, v.Unit)
	}
	t := res.Tally
	fmt.Fprintf(w, "ops attempted %d failed %d (non-2xx %d, 429 %d, timeouts %d, transport %d, mismatches %d) error_rate %g\n",
		t.Attempted, t.failed(), t.Non2xx, t.Rejected, t.Timeouts, t.Errors, t.Mismatches, res.ErrorRate)
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note %s\n", n)
	}
	type entry struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]entry{}
	shown := res.Gated
	if res.Trace {
		shown = res.Layers
	}
	for _, v := range shown {
		metrics[v.Name] = entry{v.Value, v.Unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]entry `json:"metrics"`
	}{res.Correct, t.Attempted, t.failed(), metrics})
	fmt.Fprintln(w, string(line))
}
