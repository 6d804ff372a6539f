package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"runtime"
	"sync"
	"time"

	"github.com/hfast-sim/hfast/internal/apps"
	"github.com/hfast-sim/hfast/internal/hfast"
	"github.com/hfast-sim/hfast/internal/ipm"
	"github.com/hfast-sim/hfast/internal/pipeline"
	"github.com/hfast-sim/hfast/internal/server"
	"github.com/hfast-sim/hfast/internal/trace"
)

// stream-ingest: closed loop, two concurrent sessions on a fresh hfastd
// per round, one delta per POST. Each session then fetches its
// assignment artifact and closes; both are then replayed under new ids,
// so every fold is a cache hit.

// streamApps are the two streamed skeletons: amr migrates its patches
// (several phases), cactus holds one pattern (a single phase).
var streamApps = []string{"amr", "cactus"}

// deltaStream is one session's input: the live collector's deltas,
// their wire bytes, and the batch chain's assignment artifact.
type deltaStream struct {
	app    string
	deltas []*ipm.Delta
	wire   [][]byte
	// assign is pipeline.EncodeArtifact(StageAssign, …) of the batch
	// chain over the merged profile: what ?artifact=assignment must send.
	assign []byte
}

// makeStreams runs each streamed skeleton under the streaming collector
// (seeded) and derives the expected artifact from the batch pipeline.
func makeStreams(r *runner) ([]*deltaStream, error) {
	var out []*deltaStream
	for _, app := range streamApps {
		ds := &deltaStream{app: app}
		cfg := apps.Config{Procs: r.sz.StreamProcs, Steps: r.sz.StreamSteps, Seed: skeletonSeed(r.seed)}
		if _, err := apps.StreamRunContext(context.Background(), app, cfg, func(d *ipm.Delta) { ds.deltas = append(ds.deltas, d) }); err != nil {
			return nil, err
		}
		for _, d := range ds.deltas {
			var b bytes.Buffer
			if err := d.WriteJSON(&b); err != nil {
				return nil, err
			}
			ds.wire = append(ds.wire, b.Bytes())
		}
		prof, err := ipm.MergeDeltas(ds.deltas)
		if err != nil {
			return nil, err
		}
		ref, err := pipeline.Supplied(prof)
		if err != nil {
			return nil, err
		}
		a, _, err := pipeline.New(pipeline.Options{}).Assignment(context.Background(), ref, pipeline.Steady(), 0, 0)
		if err != nil {
			return nil, err
		}
		if ds.assign, err = pipeline.EncodeArtifact(pipeline.StageAssign, a); err != nil {
			return nil, err
		}
		out = append(out, ds)
	}
	return out, nil
}

// sessionResult holds one session's POST latencies, those of the POSTs
// that opened a phase, and the closing response's plans.
type sessionResult struct {
	post, boundary []float64
	plans          []server.StreamPlan
}

// streamSession streams one delta stream under id: one POST per delta,
// then the assignment artifact, then DELETE.
func streamSession(c *client, t *tally, base, id string, ds *deltaStream) sessionResult {
	var res sessionResult
	url := base + "/v1/stream/" + id
	phases := 0
	for i, w := range ds.wire {
		t0 := time.Now()
		rep := c.do(http.MethodPost, url, w)
		d := ms(time.Since(t0))
		if !t.request(fmt.Sprintf("%s delta %d", id, i), rep) {
			continue
		}
		res.post = append(res.post, d)
		var sr server.StreamResponse
		if err := json.Unmarshal(rep.body, &sr); !t.check(err == nil && sr.DeltasFolded == 1, "%s delta %d: folded %d (%v)", id, i, sr.DeltasFolded, err) {
			continue
		}
		// A POST without a boundary reports every plan so far; one that
		// opens a phase raises the phase count.
		if sr.Phases > phases {
			res.boundary = append(res.boundary, d)
			phases = sr.Phases
		}
	}
	rep := c.do(http.MethodGet, url+"?artifact=assignment", nil)
	if t.request(id+" assignment", rep) {
		t.check(bytes.Equal(rep.body, ds.assign), "%s: streamed assignment artifact (%d bytes) differs from the batch chain's (%d bytes)", id, len(rep.body), len(ds.assign))
	}
	rep = c.do(http.MethodDelete, url, nil)
	if t.request(id+" delete", rep) {
		var sr server.StreamResponse
		if err := json.Unmarshal(rep.body, &sr); t.check(err == nil && sr.TotalDeltas == len(ds.wire), "%s: closed with %d of %d deltas (%v)", id, sr.TotalDeltas, len(ds.wire), err) {
			res.plans = sr.Plans
		}
	}
	return res
}

// streamAll runs one session per stream concurrently, each on its own
// connection, and returns the wall time and per-session results.
func streamAll(clients []*client, base, suffix string, streams []*deltaStream) (time.Duration, []sessionResult, []tally) {
	res := make([]sessionResult, len(streams))
	tallies := make([]tally, len(streams))
	t0 := time.Now()
	var wg sync.WaitGroup
	for i, ds := range streams {
		wg.Add(1)
		go func(i int, ds *deltaStream) {
			defer wg.Done()
			res[i] = streamSession(clients[i], &tallies[i], base, ds.app+suffix, ds)
		}(i, ds)
	}
	wg.Wait()
	return time.Since(t0), res, tallies
}

const (
	foldHits   = `hfast_pipeline_stage_hits_total{stage="fold"}`
	foldMisses = `hfast_pipeline_stage_misses_total{stage="fold"}`
)

func streamIngest(r *runner) error {
	start := time.Now()
	streams, err := makeStreams(r)
	if err != nil {
		return err
	}
	setup := time.Since(start)
	n := 0
	for _, ds := range streams {
		n += len(ds.wire)
	}
	var coldRate, replayRate, heap, coldPost, replayPost, boundary []float64
	deadline := time.Now().Add(r.seconds)
	for round := 0; round < r.sz.MinRounds || time.Now().Before(deadline); round++ {
		// Start every round from a collected heap, so one round's
		// garbage does not bill the next.
		runtime.GC()
		reps, err := startReplicas(1)
		if err != nil {
			return err
		}
		base := reps[0].url
		clients := []*client{newClient(), newClient()}
		cold, coldRes, tallies := streamAll(clients, base, fmt.Sprintf("-%d", round), streams)
		for i := range tallies {
			r.t.add(tallies[i])
			coldPost = append(coldPost, coldRes[i].post...)
			boundary = append(boundary, coldRes[i].boundary...)
		}
		m0, err := scrape(clients[0], base)
		if err != nil {
			return err
		}
		replay, replayRes, tallies := streamAll(clients, base, fmt.Sprintf("-%d-replay", round), streams)
		for i := range tallies {
			r.t.add(tallies[i])
			replayPost = append(replayPost, replayRes[i].post...)
			r.t.check(reflect.DeepEqual(replayRes[i].plans, coldRes[i].plans), "round %d %s: replay plans differ from the cold stream's", round, streams[i].app)
		}
		m1, err := scrape(clients[0], base)
		if err != nil {
			return err
		}
		r.t.check(m1[foldMisses] == m0[foldMisses] && m1[foldHits]-m0[foldHits] >= float64(n),
			"round %d: replay folds %g hits, %g misses; every fold must hit", round, m1[foldHits]-m0[foldHits], m1[foldMisses]-m0[foldMisses])
		heap = append(heap, liveHeapMB())
		for _, c := range clients {
			c.close()
		}
		stopReplicas(reps)
		coldRate = append(coldRate, float64(n)/cold.Seconds())
		replayRate = append(replayRate, float64(n)/replay.Seconds())
	}
	stream, replay, post := median(coldRate), median(replayRate), median(boundary)
	r.metric("stream_deltas_per_s", stream, "1/s", len(coldRate))
	r.metric("replay_deltas_per_s", replay, "1/s", len(replayRate))
	r.metric("boundary_post_ms", post, "ms", len(boundary))
	r.gate(geomean([]float64{median(coldPost), median(replayPost), post}), median(heap), setup.Seconds())
	return nil
}

// streamLayers replays the same delta streams through the layers
// directly: the delta codec, the trace fold with PlanDiff at every phase
// boundary, and the pipeline's fold stage cold and then replayed (every
// fold a hit). The direct fold's final assignment must equal the batch
// chain's.
func streamLayers(r *runner, tr *tracer) error {
	streams, err := makeStreams(r)
	if err != nil {
		return err
	}
	ctx := context.Background()
	pl := pipeline.New(pipeline.Options{})
	var deltaBytes, phases, moves, hits, folds int
	for _, ds := range streams {
		for i, d := range ds.deltas {
			req := fmt.Sprintf("%s delta %d", ds.app, i)
			var b bytes.Buffer
			tr.do("ipm.delta_encode", -1, req, func() { err = d.WriteJSON(&b) })
			if err != nil {
				return err
			}
			deltaBytes += b.Len()
			var back *ipm.Delta
			tr.do("ipm.delta_decode", -1, req, func() { back, err = ipm.ReadDeltaJSON(bytes.NewReader(b.Bytes())) })
			r.t.Attempted++
			if r.t.check(err == nil, "%s: decoding: %v", req, err) {
				var again bytes.Buffer
				back.WriteJSON(&again)
				r.t.check(bytes.Equal(again.Bytes(), b.Bytes()), "%s: delta changes on a round trip", req)
			}
		}

		st, err := trace.NewStreamState(r.sz.StreamProcs, 0, "", trace.DetectorConfig{})
		if err != nil {
			return err
		}
		var cur *hfast.Assignment
		for i, d := range ds.deltas {
			req := fmt.Sprintf("%s delta %d", ds.app, i)
			var ns *trace.StreamState
			tr.do("trace.fold", -1, req, func() { ns, err = st.Fold(d) })
			if err != nil {
				return fmt.Errorf("%s: %w", req, err)
			}
			st = ns
			if !st.Last.Boundary {
				continue
			}
			var diff *hfast.CircuitDiff
			tr.do("hfast.plandiff", -1, req, func() { cur, diff, err = hfast.PlanDiff(cur, st.CurrentPhaseGraph(), st.Cutoff, 0) })
			if err != nil {
				return fmt.Errorf("%s: %w", req, err)
			}
			moves += diff.PortMoves
		}
		phases += len(st.Phases())
		a, err := hfast.Assign(st.Steady, st.Cutoff, 0)
		if err != nil {
			return err
		}
		got, err := pipeline.EncodeArtifact(pipeline.StageAssign, a)
		if err != nil {
			return err
		}
		r.t.Attempted++
		r.t.check(bytes.Equal(got, ds.assign), "%s: direct fold's assignment differs from the batch chain's", ds.app)

		for pass, name := range []string{"pipeline.fold", "pipeline.fold_hit"} {
			seed := pipeline.FoldSeed{Procs: r.sz.StreamProcs}
			st, key, _, err := pl.FoldInit(ctx, seed)
			if err != nil {
				return err
			}
			for i, d := range ds.deltas {
				var how pipeline.Outcome
				tr.do(name, -1, fmt.Sprintf("%s delta %d", ds.app, i), func() { st, key, how, err = pl.FoldDelta(ctx, key, st, d) })
				if err != nil {
					return err
				}
				if pass == 1 {
					folds++
					r.t.Attempted++
					if r.t.check(how == pipeline.Hit, "%s delta %d: replayed fold was a %v, want a hit", ds.app, i, how) {
						hits++
					}
				}
			}
		}
	}
	self, count := tr.selfTimes()
	per := func(name string) float64 { return 1e3 * self[name] / float64(count[name]) }
	r.layer("ipm.delta_decode_ms", per("ipm.delta_decode"), "ms", "stream_deltas_per_s, replay_deltas_per_s")
	r.layer("ipm.delta_encode_ms", per("ipm.delta_encode"), "ms", "replay_deltas_per_s")
	r.layer("pipeline.fold_ms", per("pipeline.fold"), "ms", "stream_deltas_per_s")
	r.layer("trace.fold_ms", per("trace.fold"), "ms", "stream_deltas_per_s")
	r.layer("pipeline.fold_hit_ms", per("pipeline.fold_hit"), "ms", "replay_deltas_per_s")
	r.layer("hfast.plandiff_ms", per("hfast.plandiff"), "ms", "boundary_post_ms")
	r.layer("trace.phases", float64(phases), "count", "")
	r.layer("hfast.port_moves", float64(moves), "count", "")
	r.layer("ipm.delta_bytes", float64(deltaBytes), "B", "")
	r.layer("pipeline.fold_hit_ratio", float64(hits)/float64(folds), "ratio", "")
	return nil
}
