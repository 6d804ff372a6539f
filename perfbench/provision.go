package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"runtime"
	"time"

	"github.com/hfast-sim/hfast/internal/server"
)

// provision-cold: closed loop, one client, a fresh hfastd (empty cache)
// per round. Each round provisions every kind in seed-shuffled order,
// then compares every sparse kind. Every request is a cold build: the
// skeleton run (mpi + ipm) dominates.

const runsSeries = "hfastd_pipeline_runs_total"

func provisionBody(k kind, seed int64) []byte {
	b, _ := json.Marshal(server.ProvisionRequest{ProfileRequest: server.ProfileRequest{App: k.App, Procs: k.Procs, Seed: seed}})
	return b
}

func compareURL(base string, k kind) string {
	return fmt.Sprintf("%s/v1/compare?app=%s&procs=%d", base, k.App, k.Procs)
}

// checkProvision decodes a provision reply and compares it with the
// direct chain's response.
func checkProvision(t *tally, what string, body []byte, want *server.ProvisionResponse) {
	var got server.ProvisionResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.check(false, "%s: decoding reply: %v", what, err)
		return
	}
	t.check(reflect.DeepEqual(&got, want), "%s: reply %+v differs from the direct chain %+v", what, got, *want)
}

func checkCompare(t *tally, what string, body []byte, want *server.CompareResponse) {
	var got server.CompareResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.check(false, "%s: decoding reply: %v", what, err)
		return
	}
	t.check(reflect.DeepEqual(&got, want), "%s: reply %+v differs from the direct chain %+v", what, got, *want)
}

func provisionCold(r *runner) error {
	start := time.Now()
	seed := skeletonSeed(r.seed)
	kinds, cmpKinds := provisionKinds(r.sz), compareKinds(r.sz)
	wantProv := map[kind]*server.ProvisionResponse{}
	for _, k := range kinds {
		resp, _, err := chainProvision(nil, "", k, seed, false)
		if err != nil {
			return fmt.Errorf("direct chain %s: %w", k, err)
		}
		wantProv[k] = resp
	}
	wantCmp := map[kind]*server.CompareResponse{}
	for _, k := range cmpKinds {
		resp, err := chainCompare(nil, "", k, false)
		if err != nil {
			return fmt.Errorf("direct compare chain %s: %w", k, err)
		}
		wantCmp[k] = resp
	}
	rng := rand.New(rand.NewSource(r.seed))
	setup := time.Since(start)

	provLat := map[kind][]float64{}
	cmpLat := map[kind][]float64{}
	var heap []float64
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
		c := newClient()
		for _, i := range rng.Perm(len(kinds)) {
			k := kinds[i]
			t0 := time.Now()
			rep := c.do(http.MethodPost, base+"/v1/provision", provisionBody(k, seed))
			d := time.Since(t0)
			if r.t.request("provision "+k.String(), rep) {
				provLat[k] = append(provLat[k], ms(d))
				checkProvision(r.t, "provision "+k.String(), rep.body, wantProv[k])
			}
		}
		for _, i := range rng.Perm(len(cmpKinds)) {
			k := cmpKinds[i]
			t0 := time.Now()
			rep := c.do(http.MethodGet, compareURL(base, k), nil)
			d := time.Since(t0)
			if r.t.request("compare "+k.String(), rep) {
				cmpLat[k] = append(cmpLat[k], ms(d))
				checkCompare(r.t, "compare "+k.String(), rep.body, wantCmp[k])
			}
		}
		runs, err := scrapeSum(c, reps, runsSeries)
		if err != nil {
			return err
		}
		r.t.check(int(runs) == len(kinds)+len(cmpKinds), "round %d: %g profile runs for %d cold keys", round, runs, len(kinds)+len(cmpKinds))
		heap = append(heap, liveHeapMB())
		c.close()
		stopReplicas(reps)
	}

	var sparse, dense, cmp []float64
	nSparse, nDense, nCmp := 0, 0, 0
	for _, k := range kinds {
		r.kind("provision "+k.String(), provLat[k])
		if k.Dense {
			dense = append(dense, median(provLat[k]))
			nDense += len(provLat[k])
		} else {
			sparse = append(sparse, median(provLat[k]))
			nSparse += len(provLat[k])
		}
	}
	for _, k := range cmpKinds {
		r.kind("compare "+k.String(), cmpLat[k])
		cmp = append(cmp, median(cmpLat[k]))
		nCmp += len(cmpLat[k])
	}
	r.metric("cold_sparse_ms", geomean(sparse), "ms", nSparse)
	r.metric("cold_dense_ms", geomean(dense), "ms", nDense)
	r.metric("cold_compare_ms", geomean(cmp), "ms", nCmp)
	r.gate(geomean([]float64{geomean(sparse), geomean(dense), geomean(cmp)}), median(heap), setup.Seconds())
	return nil
}

// provisionLayers replays provision-cold's seeded keys: one cold HTTP
// round on a fresh hfastd, then the direct chain of every key with a
// bare-runtime run first, all as spans. The direct chain also checks
// the round's replies.
func provisionLayers(r *runner, tr *tracer) error {
	seed := skeletonSeed(r.seed)
	kinds, cmpKinds := provisionKinds(r.sz), compareKinds(r.sz)
	reps, err := startReplicas(1)
	if err != nil {
		return err
	}
	base := reps[0].url
	c := newClient()
	provBody := map[kind][]byte{}
	cmpBody := map[kind][]byte{}
	for _, k := range kinds {
		var rep reply
		tr.do("http.provision", -1, "provision "+k.String(), func() {
			rep = c.do(http.MethodPost, base+"/v1/provision", provisionBody(k, seed))
		})
		if r.t.request("provision "+k.String(), rep) {
			provBody[k] = rep.body
		}
	}
	for _, k := range cmpKinds {
		var rep reply
		tr.do("http.compare", -1, "compare "+k.String(), func() { rep = c.do(http.MethodGet, compareURL(base, k), nil) })
		if r.t.request("compare "+k.String(), rep) {
			cmpBody[k] = rep.body
		}
	}
	m, err := scrape(c, base)
	c.close()
	stopReplicas(reps)
	if err != nil {
		return err
	}
	runs := m[runsSeries]
	// What the server adds over its pipeline: HTTP latency minus the
	// build time of each request's top-level stage (plan for provision,
	// the compare response for compare), which encloses the nested ones.
	pipelineS := m[`hfast_pipeline_stage_build_seconds_total{stage="plan"}`] + m[`hfast_pipeline_stage_build_seconds_total{stage="compare-response"}`]
	var calls int64
	edges := 0
	for _, k := range kinds {
		want, counts, err := chainProvision(tr, "provision "+k.String(), k, seed, true)
		if err != nil {
			return fmt.Errorf("direct chain %s: %w", k, err)
		}
		calls += counts.Calls
		edges += counts.Edges
		if body, ok := provBody[k]; ok {
			checkProvision(r.t, "provision "+k.String(), body, want)
		}
	}
	for _, k := range cmpKinds {
		want, err := chainCompare(tr, "compare "+k.String(), k, true)
		if err != nil {
			return fmt.Errorf("direct compare chain %s: %w", k, err)
		}
		if body, ok := cmpBody[k]; ok {
			checkCompare(r.t, "compare "+k.String(), body, want)
		}
	}
	r.t.check(int(runs) == len(kinds)+len(cmpKinds), "%g profile runs for %d cold keys", runs, len(kinds)+len(cmpKinds))

	self, _ := tr.selfTimes()
	r.layer("mpi.run_ms", 1e3*self["mpi.run"], "ms", "cold_*")
	r.layer("ipm.collect_ms", 1e3*(self["apps.profile"]-self["mpi.run"]), "ms", "cold_*")
	r.layer("mpi.calls", float64(calls), "count", "")
	r.layer("topology.graph_ms", 1e3*self["topology.graph"], "ms", "cold_dense_ms")
	r.layer("topology.edges", float64(edges), "count", "")
	r.layer("hfast.assign_ms", 1e3*self["hfast.assign"], "ms", "cold_*")
	r.layer("hfast.wire_ms", 1e3*self["hfast.wire"], "ms", "cold_*")
	r.layer("hfast.compare_ms", 1e3*self["hfast.compare"], "ms", "cold_compare_ms")
	r.layer("icn.partition_ms", 1e3*self["icn.partition"], "ms", "cold_compare_ms")
	r.layer("icn.contract_ms", 1e3*self["icn.contract"], "ms", "cold_compare_ms")
	r.layer("meshtorus.build_ms", 1e3*self["meshtorus.build"], "ms", "cold_compare_ms")
	r.layer("server.self_ms", 1e3*(self["http.provision"]+self["http.compare"]-pipelineS), "ms", "cold_*")
	r.layer("server.profile_runs", runs, "count", "")
	return nil
}
