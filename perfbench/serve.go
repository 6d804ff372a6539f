package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/hfast-sim/hfast/internal/pipeline"
)

// serve-mixed: two clustered replicas, warm on every key, driven open
// loop with Poisson arrivals over one connection per replica. Hits
// dominate, so HTTP, keying, the cache and response building do the
// work; a once-a-second cold trickle adds builds and peer fills.

// serveRig is the warmed two-replica tier and the expected replies.
type serveRig struct {
	reps    []*replica
	clients []*client // one hot connection per replica
	trickle *client   // the cold trickle's own connection
	kinds   []kind
	// provBody and cmpBody are each key's warm reply; every hot reply
	// must repeat it byte for byte.
	provBody [][]byte
	cmpBody  [][]byte
}

// newServeRig boots replicas A and B and warms every key for provision
// and compare: A first, two keys at a time, then B, which fills from A
// wherever A owns a stage key. Hot keys use seed 0, the profile
// /v1/compare reads, so provision and compare share their upstream
// artifacts. Every warm provision reply is checked against the direct
// chain, and B's replies must repeat A's.
func newServeRig(r *runner) (*serveRig, error) {
	g := &serveRig{kinds: provisionKinds(r.sz)}
	reps, err := startReplicas(2)
	if err != nil {
		return nil, err
	}
	g.reps = reps
	g.clients = []*client{newClient(), newClient()}
	g.trickle = newClient()
	n := len(g.kinds)
	warm := func(rep *replica, clients []*client) (prov, cmp []reply) {
		prov, cmp = make([]reply, n), make([]reply, n)
		jobs := make(chan int, n)
		for i := range g.kinds {
			jobs <- i
		}
		close(jobs)
		var wg sync.WaitGroup
		for _, c := range clients {
			wg.Add(1)
			go func(c *client) {
				defer wg.Done()
				for i := range jobs {
					prov[i] = c.do(http.MethodPost, rep.url+"/v1/provision", provisionBody(g.kinds[i], 0))
					cmp[i] = c.do(http.MethodGet, compareURL(rep.url, g.kinds[i]), nil)
				}
			}(c)
		}
		wg.Wait()
		return prov, cmp
	}
	provA, cmpA := warm(reps[0], []*client{g.clients[0], g.trickle})
	provB, cmpB := warm(reps[1], g.clients[1:])
	for i, k := range g.kinds {
		want, _, err := chainProvision(nil, "", k, 0, false)
		if err != nil {
			g.close()
			return nil, fmt.Errorf("direct chain %s: %w", k, err)
		}
		if r.t.request("warm provision "+k.String()+" on A", provA[i]) {
			checkProvision(r.t, "warm provision "+k.String(), provA[i].body, want)
		}
		if r.t.request("warm provision "+k.String()+" on B", provB[i]) {
			r.t.check(bytes.Equal(provB[i].body, provA[i].body), "warm provision %s: B's reply differs from A's", k)
		}
		if r.t.request("warm compare "+k.String()+" on A", cmpA[i]) && r.t.request("warm compare "+k.String()+" on B", cmpB[i]) {
			r.t.check(bytes.Equal(cmpB[i].body, cmpA[i].body), "warm compare %s: B's reply differs from A's", k)
		}
		g.provBody = append(g.provBody, provA[i].body)
		g.cmpBody = append(g.cmpBody, cmpA[i].body)
	}
	return g, nil
}

func (g *serveRig) close() {
	for _, c := range append(g.clients, g.trickle) {
		c.close()
	}
	stopReplicas(g.reps)
}

// runs is the cluster-wide profile-run count.
func (g *serveRig) runs() (float64, error) { return scrapeSum(g.clients[0], g.reps, runsSeries) }

// trickleKey is one cold key of the trickle: a fresh seeded sparse key
// sent to its ring owner first, then to the other replica.
type trickleKey struct {
	k     kind
	seed  int64
	owner int
}

// newTrickle derives the j-th trickle key of a run and its plan-stage
// owner.
func (g *serveRig) newTrickle(r *runner, j int) (trickleKey, error) {
	k := kind{App: sparseApps[j%len(sparseApps)], Procs: r.sz.SparseProcs[0]}
	spec := pipeline.ProfileSpec{App: k.App, Procs: k.Procs, Seed: 1_000_000 + 1000*r.seed + int64(j)}
	key, err := planRecipe(spec).Key()
	if err != nil {
		return trickleKey{}, err
	}
	owner := 1
	if owners := g.reps[0].srv.Cluster().Owners(key); len(owners) > 0 && owners[0] == g.reps[0].url {
		owner = 0
	}
	return trickleKey{k: k, seed: spec.Seed, owner: owner}, nil
}

// planRecipe is the plan-stage recipe POST /v1/provision resolves for a
// spec under the default cutoff and block size.
func planRecipe(spec pipeline.ProfileSpec) pipeline.Recipe {
	return pipeline.Recipe{Stage: pipeline.StagePlan, ProfileKey: pipeline.Spec(spec).Key(), Spec: &spec, Filter: "steady"}
}

// arrival is one scheduled request. Trickle indexes the phase's trickle
// keys (-1 for a hot request); a follow-up is the trickle's second
// request, due when the owner answered.
type arrival struct {
	due     time.Duration
	rep     int
	key     int
	compare bool
	trickle int
	follow  bool
}

// sample is one finished arrival.
type sample struct {
	arrival
	start, end time.Duration
	reply      reply
}

func (s sample) latency() float64 { return ms(s.end - s.due) }
func (s sample) lag() float64     { return ms(s.start - s.due) }

// schedule draws a Poisson arrival stream at rate over dur, split by
// replica: 60% provision and 40% compare, uniform over the keys and the
// replicas.
func schedule(rng *rand.Rand, rate float64, dur time.Duration, nKeys int) [2][]arrival {
	var out [2][]arrival
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return out
		}
		a := arrival{due: d, rep: rng.Intn(2), key: rng.Intn(nKeys), compare: rng.Float64() < 0.4, trickle: -1}
		out[a.rep] = append(out[a.rep], a)
	}
}

// phase runs one open-loop phase. One sender goroutine per replica
// sends its hot arrivals over its one connection, each at its due time
// or as soon as the connection frees up; latency runs from the due
// time, so a stall also charges every request queued behind it. The
// trickle runs beside them on its own connection, one key a second (at
// 0.5 s, 1.5 s, ...): to the owner, then, once that answers, to the
// other replica.
func (g *serveRig) phase(r *runner, rng *rand.Rand, rate float64, dur time.Duration, trickles []trickleKey) ([]sample, map[int][][]byte) {
	sched := schedule(rng, rate, dur, len(g.kinds))
	runtime.GC()
	var out [3][]sample
	t0 := time.Now()
	wait := func(due time.Duration) {
		if d := time.Until(t0.Add(due)); d > 0 {
			time.Sleep(d)
		}
	}
	send := func(c *client, a arrival) sample {
		start := time.Since(t0)
		rep := g.request(c, a, trickles)
		return sample{arrival: a, start: start, end: time.Since(t0), reply: rep}
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for _, a := range sched[i] {
				wait(a.due)
				out[i] = append(out[i], send(g.clients[i], a))
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j, tk := range trickles {
			a := arrival{due: time.Duration(j)*time.Second + time.Second/2, rep: tk.owner, trickle: j}
			wait(a.due)
			s := send(g.trickle, a)
			out[2] = append(out[2], s)
			f := a
			f.follow, f.rep, f.due = true, 1-tk.owner, s.end
			out[2] = append(out[2], send(g.trickle, f))
		}
	}()
	wg.Wait()
	samples := append(append(out[0], out[1]...), out[2]...)
	return samples, g.account(r, samples)
}

// capacity measures hot-only capacity closed loop: both connections
// send back to back, each its next request when the last one answers,
// in capacityBursts bursts that share dur, each started from a collected
// heap. It returns the median burst's completions per second, so one
// burst that meets a collection or a noisy neighbour does not set the
// figure; collection pauses show in the open-loop tails instead.
func (g *serveRig) capacity(r *runner, rng *rand.Rand, dur time.Duration) float64 {
	var rates []float64
	for b := 0; b < capacityBursts; b++ {
		rates = append(rates, g.burst(r, rng, dur/capacityBursts))
	}
	return median(rates)
}

const capacityBursts = 6

// burst runs one closed-loop burst of dur and returns its completions
// per second.
func (g *serveRig) burst(r *runner, rng *rand.Rand, dur time.Duration) float64 {
	// More requests than a connection can finish in a burst.
	var seqs [2][]arrival
	for i := range seqs {
		for j := 0; j < 1<<13; j++ {
			seqs[i] = append(seqs[i], arrival{rep: i, key: rng.Intn(len(g.kinds)), compare: rng.Float64() < 0.4, trickle: -1})
		}
	}
	runtime.GC()
	var out [2][]sample
	t0 := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for _, a := range seqs[i] {
				start := time.Since(t0)
				if start >= dur {
					return
				}
				a.due = start
				rep := g.request(g.clients[i], a, nil)
				out[i] = append(out[i], sample{arrival: a, start: start, end: time.Since(t0), reply: rep})
			}
		}(i)
	}
	wg.Wait()
	samples := append(out[0], out[1]...)
	g.account(r, samples)
	end := time.Duration(0)
	for _, s := range samples {
		if s.end > end {
			end = s.end
		}
	}
	return float64(len(samples)) / end.Seconds()
}

// request sends one arrival's request.
func (g *serveRig) request(c *client, a arrival, trickles []trickleKey) reply {
	base := g.reps[a.rep].url
	switch {
	case a.trickle >= 0:
		tk := trickles[a.trickle]
		return c.do(http.MethodPost, base+"/v1/provision", provisionBody(tk.k, tk.seed))
	case a.compare:
		return c.do(http.MethodGet, compareURL(base, g.kinds[a.key]), nil)
	default:
		return c.do(http.MethodPost, base+"/v1/provision", provisionBody(g.kinds[a.key], 0))
	}
}

// account counts every reply: hot replies must repeat the warm reply;
// trickle replies are returned, by trickle index, for the check against
// the direct chain.
func (g *serveRig) account(r *runner, samples []sample) map[int][][]byte {
	bodies := map[int][][]byte{}
	for _, s := range samples {
		switch {
		case s.trickle >= 0:
			if r.t.request(fmt.Sprintf("trickle %d on replica %d", s.trickle, s.rep), s.reply) {
				bodies[s.trickle] = append(bodies[s.trickle], s.reply.body)
			}
		case s.compare:
			if r.t.request("hot compare "+g.kinds[s.key].String(), s.reply) {
				r.t.check(bytes.Equal(s.reply.body, g.cmpBody[s.key]), "hot compare %s: reply differs from the warm reply", g.kinds[s.key])
			}
		default:
			if r.t.request("hot provision "+g.kinds[s.key].String(), s.reply) {
				r.t.check(bytes.Equal(s.reply.body, g.provBody[s.key]), "hot provision %s: reply differs from the warm reply", g.kinds[s.key])
			}
		}
	}
	return bodies
}

// hotStats returns the latencies and lags of a phase's hot requests,
// and the follow-up (peer fill) latencies of its trickle.
func hotStats(samples []sample) (lat, lag, fill []float64) {
	for _, s := range samples {
		switch {
		case s.trickle < 0:
			lat = append(lat, s.latency())
			lag = append(lag, s.lag())
		case s.follow:
			fill = append(fill, s.latency())
		}
	}
	return lat, lag, fill
}

// sweepPasses: p99 within 50 ms and generator lag not growing (the
// last quarter's median lag within 5 ms of the first quarter's).
func sweepPasses(samples []sample) bool {
	lat, _, _ := hotStats(samples)
	if len(lat) < 8 || quantile(lat, 0.99) > 50 {
		return false
	}
	byDue := append([]sample(nil), samples...)
	sort.Slice(byDue, func(i, j int) bool { return byDue[i].due < byDue[j].due })
	q := len(byDue) / 4
	var first, last []float64
	for _, s := range byDue[:q] {
		first = append(first, s.lag())
	}
	for _, s := range byDue[len(byDue)-q:] {
		last = append(last, s.lag())
	}
	return median(last) <= median(first)+5
}

func serveMixed(r *runner) error {
	start := time.Now()
	g, err := newServeRig(r)
	if err != nil {
		return err
	}
	defer g.close()
	rng := rand.New(rand.NewSource(r.seed))
	setup := time.Since(start)

	// Phases 1 and 2 (a quarter of the run each) carry the trickle;
	// phase 3 (a fifth) sweeps hot-only rates open loop; phase 4 (the
	// rest) measures hot-only capacity closed loop.
	runs0, err := g.runs()
	if err != nil {
		return err
	}
	cold := 0
	var fills []float64
	var phases [2][]sample
	for p, rate := range []float64{r.sz.LightRate, r.sz.HeavyRate} {
		dur := time.Duration(0.25 * float64(r.seconds))
		tks, err := g.trickles(r, cold, dur)
		if err != nil {
			return err
		}
		cold += len(tks)
		s, bodies := g.phase(r, rng, rate, dur, tks)
		if err := checkTrickles(r, tks, bodies); err != nil {
			return err
		}
		phases[p] = s
		_, _, f := hotStats(s)
		fills = append(fills, f...)
	}
	heap := liveHeapMB()
	runs1, err := g.runs()
	if err != nil {
		return err
	}
	r.t.check(runs1-runs0 == float64(cold), "phases 1-2: %g profile runs for %d cold trickle keys", runs1-runs0, cold)

	step := time.Duration(0.2 * float64(r.seconds) / float64(len(r.sz.SweepRates)))
	maxRate, maxN := 0.0, 0
	for _, rate := range r.sz.SweepRates {
		s, _ := g.phase(r, rng, rate, step, nil)
		if !sweepPasses(s) {
			break
		}
		maxRate, maxN = rate, len(s)
	}
	capacity := g.capacity(r, rng, time.Duration(0.3*float64(r.seconds)))
	runs2, err := g.runs()
	if err != nil {
		return err
	}
	r.t.check(runs2 == runs1, "hot phases: %g profile runs, want 0", runs2-runs1)

	lightLat, _, _ := hotStats(phases[0])
	heavyLat, heavyLag, _ := hotStats(phases[1])
	lightP50 := median(lightLat)
	fill := median(fills)
	r.metric("hot_light_p50_ms", lightP50, "ms", len(lightLat))
	r.metric("hot_light_p99_ms", quantile(lightLat, 0.99), "ms", len(lightLat))
	r.metric("hot_p50_ms", median(heavyLat), "ms", len(heavyLat))
	r.metric("hot_p99_ms", quantile(heavyLat, 0.99), "ms", len(heavyLat))
	r.metric("hot_max_rps", maxRate, "1/s", maxN)
	r.metric("hot_capacity_rps", capacity, "1/s", 0)
	r.metric("peer_fill_ms", fill, "ms", len(fills))
	r.metric("gen_lag_p99_ms", quantile(heavyLag, 0.99), "ms", len(heavyLag))
	r.gate(lightP50, heap, setup.Seconds())
	return nil
}

// trickles derives the trickle keys of a phase lasting d, numbered from
// first: one per second, due at 0.5 s, 1.5 s, ...
func (g *serveRig) trickles(r *runner, first int, d time.Duration) ([]trickleKey, error) {
	var out []trickleKey
	for j := 0; time.Duration(j)*time.Second+time.Second/2 < d; j++ {
		tk, err := g.newTrickle(r, first+j)
		if err != nil {
			return nil, err
		}
		out = append(out, tk)
	}
	return out, nil
}

// checkTrickles checks every trickle reply, the owner's and the
// follower's, against the direct chain.
func checkTrickles(r *runner, tks []trickleKey, bodies map[int][][]byte) error {
	for j, tk := range tks {
		want, _, err := chainProvision(nil, "", tk.k, tk.seed, false)
		if err != nil {
			return fmt.Errorf("direct chain for trickle %s seed %d: %w", tk.k, tk.seed, err)
		}
		for _, b := range bodies[j] {
			checkProvision(r.t, fmt.Sprintf("trickle %s seed %d", tk.k, tk.seed), b, want)
		}
	}
	return nil
}

// serveLayers times the hit path's layers on the warmed tier with no
// network (handler, pipeline hit, keying, MaxRoute), the peer-fill path
// (Filler.Fill, artifact encode and decode), and a short open-loop
// phase at the heavy rate for transport time, cache and cluster
// counters and generator lag.
func serveLayers(r *runner, tr *tracer) error {
	g, err := newServeRig(r)
	if err != nil {
		return err
	}
	defer g.close()
	a, b := g.reps[0], g.reps[1]
	ctx := context.Background()
	const reps = 20
	var sparseHit, denseHit, maxroute, hitUS []float64
	for i, k := range g.kinds {
		req := "hit " + k.String()
		ref := pipeline.Spec(pipeline.ProfileSpec{App: k.App, Procs: k.Procs})
		plan, _, err := a.srv.Pipeline().Plan(ctx, ref, pipeline.Steady(), 0, 0)
		if err != nil {
			return fmt.Errorf("warm plan %s: %w", k, err)
		}
		var handler, mr, hit []float64
		for n := 0; n < reps; n++ {
			rec := httptest.NewRecorder()
			hreq := httptest.NewRequest(http.MethodPost, "/v1/provision", bytes.NewReader(provisionBody(k, 0)))
			handler = append(handler, us(tr.do("server.handler", -1, req, func() { a.srv.Handler().ServeHTTP(rec, hreq) })))
			r.t.Attempted++
			r.t.check(rec.Code == http.StatusOK && bytes.Equal(rec.Body.Bytes(), g.provBody[i]), "handler hit %s: status %d or reply differs", k, rec.Code)
			mr = append(mr, us(tr.do("hfast.maxroute", -1, req, func() { plan.Assignment.MaxRoute() })))
			hit = append(hit, us(tr.do("pipeline.plan_hit", -1, req, func() { _, _, err = a.srv.Pipeline().Plan(ctx, ref, pipeline.Steady(), 0, 0) })))
			if err != nil {
				return err
			}
		}
		if k.Dense {
			denseHit = append(denseHit, median(handler))
		} else {
			sparseHit = append(sparseHit, median(handler))
		}
		maxroute = append(maxroute, median(mr))
		hitUS = append(hitUS, median(hit))
	}
	var keyUS []float64
	for n := 0; n < reps*len(g.kinds); n++ {
		k := g.kinds[n%len(g.kinds)]
		rec := planRecipe(pipeline.ProfileSpec{App: k.App, Procs: k.Procs})
		keyUS = append(keyUS, us(tr.do("pipeline.key", -1, "key "+k.String(), func() { _, err = rec.Key() })))
		if err != nil {
			return err
		}
	}

	// Peer fill: B fetches each A-owned plan from A; the artifact codec
	// runs on every provisioning key's plan.
	var fillMS, encMS, decMS []float64
	for _, k := range g.kinds {
		req := "fill " + k.String()
		spec := pipeline.ProfileSpec{App: k.App, Procs: k.Procs}
		rec := planRecipe(spec)
		key, err := rec.Key()
		if err != nil {
			return err
		}
		plan, _, err := a.srv.Pipeline().Plan(ctx, pipeline.Spec(spec), pipeline.Steady(), 0, 0)
		if err != nil {
			return err
		}
		var data []byte
		encMS = append(encMS, ms(tr.do("pipeline.encode", -1, req, func() { data, err = pipeline.EncodeArtifact(pipeline.StagePlan, plan) })))
		if err != nil {
			return err
		}
		var back any
		decMS = append(decMS, ms(tr.do("pipeline.decode", -1, req, func() { back, err = pipeline.DecodeArtifact(pipeline.StagePlan, data) })))
		r.t.Attempted++
		if r.t.check(err == nil, "decoding plan %s: %v", k, err) {
			again, _ := pipeline.EncodeArtifact(pipeline.StagePlan, back)
			r.t.check(bytes.Equal(again, data), "plan %s: artifact changes on a round trip", k)
		}
		if owners := b.srv.Cluster().Owners(key); len(owners) == 0 || owners[0] != a.url {
			continue
		}
		var got []byte
		fillMS = append(fillMS, ms(tr.do("cluster.fill", -1, req, func() { got, err = b.srv.Cluster().Fill(ctx, key, rec) })))
		r.t.Attempted++
		r.t.check(err == nil && bytes.Equal(got, data), "peer fill %s: %v or bytes differ", k, err)
	}

	// A short heavy phase, with a trickle, for the counters.
	before := map[string]float64{}
	series := []string{"hfastd_cache_hits_total", "hfastd_cache_misses_total", "hfastd_coalesced_waiters_total",
		"hfastd_cluster_peer_hits_total", "hfastd_cluster_fallback_builds_total", "hfastd_rejected_total"}
	for _, s := range series {
		if before[s], err = scrapeSum(g.clients[0], g.reps, s); err != nil {
			return err
		}
	}
	tks, err := g.trickles(r, 0, 2*time.Second)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(r.seed))
	var samples []sample
	var bodies map[int][][]byte
	tr.do("gen.phase", -1, "heavy", func() {
		samples, bodies = g.phase(r, rng, r.sz.HeavyRate, 2*time.Second, tks)
	})
	if err := checkTrickles(r, tks, bodies); err != nil {
		return err
	}
	delta := map[string]float64{}
	for _, s := range series {
		v, err := scrapeSum(g.clients[0], g.reps, s)
		if err != nil {
			return err
		}
		delta[s] = v - before[s]
	}
	lat, lag, _ := hotStats(samples)
	handlerAll := append(append([]float64(nil), sparseHit...), denseHit...)
	served := delta["hfastd_cache_hits_total"] + delta["hfastd_cache_misses_total"] + delta["hfastd_coalesced_waiters_total"]

	r.layer("server.hit_sparse_us", mean(sparseHit), "us", "hot_*")
	r.layer("server.hit_dense_us", mean(denseHit), "us", "hot_*")
	r.layer("hfast.maxroute_us", mean(maxroute), "us", "hot_p99_ms, hot_light_p99_ms, hot_max_rps")
	r.layer("pipeline.hit_us", mean(hitUS), "us", "hot_p50_ms")
	r.layer("pipeline.key_us", median(keyUS), "us", "hot_p50_ms")
	r.layer("server.transport_us", 1e3*median(lat)-median(handlerAll), "us", "hot_p50_ms")
	r.layer("cluster.fill_ms", median(fillMS), "ms", "peer_fill_ms")
	r.layer("pipeline.encode_ms", mean(encMS), "ms", "peer_fill_ms")
	r.layer("pipeline.decode_ms", mean(decMS), "ms", "peer_fill_ms")
	r.layer("pipeline.hit_ratio", delta["hfastd_cache_hits_total"]/served, "ratio", "")
	r.layer("cluster.fills", delta["hfastd_cluster_peer_hits_total"], "count", "")
	r.layer("cluster.fallbacks", delta["hfastd_cluster_fallback_builds_total"], "count", "")
	r.layer("server.rejected", delta["hfastd_rejected_total"], "count", "")
	r.layer("gen.lag_ms", quantile(lag, 0.99), "ms", "")
	return nil
}
