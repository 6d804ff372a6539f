package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hfast-sim/hfast/internal/apps"
	"github.com/hfast-sim/hfast/internal/ipm"
)

// testServer builds a Server whose Runner is the real pipeline unless
// overridden.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

// postJSONErr is safe to call from helper goroutines (no t.Fatal).
func postJSONErr(url string, body any) (*http.Response, []byte, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return nil, nil, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		return nil, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, nil, err
	}
	return resp, data, nil
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	resp, data, err := postJSONErr(url, body)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp, data
}

// TestLoad is the acceptance scenario from the issue: 64 concurrent
// clients against a capacity-2 pool, asserting coalescing, backpressure,
// prompt deadline failure, and metric reconciliation — under -race.
func TestLoad(t *testing.T) {
	var runs atomic.Int64
	slowRunner := func(ctx context.Context, app string, cfg apps.Config) (*ipm.Profile, error) {
		runs.Add(1)
		// Slow enough that all 64 clients arrive while the first flight
		// is still running, fast enough to keep the test quick.
		select {
		case <-time.After(100 * time.Millisecond):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return apps.ProfileRunContext(ctx, app, cfg)
	}
	s, ts := testServer(t, Config{
		Workers:    2,
		QueueDepth: 2,
		Runner:     slowRunner,
	})

	const clients = 64
	req := ProvisionRequest{ProfileRequest: ProfileRequest{App: "cactus", Procs: 8, Steps: 1}}

	// Phase 1: identical requests coalesce to ONE pipeline run and none
	// are shed — coalescing happens before pool admission.
	var wg sync.WaitGroup
	codes := make([]int, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _, err := postJSONErr(ts.URL+"/v1/provision", req)
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			codes[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Fatalf("identical client %d: got %d, want 200", i, c)
		}
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("identical requests ran the pipeline %d times, want 1", got)
	}
	snap := s.Metrics().Snapshot()
	if snap.Runs != 1 {
		t.Fatalf("runs counter = %d, want 1", snap.Runs)
	}
	// One miss created the flight; everyone else either coalesced onto it
	// or (having arrived after completion) hit the cache.
	if snap.CacheMisses != 1 {
		t.Fatalf("cache misses = %d, want 1", snap.CacheMisses)
	}
	if snap.Coalesced+snap.CacheHits != clients-1 {
		t.Fatalf("coalesced(%d) + hits(%d) = %d, want %d",
			snap.Coalesced, snap.CacheHits, snap.Coalesced+snap.CacheHits, clients-1)
	}

	// Phase 2: distinct requests overflow the capacity-2 pool + depth-2
	// queue; overflow is shed with 429 and a Retry-After header.
	var ok64, rejected atomic.Int64
	var headerMissing atomic.Int64
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := ProvisionRequest{ProfileRequest: ProfileRequest{
				App: "cactus", Procs: 8, Steps: 1, Seed: int64(1000 + i),
			}}
			resp, _, err := postJSONErr(ts.URL+"/v1/provision", r)
			if err != nil {
				t.Errorf("distinct client %d: %v", i, err)
				return
			}
			switch resp.StatusCode {
			case http.StatusOK:
				ok64.Add(1)
			case http.StatusTooManyRequests:
				rejected.Add(1)
				if resp.Header.Get("Retry-After") == "" {
					headerMissing.Add(1)
				}
			default:
				t.Errorf("distinct client %d: unexpected status %d", i, resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()
	if rejected.Load() == 0 {
		t.Fatal("no distinct request was shed with 429; backpressure is not engaging")
	}
	if headerMissing.Load() != 0 {
		t.Fatalf("%d of the 429 responses lacked a Retry-After header", headerMissing.Load())
	}
	if ok64.Load() == 0 {
		t.Fatal("every distinct request was rejected; pool admits nothing")
	}
	snap = s.Metrics().Snapshot()
	if snap.Rejected != uint64(rejected.Load()) {
		t.Fatalf("rejected counter = %d, observed %d 429s", snap.Rejected, rejected.Load())
	}

	// Phase 3: a 1 ms deadline fails promptly with 504 — cancellation
	// reaches the runtime rather than waiting out the pipeline.
	start := time.Now()
	resp, _ := postJSON(t, ts.URL+"/v1/provision?timeout_ms=1", ProvisionRequest{
		ProfileRequest: ProfileRequest{App: "cactus", Procs: 8, Steps: 1, Seed: 999999},
	})
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("1ms-deadline request: got %d, want 504", resp.StatusCode)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("1ms-deadline request took %v; cancellation did not propagate", elapsed)
	}
	snap = s.Metrics().Snapshot()
	if snap.Timeouts == 0 {
		t.Fatal("timeouts counter did not record the 504")
	}

	// Phase 4: /metrics reconciles with the traffic we generated.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	text := string(mbody)
	for _, want := range []string{
		"hfastd_pipeline_runs_total",
		"hfastd_cache_misses_total",
		"hfastd_coalesced_waiters_total",
		fmt.Sprintf("hfastd_rejected_total %d", snap.Rejected),
		fmt.Sprintf("hfastd_timeouts_total %d", snap.Timeouts),
		"hfastd_inflight_requests",
		"hfastd_queue_depth",
		`hfastd_requests_total{path="/v1/provision",code="200"}`,
		`hfastd_requests_total{path="/v1/provision",code="429"}`,
		`hfastd_requests_total{path="/v1/provision",code="504"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The per-{path,code} request counts must sum to the histogram count
	// (every finished request is observed exactly once).
	snap = s.Metrics().Snapshot()
	var total uint64
	for _, v := range snap.Requests {
		total += v
	}
	if total != snap.DurCount {
		t.Fatalf("sum of requests_total (%d) != histogram count (%d)", total, snap.DurCount)
	}
	// All handlers returned, so both gauges must settle to zero. The
	// decrement happens just after the response is written, so poll
	// briefly instead of asserting a single racy read.
	settleBy := time.Now().Add(5 * time.Second)
	for {
		snap = s.Metrics().Snapshot()
		if snap.Inflight == 0 && snap.QueueDepth == 0 {
			break
		}
		if time.Now().After(settleBy) {
			t.Fatalf("gauges did not settle: inflight=%d queue=%d", snap.Inflight, snap.QueueDepth)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestProfileEndpoint round-trips a real (small) pipeline run through the
// HTTP surface and checks the wire format version gate.
func TestProfileEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 2})
	resp, body := postJSON(t, ts.URL+"/v1/profile", ProfileRequest{App: "cactus", Procs: 8, Steps: 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	prof, err := ipm.ReadJSON(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("decoding response profile: %v", err)
	}
	if prof.Version != ipm.SchemaVersion || prof.App != "cactus" || prof.Procs != 8 {
		t.Fatalf("unexpected profile header: version=%d app=%q procs=%d", prof.Version, prof.App, prof.Procs)
	}
}

// TestProvisionUploadedProfile provisions from a client-supplied profile
// without running the pipeline.
func TestProvisionUploadedProfile(t *testing.T) {
	prof, err := apps.ProfileRun("cactus", apps.Config{Procs: 8, Steps: 1})
	if err != nil {
		t.Fatalf("building fixture profile: %v", err)
	}
	var runs atomic.Int64
	s, ts := testServer(t, Config{
		Workers: 1,
		Runner: func(ctx context.Context, app string, cfg apps.Config) (*ipm.Profile, error) {
			runs.Add(1)
			return apps.ProfileRunContext(ctx, app, cfg)
		},
	})
	resp, body := postJSON(t, ts.URL+"/v1/provision", ProvisionRequest{Profile: prof})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out ProvisionResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	if out.Procs != 8 || out.TotalBlocks <= 0 || out.Circuits <= 0 {
		t.Fatalf("implausible plan: %+v", out)
	}
	if runs.Load() != 0 {
		t.Fatalf("uploaded-profile provisioning ran the pipeline %d times, want 0", runs.Load())
	}
	// Identical upload → cache hit.
	postJSON(t, ts.URL+"/v1/provision", ProvisionRequest{Profile: prof})
	if s.Metrics().Snapshot().CacheHits == 0 {
		t.Fatal("second identical upload did not hit the cache")
	}
}

// TestProvisionUltraScale serves a provisioning request for a P=1024
// skeleton profile under the default worker-pool limits — the issue's
// acceptance scenario for the sparse analysis path.
func TestProvisionUltraScale(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/provision", ProvisionRequest{
		ProfileRequest: ProfileRequest{App: "cactus", Procs: 1024, Steps: 1},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out ProvisionResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	if out.Procs != 1024 {
		t.Fatalf("plan procs %d, want 1024", out.Procs)
	}
	if out.TotalBlocks < 1024 || out.Circuits <= 0 {
		t.Fatalf("implausible ultra-scale plan: %+v", out)
	}
}

// TestCompareEndpoint checks the GET query surface and text rendering.
func TestCompareEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 2})
	resp, err := http.Get(ts.URL + "/v1/compare?app=cactus&procs=8&steps=1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out CompareResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	if out.HFAST.Total <= 0 || out.FatTree.Total <= 0 || out.Ratio <= 0 {
		t.Fatalf("implausible comparison: %+v", out)
	}

	// Text rendering must be byte-stable across identical requests.
	get := func() string {
		r, err := http.Get(ts.URL + "/v1/compare?app=cactus&procs=8&steps=1&format=text")
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(r.Body)
		r.Body.Close()
		return string(b)
	}
	a, b := get(), get()
	if a != b {
		t.Fatalf("text rendering is not byte-stable:\n--- a ---\n%s--- b ---\n%s", a, b)
	}
	if !strings.Contains(a, "HFAST vs baselines: cactus P=8") {
		t.Fatalf("unexpected text output:\n%s", a)
	}
}

// TestCompareSeedAndScale checks that /v1/compare takes the optional
// seed and scale query parameters into the profile it runs: seed=5 and
// scale=32 each profile a new key, while the defaults (and an explicit
// seed=0) share the key a request without them uses.
func TestCompareSeedAndScale(t *testing.T) {
	var mu sync.Mutex
	var runs []apps.Config
	_, ts := testServer(t, Config{Workers: 1, Runner: func(ctx context.Context, app string, cfg apps.Config) (*ipm.Profile, error) {
		mu.Lock()
		runs = append(runs, cfg)
		mu.Unlock()
		return apps.ProfileRunContext(ctx, app, cfg)
	}})
	get := func(query string) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/compare?app=cactus&procs=8&steps=1" + query)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", query, resp.StatusCode, body)
		}
	}
	get("")
	get("&seed=0")
	get("&seed=5")
	get("&scale=32")
	mu.Lock()
	defer mu.Unlock()
	if len(runs) != 3 {
		t.Fatalf("%d profile runs, want 3 (default, seed=5, scale=32): %+v", len(runs), runs)
	}
	if runs[0].Seed != 0 || runs[0].Scale != 0 || runs[1].Seed != 5 || runs[2].Scale != 32 {
		t.Fatalf("profile runs %+v, want seeds 0, 5, 0 and scales 0, 0, 32", runs)
	}
	for _, bad := range []string{"seed=x", "scale=1.5"} {
		resp, err := http.Get(ts.URL + "/v1/compare?app=cactus&procs=8&" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestBadInput exercises the 400 paths.
func TestBadInput(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	cases := []struct {
		name string
		do   func() *http.Response
	}{
		{"unknown app", func() *http.Response {
			r, _ := postJSON(t, ts.URL+"/v1/profile", ProfileRequest{App: "nope", Procs: 8})
			return r
		}},
		{"zero procs", func() *http.Response {
			r, _ := postJSON(t, ts.URL+"/v1/profile", ProfileRequest{App: "cactus"})
			return r
		}},
		{"procs over limit", func() *http.Response {
			r, _ := postJSON(t, ts.URL+"/v1/profile", ProfileRequest{App: "cactus", Procs: 1 << 20})
			return r
		}},
		{"malformed body", func() *http.Response {
			r, err := http.Post(ts.URL+"/v1/profile", "application/json", strings.NewReader("{"))
			if err != nil {
				t.Fatal(err)
			}
			r.Body.Close()
			return r
		}},
		{"bad compare query", func() *http.Response {
			r, err := http.Get(ts.URL + "/v1/compare?app=cactus&procs=abc")
			if err != nil {
				t.Fatal(err)
			}
			r.Body.Close()
			return r
		}},
	}
	for _, tc := range cases {
		if code := tc.do().StatusCode; code != http.StatusBadRequest {
			t.Errorf("%s: got %d, want 400", tc.name, code)
		}
	}
	// Wrong method → 405.
	r, err := http.Get(ts.URL + "/v1/profile")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/profile: got %d, want 405", r.StatusCode)
	}
}

// TestAppsEndpoint lists every registered skeleton: the paper's six in
// registry order, then the extras (amr).
func TestAppsEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/apps")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var out []AppResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	if want := len(apps.Registry) + len(apps.Extra); len(out) != want {
		t.Fatalf("got %d apps, want %d", len(out), want)
	}
	if out[0].Name != "cactus" {
		t.Fatalf("first app %q, want cactus (registry order)", out[0].Name)
	}
	if out[len(apps.Registry)].Name != "amr" {
		t.Fatalf("first extra app %q, want amr", out[len(apps.Registry)].Name)
	}
}

// TestShutdownDrains verifies graceful shutdown: in-flight work finishes,
// new work is refused with 503.
func TestShutdownDrains(t *testing.T) {
	release := make(chan struct{})
	s, err := New(Config{
		Workers: 1,
		Runner: func(ctx context.Context, app string, cfg apps.Config) (*ipm.Profile, error) {
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return apps.ProfileRunContext(ctx, app, cfg)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	done := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, ts.URL+"/v1/profile", ProfileRequest{App: "cactus", Procs: 8, Steps: 1})
		done <- resp.StatusCode
	}()
	// Wait for the request to be in flight.
	deadline := time.Now().Add(5 * time.Second)
	for s.Metrics().Snapshot().Runs == 0 {
		if time.Now().After(deadline) {
			t.Fatal("runner never started")
		}
		time.Sleep(time.Millisecond)
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	// Wait until the draining flag is visible (GET /v1/apps is cheap and
	// NOT exempt from the drain gate), then assert new work gets 503.
	drainBy := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/apps")
		if err != nil {
			t.Fatalf("probe: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(drainBy) {
			t.Fatal("draining flag never became visible")
		}
		time.Sleep(time.Millisecond)
	}
	resp, _ := postJSON(t, ts.URL+"/v1/profile", ProfileRequest{App: "lbmhd", Procs: 8, Steps: 1})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("request during drain got %d, want 503", resp.StatusCode)
	}
	// /healthz and /metrics stay reachable during the drain.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Errorf("/healthz during drain got %d, want 200", hresp.StatusCode)
	}
	close(release)
	if code := <-done; code != http.StatusOK {
		t.Fatalf("in-flight request finished with %d, want 200", code)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}
