package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/hfast-sim/hfast/internal/server"
)

// replica is one in-process hfastd behind a real loopback listener.
type replica struct {
	srv  *server.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

// startReplicas boots n hfastd replicas on 127.0.0.1. With n > 1 they
// form one clustered tier: every replica knows the full peer list.
func startReplicas(n int) ([]*replica, error) {
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, fmt.Errorf("listening on loopback: %w", err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	reps := make([]*replica, 0, n)
	for i, ln := range lns {
		cfg := server.Config{}
		if n > 1 {
			// A peer fetch may cover the owner's whole cold build.
			cfg.Peers, cfg.SelfURL, cfg.PeerTimeout = urls, urls[i], time.Minute
		}
		srv, err := server.New(cfg)
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			stopReplicas(reps)
			return nil, fmt.Errorf("starting hfastd: %w", err)
		}
		r := &replica{srv: srv, hs: &http.Server{Handler: srv.Handler()}, url: urls[i], done: make(chan struct{})}
		go func(ln net.Listener) {
			defer close(r.done)
			r.hs.Serve(ln)
		}(ln)
		reps = append(reps, r)
	}
	return reps, nil
}

// stopReplicas drains each replica and waits for its serve loop to end.
func stopReplicas(reps []*replica) {
	for _, r := range reps {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		r.hs.Shutdown(ctx)
		r.srv.Shutdown(ctx)
		cancel()
		<-r.done
	}
}

// client sends requests over at most one keep-alive connection, so the
// load a generator offers maps onto a known number of connections.
type client struct {
	hc *http.Client
	tr *http.Transport
}

func newClient() *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 2 * time.Minute}, tr: tr}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// reply is one finished request.
type reply struct {
	code int
	body []byte
	err  error
}

func (c *client) do(method, url string, body []byte) reply {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return reply{err: err}
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return reply{code: resp.StatusCode, body: data, err: err}
}

// tally counts attempted operations and classifies failures. A request
// that fails or is refused counts once, under the first class that
// applies.
type tally struct {
	Attempted  int `json:"attempted"`
	Non2xx     int `json:"non_2xx"`
	Rejected   int `json:"rejected_429"`
	Timeouts   int `json:"timeouts"`
	Errors     int `json:"transport_errors"`
	Mismatches int `json:"check_mismatches"`
	// Notes keeps the first few failure descriptions for diagnosis.
	Notes []string `json:"notes,omitempty"`
}

func (t *tally) failed() int { return t.Non2xx + t.Rejected + t.Timeouts + t.Errors + t.Mismatches }

func (t *tally) note(format string, args ...any) {
	if len(t.Notes) < 20 {
		t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
	}
}

// request records one HTTP attempt and reports whether it succeeded.
func (t *tally) request(what string, r reply) bool {
	t.Attempted++
	var ne net.Error
	switch {
	case r.err != nil && (errors.Is(r.err, context.DeadlineExceeded) || errors.As(r.err, &ne) && ne.Timeout()):
		t.Timeouts++
	case r.err != nil:
		t.Errors++
	case r.code == http.StatusTooManyRequests:
		t.Rejected++
	case r.code == http.StatusGatewayTimeout:
		t.Timeouts++
	case r.code < 200 || r.code > 299:
		t.Non2xx++
	default:
		return true
	}
	t.note("%s: status %d err %v body %.200s", what, r.code, r.err, r.body)
	return false
}

// check records one output check (not an extra attempt: it judges an
// operation already counted) and reports whether it passed.
func (t *tally) check(ok bool, format string, args ...any) bool {
	if !ok {
		t.Mismatches++
		t.note(format, args...)
	}
	return ok
}

// add folds another tally into t.
func (t *tally) add(o tally) {
	t.Attempted += o.Attempted
	t.Non2xx += o.Non2xx
	t.Rejected += o.Rejected
	t.Timeouts += o.Timeouts
	t.Errors += o.Errors
	t.Mismatches += o.Mismatches
	for _, n := range o.Notes {
		t.note("%s", n)
	}
}

// scrape reads a replica's /metrics page into series name (with labels)
// → value.
func scrape(c *client, base string) (map[string]float64, error) {
	r := c.do(http.MethodGet, base+"/metrics", nil)
	if r.err != nil || r.code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d: %v", r.code, r.err)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(r.body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// scrapeSum adds one series across replicas.
func scrapeSum(c *client, reps []*replica, series string) (float64, error) {
	sum := 0.0
	for _, r := range reps {
		m, err := scrape(c, r.url)
		if err != nil {
			return 0, err
		}
		sum += m[series]
	}
	return sum, nil
}

// liveHeapMB collects garbage and returns the live heap: the memory the
// system under test (and the benchmark's own inputs) holds right now.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return math.NaN()
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// peakRSSMB is the process's peak resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
