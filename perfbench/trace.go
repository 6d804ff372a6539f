package main

import (
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside the layer:
// the benchmark wraps each public call it makes. Parent is the index of
// the enclosing span (-1 for a root); spans of one replayed request
// share Req.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    string `json:"req"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int, req string) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Req: req})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// do records fn as one span and returns how long fn took.
func (t *tracer) do(name string, parent int, req string, fn func()) time.Duration {
	i := t.begin(name, parent, req)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	t.end(i)
	return d
}

// selfTimes sums each span name's exclusive time — its duration minus
// the part its direct children cover — in seconds, with call counts.
// Children of one parent run sequentially here, so their durations do
// not overlap and subtracting their sum is exact.
func (t *tracer) selfTimes() (map[string]float64, map[string]int) {
	self := map[string]float64{}
	count := map[string]int{}
	if t == nil {
		return self, count
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		self[s.Name] += float64(s.End-s.Start-child[i]) / 1e9
		count[s.Name]++
	}
	return self, count
}

// spanCost measures what recording one span costs: the median over
// batches of the time per begin/end pair on a scratch tracer.
func spanCost() time.Duration {
	const batch = 1000
	var per []float64
	for i := 0; i < 21; i++ {
		t := newTracer()
		t0 := time.Now()
		for j := 0; j < batch; j++ {
			t.end(t.begin("cost", -1, ""))
		}
		per = append(per, float64(time.Since(t0))/batch)
	}
	return time.Duration(median(per))
}
