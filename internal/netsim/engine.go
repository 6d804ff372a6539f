package netsim

import (
	"fmt"
	"math"
	"sync"

	"github.com/hfast-sim/hfast/internal/par"
)

// completionEpsilon is the sub-byte residue treated as "finished".
// Rounding noise from draining to a completion time quantized to the
// float ulp of the clock can leave r·ulp ≫ 1e-9 bytes behind at GB/s
// rates, so anything under a thousandth of a byte counts as done. Both
// engines share the constant so their retirement behavior matches.
const completionEpsilon = 1e-3

// superFlow is one simulated unit: identical application flows (same
// src, dst, start time, size — and therefore the same path) coalesced so
// the event loop and the water-filling solver see one flow where the
// input had many. Every constituent receives the same max-min share, so
// they finish together and the super-flow's result fans back out through
// the engine's raw-flow index map. Only cold, per-run-constant data
// lives here; everything the hot loops touch (rate, remaining, weight,
// seq, done) is structure-of-arrays state on the engine, so the inner
// scans walk dense float/int arrays instead of striding through structs.
type superFlow struct {
	start   float64
	bytes   float64 // per-constituent size
	path    []int
	linkPos []int32 // position of this flow's entry in link's active segment
	latency float64
	finish  float64
}

// heapEntry is a projected completion. Entries are invalidated lazily:
// when a flow's rate changes, its seq advances and a fresh entry is
// pushed; stale entries are discarded when popped. Ordering is
// (time, flow index), so simultaneous completions resolve in flow order
// and repeated runs are byte-identical.
type heapEntry struct {
	t    float64
	flow int32
	seq  int32
}

func heapLess(a, b heapEntry) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.flow < b.flow
}

// linkRef is one active flow's membership in a link's index segment;
// slot is the index of the link within the flow's path, so removals can
// fix up the moved entry's back-pointer in O(1).
type linkRef struct{ flow, slot int32 }

// compState is one component timeline: the event heap, clock, arrival
// cursor, epoch counters, and recompute scratch of a single connected
// component of flows. Components partition both the flows and the links
// they touch (scheduler.go), so every compState reads and writes a
// disjoint index set of the engine's shared structure-of-arrays slabs —
// which is what lets the scheduler advance component timelines
// concurrently with no copying and no locks, and what makes a runtime
// merge of two components a cheap bookkeeping splice (heaps concatenate,
// arrival tails interleave, counters add; every per-flow and per-link
// slab entry is already where the merged timeline needs it).
type compState struct {
	id     int32
	nFlows int // super-flows assigned to this component, processed or not

	heap []heapEntry

	order    []int32 // pending arrivals in (start, flow-index) order
	next     int     // cursor into order
	orderBuf []int32 // owned backing for merged-component order lists

	now         float64
	activeCount int
	events      int
	maxEvents   int

	// Epoch counters stamp the engine's shared mark slabs; component
	// disjointness keeps concurrent stamps from colliding, and a merged
	// component resumes from the max of its parents' counters.
	epoch    int32
	chkEpoch int32

	// Recompute scratch (solve-set links, affected flows, event seeds,
	// moved links, the fill's compactable copy of queue).
	queue     []int32
	compFlows []int32
	seeds     []int32
	moved     []int32
	fillLinks []int32

	merged bool // absorbed into a merge; no longer runnable
}

// engine is the incremental event-driven simulator state. Everything is
// arena-style: every slice (including the coalescing map and the heap
// backing arrays) lives on the engine, is grown to high-water marks, and
// is reused across Simulate calls through enginePool, so a replay at a
// size the pool has seen before allocates only what the routers return.
//
// Between events the engine maintains, per link, the consumed bandwidth
// (linkS), the residual slack (linkResid) and the largest per-share flow
// rate (linkMaxRate) of the committed allocation. These are what make
// recompute local: an event re-solves only the flows on the links it
// touched, and the stored slack/max-rate of every other link certifies —
// via the max-min bottleneck property — that untouched flows keep their
// rates.
//
// Per-timeline state lives in compState: the scheduler (scheduler.go)
// partitions the flows into link-disjoint connected components, each
// advanced by its own compState over these shared slabs.
type engine struct {
	sims []superFlow

	// Hot per-flow state, indexed by super-flow.
	remaining []float64 // per-constituent bytes left, valid at lastT
	rate      []float64 // current per-constituent max-min share
	lastT     []float64 // time remaining was last settled
	weight    []int32   // coalesced input flows
	seq       []int32   // generation of the flow's live heap entry
	done      []bool

	// Per-link state. Active flows live in refs[linkOff[l]:][:linkLen[l]],
	// a CSR-style segment sized at build time to the link's static
	// membership count, so admit/retire never reallocate.
	linkBW     []float64
	refs       []linkRef
	linkOff    []int32
	linkLen    []int32
	linkWeight []int32
	posSlab    []int32

	// Committed-allocation state per link.
	linkS       []float64 // consumed bandwidth: Σ weight·rate over active flows
	linkResid   []float64 // unconsumed bandwidth
	linkMaxRate []float64 // largest per-share rate among active flows
	linkSat     []uint8   // 1 iff resid ≤ satSlack·bw, maintained with linkResid

	// Epoch-stamped recompute scratch. Component timelines stamp these
	// with their own counters; disjointness keeps the stamps from
	// colliding, and epochHW is the engine-wide high-water mark new
	// components start above.
	epochHW  int32
	linkMark []int32 // link is in the solve set T this epoch
	linkPull []int32 // link's flows have been pulled into A this epoch
	flowMark []int32 // flow is in the affected set A this epoch

	// Water-filling scratch.
	linkCap   []float64
	linkW     []int32
	fixedMark []int32 // flow fixed during this epoch's solve
	newRate   []float64
	oldRate   []float64 // rate at the moment the flow joined A
	chkMark   []int32   // flow witness-checked this pass

	// Component scheduling state (scheduler.go).
	comps      []compState
	nodes      []schedNode
	mergeNodes []int32 // merge-node ids in (time, flow-index) order
	nodeOfFlow []int32 // super-flow → owning scheduler node
	flowSlab   []int32 // per-node flow lists, CSR over nodes
	linkUF     []int32 // union-find parent per link, -1 while unowned
	nodeOfRoot []int32 // union-find root link → scheduler node
	arrival    []int32 // routable nonzero super-flows in (start, index) order
	live       []int32 // comps currently runnable (scratch)
	runErrs    []error // per-live-comp errors from a scheduler epoch
	invol      []int32 // partition scratch: nodes a flow's path touches
	kids       []int32 // partition scratch: live children of a union

	// Build scratch for SimulateInto, reused across calls.
	groups    map[groupKey]int32
	paths     [][]int
	lats      []float64
	routedOK  []bool
	simIdx    []int32 // raw flow → super-flow (-1 when unroutable)
	linkBytes []float64
	routeBufs [][]int // per-chunk arenas AppendRouter paths live in
}

// groupKey identifies a coalescing group. The key includes the size:
// flows differing only in bytes share a path but finish at different
// times, so they stay separate.
type groupKey struct {
	src, dst int
	start    float64
	bytes    int64
}

// enginePool recycles engines — and with them every scratch slice, the
// heap backing array, and the coalescing map — across Simulate calls.
var enginePool = sync.Pool{New: func() any { return new(engine) }}

func growF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

func growU8(s []uint8, n int) []uint8 {
	if cap(s) < n {
		return make([]uint8, n)
	}
	return s[:n]
}

// Simulate runs the progressive-filling model: at every arrival or
// completion event, active flows get max-min fair shares of their path
// bandwidth. The engine is incremental — see the package comment — and
// its results match simulateReference's whole-network recomputation to
// float-rounding noise. Link-disjoint components of the traffic advance
// concurrently over par workers; results are bit-identical at any
// GOMAXPROCS.
func Simulate(net *Network, router Router, flows []Flow) (Result, error) {
	var res Result
	if err := SimulateInto(&res, net, router, flows); err != nil {
		return Result{}, err
	}
	return res, nil
}

// SimulateInto is Simulate reusing the caller's Result: res.Flows is
// resliced in place when its capacity suffices, so replay loops (the
// pipeline Netsim stage, benchmarks) can pool Result values and stop
// paying one FlowResult slice per call. On error *res is untouched.
//
// The replay runs component-scheduled: build routes and coalesces,
// partition splits the super-flows into link-disjoint connected
// components (scheduler.go), and runScheduled advances the component
// timelines — concurrently when there is more than one.
func SimulateInto(res *Result, net *Network, router Router, flows []Flow) error {
	e := enginePool.Get().(*engine)
	defer e.release()
	unroutable, maxLinkBytes, err := e.build(net, router, flows)
	if err != nil {
		return err
	}
	if err := e.runScheduled(); err != nil {
		return err
	}

	if cap(res.Flows) >= len(flows) {
		res.Flows = res.Flows[:len(flows)]
	} else {
		res.Flows = make([]FlowResult, len(flows))
	}
	res.Makespan, res.Unroutable, res.MaxLinkBytes = 0, unroutable, maxLinkBytes
	for i := range flows {
		si := e.simIdx[i]
		if si < 0 {
			res.Flows[i] = FlowResult{Finish: -1}
			continue
		}
		f := e.sims[si].finish
		res.Flows[i] = FlowResult{Finish: f, Routed: f >= 0}
		if f > res.Makespan {
			res.Makespan = f
		}
	}
	return nil
}

// routeChunk is the fixed flow-count grid the routing fan-out splits
// over. Fixed chunks (never worker-count-derived shards) give every
// chunk its own append arena, so AppendRouter paths land in engine-owned
// memory with a layout that is a pure function of the flow list.
const routeChunk = 4096

// build routes, validates, and coalesces the raw flows, then sizes every
// engine array for the run. Routing is the only per-flow work with no
// cross-flow dependency, so it fans out over par workers; validation,
// byte accounting, and coalescing stay serial so error precedence and
// float accumulation order never depend on the worker count.
func (e *engine) build(net *Network, router Router, flows []Flow) (unroutable int, maxLinkBytes float64, err error) {
	nLinks := net.Links()
	nf := len(flows)
	e.paths = growPaths(e.paths, nf)
	e.lats = growF64(e.lats, nf)
	e.routedOK = growBool(e.routedOK, nf)
	e.simIdx = growI32(e.simIdx, nf)
	if ar, ok := router.(AppendRouter); ok {
		// Route into per-chunk arenas: the fabric appends each path to the
		// chunk's slab instead of allocating one slice per call. Slab
		// growth may strand early paths on a retired backing array — they
		// stay valid, and the high-water slab makes repeat replays
		// allocation-free.
		nChunks := (nf + routeChunk - 1) / routeChunk
		if cap(e.routeBufs) < nChunks {
			bufs := make([][]int, nChunks)
			copy(bufs, e.routeBufs)
			e.routeBufs = bufs
		}
		e.routeBufs = e.routeBufs[:nChunks]
		par.ForChunks(nf, routeChunk, func(ci, lo, hi int) {
			buf := e.routeBufs[ci][:0]
			for i := lo; i < hi; i++ {
				base := len(buf)
				var full []int
				full, e.lats[i], e.routedOK[i] = ar.RouteAppend(buf, flows[i].Src, flows[i].Dst)
				e.paths[i] = full[base:len(full):len(full)]
				buf = full
			}
			e.routeBufs[ci] = buf
		})
	} else {
		par.Ranges(nf, 0, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				e.paths[i], e.lats[i], e.routedOK[i] = router.Route(flows[i].Src, flows[i].Dst)
			}
		})
	}

	e.linkBytes = growF64(e.linkBytes, nLinks)
	clear(e.linkBytes)
	if e.groups == nil {
		e.groups = make(map[groupKey]int32, nf)
	} else {
		clear(e.groups)
	}
	// Super-flows are bounded by the raw flow count: pre-size once so a
	// cold storm-scale build pays one allocation instead of a doubling
	// cascade (the P=65536 halo grew e.sims through ~160 MB of retired
	// backing arrays before this).
	if cap(e.sims) < nf {
		e.sims = make([]superFlow, 0, nf)
	} else {
		e.sims = e.sims[:0]
	}
	if cap(e.weight) < nf {
		e.weight = make([]int32, 0, nf)
	} else {
		e.weight = e.weight[:0]
	}
	pathTotal := 0
	for i, f := range flows {
		if f.Bytes < 0 {
			return 0, 0, fmt.Errorf("netsim: flow %d has negative size", i)
		}
		if !e.routedOK[i] {
			e.simIdx[i] = -1
			unroutable++
			continue
		}
		path := e.paths[i]
		for _, l := range path {
			if l < 0 || l >= nLinks {
				return 0, 0, fmt.Errorf("netsim: flow %d routed over unknown link %d", i, l)
			}
			e.linkBytes[l] += float64(f.Bytes)
		}
		k := groupKey{f.Src, f.Dst, f.Start, f.Bytes}
		if gi, ok := e.groups[k]; ok {
			e.weight[gi]++
			e.simIdx[i] = gi
			continue
		}
		gi := int32(len(e.sims))
		e.groups[k] = gi
		e.simIdx[i] = gi
		e.sims = append(e.sims, superFlow{
			start: f.Start, bytes: float64(f.Bytes),
			path: path, latency: e.lats[i], finish: -1,
		})
		e.weight = append(e.weight, 1)
		pathTotal += len(path)
	}
	for _, b := range e.linkBytes[:nLinks] {
		if b > maxLinkBytes {
			maxLinkBytes = b
		}
	}

	ns := len(e.sims)
	e.remaining = growF64(e.remaining, ns)
	e.rate = growF64(e.rate, ns)
	e.lastT = growF64(e.lastT, ns)
	e.seq = growI32(e.seq, ns)
	e.done = growBool(e.done, ns)
	e.newRate = growF64(e.newRate, ns)
	e.oldRate = growF64(e.oldRate, ns)
	for i := range e.sims {
		e.remaining[i] = e.sims[i].bytes
		e.rate[i], e.lastT[i] = 0, 0
		e.seq[i] = 0
		e.done[i] = false
	}

	// Epoch-stamped scratch: stamps from earlier runs are stale but can
	// never collide while epochs only grow, so reused memory needs no
	// clearing. Grown memory arrives zeroed, which reads as "epoch 0" —
	// keep real epochs strictly positive.
	if e.epochHW > 1<<30 {
		e.epochHW = 0
		clearI32 := func(s []int32) { clear(s[:cap(s)]) }
		clearI32(e.linkMark[:0])
		clearI32(e.linkPull[:0])
		clearI32(e.flowMark[:0])
		clearI32(e.fixedMark[:0])
		clearI32(e.chkMark[:0])
	}
	e.flowMark = growI32(e.flowMark, ns)
	e.fixedMark = growI32(e.fixedMark, ns)
	e.chkMark = growI32(e.chkMark, ns)

	e.linkBW = growF64(e.linkBW, nLinks)
	e.linkS = growF64(e.linkS, nLinks)
	e.linkResid = growF64(e.linkResid, nLinks)
	e.linkMaxRate = growF64(e.linkMaxRate, nLinks)
	e.linkSat = growU8(e.linkSat, nLinks)
	e.linkOff = growI32(e.linkOff, nLinks)
	e.linkLen = growI32(e.linkLen, nLinks)
	e.linkWeight = growI32(e.linkWeight, nLinks)
	e.linkCap = growF64(e.linkCap, nLinks)
	e.linkW = growI32(e.linkW, nLinks)
	e.linkMark = growI32(e.linkMark, nLinks)
	e.linkPull = growI32(e.linkPull, nLinks)
	for l := 0; l < nLinks; l++ {
		bw := net.links[l].Bandwidth
		e.linkBW[l] = bw
		e.linkS[l] = 0
		e.linkResid[l] = bw
		e.linkMaxRate[l] = 0
		if bw <= satSlack*bw {
			e.linkSat[l] = 1
		} else {
			e.linkSat[l] = 0
		}
		e.linkLen[l] = 0
		e.linkWeight[l] = 0
	}

	// CSR link membership: each link's segment capacity is its static
	// flow count, so the active sets never move after this.
	cnt := e.linkLen // reuse as a counter, reset below
	for i := range e.sims {
		for _, l := range e.sims[i].path {
			cnt[l]++
		}
	}
	off := int32(0)
	for l := 0; l < nLinks; l++ {
		e.linkOff[l] = off
		off += cnt[l]
		cnt[l] = 0
	}
	if cap(e.refs) < int(off) {
		e.refs = make([]linkRef, off)
	} else {
		e.refs = e.refs[:off]
	}
	e.posSlab = growI32(e.posSlab, pathTotal)
	po := 0
	for i := range e.sims {
		n := len(e.sims[i].path)
		e.sims[i].linkPos = e.posSlab[po : po+n : po+n]
		po += n
	}

	e.partition()
	return unroutable, maxLinkBytes, nil
}

func growPaths(s [][]int, n int) [][]int {
	if cap(s) < n {
		return make([][]int, n)
	}
	return s[:n]
}

// release scrubs the references into router-owned path memory so the
// pooled engine never pins a previous run's routes, then returns the
// engine to the pool.
func (e *engine) release() {
	for i := range e.sims {
		e.sims[i].path = nil
		e.sims[i].linkPos = nil
	}
	clear(e.paths)
	enginePool.Put(e)
}

// maxEventCap bounds the event loop. Every super-flow contributes one
// arrival and one completion event; float rounding can split a
// simultaneous completion batch into a few ulp-separated events, so the
// cap is proportional at 3 events per coalesced flow plus slack for tiny
// inputs. (The seed's 16·flows+4096 constant overshot by orders of
// magnitude at scale and still undershot pathological tie storms on tiny
// inputs, since it scaled with raw rather than coalesced flow count.)
func maxEventCap(superFlows int) int { return 3*superFlows + 64 }

// run advances one component timeline, processing every event strictly
// before horizon. The clock, arrival cursor, and heap survive in the
// compState across calls, so the scheduler can run a component up to a
// merge barrier and resume the merged component afterwards; the final
// epoch runs with horizon = +Inf, which is where an event drought with
// live flows becomes a stall error.
func (e *engine) run(c *compState, horizon float64) error {
	for {
		// Discard stale heap entries, then pick the next event: the
		// earliest pending arrival or projected completion.
		for len(c.heap) > 0 {
			top := c.heap[0]
			if e.seq[top.flow] == top.seq && !e.done[top.flow] {
				break
			}
			c.heapPop()
		}
		tNext := math.Inf(1)
		if c.next < len(c.order) {
			tNext = e.sims[c.order[c.next]].start
		}
		if len(c.heap) > 0 && c.heap[0].t < tNext {
			tNext = c.heap[0].t
		}
		if tNext >= horizon {
			if math.IsInf(horizon, 1) && c.activeCount > 0 {
				return fmt.Errorf("netsim: component %d: %d flows stalled with zero rate after %d events (cap %d, t=%.6g, horizon=%g)",
					c.id, c.activeCount, c.events, c.maxEvents, c.now, horizon)
			}
			return nil
		}
		c.events++
		if c.events > c.maxEvents {
			return fmt.Errorf("netsim: component %d: no progress after %d events (cap %d for %d coalesced flows, t=%.6g, horizon=%g, %d active)",
				c.id, c.events, c.maxEvents, c.nFlows, c.now, horizon, c.activeCount)
		}
		c.now = tNext

		// Retire every flow whose live projection lands on this event
		// time — the whole simultaneous batch, in flow-index order.
		c.seeds = c.seeds[:0]
		for len(c.heap) > 0 {
			top := c.heap[0]
			if e.seq[top.flow] != top.seq || e.done[top.flow] {
				c.heapPop()
				continue
			}
			if top.t > c.now {
				break
			}
			c.heapPop()
			e.retire(c, top.flow, true)
		}
		// Admit arrivals due now; the whole same-timestamp group seeds one
		// recompute.
		for c.next < len(c.order) && e.sims[c.order[c.next]].start <= c.now+1e-15 {
			e.admit(c, c.order[c.next])
			c.next++
		}
		if len(c.seeds) > 0 {
			e.recompute(c)
		}
	}
}

// activeRefs is link l's active-flow segment.
func (e *engine) activeRefs(l int32) []linkRef {
	off := e.linkOff[l]
	return e.refs[off : off+e.linkLen[l]]
}

// retire finalizes a flow at the current time: any sub-epsilon residue
// is rounding noise from the projection, so remaining is forced to zero.
// The flow leaves every per-link segment immediately — it can never be
// drained or counted again — and its links seed the next recompute.
func (e *engine) retire(c *compState, fi int32, seed bool) {
	sf := &e.sims[fi]
	e.remaining[fi] = 0
	e.done[fi] = true
	sf.finish = c.now + sf.latency
	e.seq[fi]++
	c.activeCount--
	w := e.weight[fi]
	drop := float64(w) * e.rate[fi]
	for k, l := range sf.path {
		base := e.linkOff[l]
		p := base + sf.linkPos[k]
		last := base + e.linkLen[l] - 1
		moved := e.refs[last]
		e.refs[p] = moved
		e.linkLen[l]--
		if moved.flow != fi || moved.slot != int32(k) {
			e.sims[moved.flow].linkPos[moved.slot] = p - base
		}
		e.linkWeight[l] -= w
		e.linkS[l] -= drop
		if seed {
			c.seeds = append(c.seeds, int32(l))
		}
	}
	e.rate[fi] = 0
}

// admit activates an arriving flow and seeds its links.
func (e *engine) admit(c *compState, fi int32) {
	sf := &e.sims[fi]
	e.rate[fi] = 0
	e.lastT[fi] = c.now
	c.activeCount++
	w := e.weight[fi]
	for k, l := range sf.path {
		p := e.linkLen[l]
		sf.linkPos[k] = p
		e.refs[e.linkOff[l]+p] = linkRef{flow: fi, slot: int32(k)}
		e.linkLen[l]++
		e.linkWeight[l] += w
		c.seeds = append(c.seeds, int32(l))
	}
}

// satSlack is the residual under which a link counts as saturated, and
// rateBand the relative band within which two rates count equal, for the
// bottleneck-witness check. Both are far above float noise and far below
// any real rate difference the traffic models produce.
const (
	satSlack = 1e-9
	rateBand = 1e-9
)

// saturated reports whether link l has no meaningful slack left. The
// verdict is precomputed into a byte wherever linkResid is written
// (build, refreshLink): the witness machinery asks this per flow × path
// link, so a byte load here beats re-deriving the float comparison
// millions of times per storm-scale recompute.
func (e *engine) saturated(l int32) bool {
	return e.linkSat[l] != 0
}

// pullLink adds l to the solve set and pulls every flow on it into the
// affected set A. Flows are only marked here; settleNew drains them to
// the current time afterwards (settling can retire flows, which mutates
// the very index segments being iterated, so the two steps stay
// separate).
func (e *engine) pullLink(c *compState, l int32) {
	ep := c.epoch
	if e.linkPull[l] == ep {
		return
	}
	e.linkPull[l] = ep
	if e.linkMark[l] != ep {
		e.linkMark[l] = ep
		c.queue = append(c.queue, l)
	}
	for _, ref := range e.activeRefs(l) {
		if e.flowMark[ref.flow] != ep {
			e.flowMark[ref.flow] = ep
			c.compFlows = append(c.compFlows, ref.flow)
		}
	}
}

// settleNew drains every not-yet-settled flow in A to the current time,
// retiring those whose residue fell under the completion epsilon
// (retirement seeds the freed links) and adding survivors' path links to
// the solve set. Returns the new settled watermark.
func (e *engine) settleNew(c *compState, settled int) int {
	ep := c.epoch
	for ; settled < len(c.compFlows); settled++ {
		fi := c.compFlows[settled]
		if e.done[fi] {
			continue
		}
		if e.rate[fi] > 0 && c.now > e.lastT[fi] {
			e.remaining[fi] -= e.rate[fi] * (c.now - e.lastT[fi])
		}
		e.lastT[fi] = c.now
		e.oldRate[fi] = e.rate[fi]
		if e.remaining[fi] < completionEpsilon {
			e.retire(c, fi, true)
			continue
		}
		for _, l := range e.sims[fi].path {
			if e.linkMark[l] != ep {
				e.linkMark[l] = ep
				c.queue = append(c.queue, int32(l))
			}
		}
	}
	return settled
}

// solveAffected water-fills the affected flows over the solve-set links:
// every frozen flow is fixed background consumption, so a link's
// capacity for the solve is its bandwidth minus the committed
// consumption of flows outside A. The fix step is link-driven — every
// affected flow crossing a within-epsilon bottleneck link is fixed at
// the bottleneck share by walking those links' segments — so a solve
// costs O(|A|·pathlen + |T|·rounds), independent of network size.
//
// solveAffected returns the number of live (not-yet-done) flows in the
// affected set: when it equals the component's active count, the solve
// had no frozen background and its result is the component-global
// max-min — recompute uses that to skip the witness machinery outright.
func (e *engine) solveAffected(c *compState) int {
	for _, l := range c.queue {
		e.linkCap[l] = e.linkBW[l] - e.linkS[l]
		e.linkW[l] = 0
	}
	live := 0
	for _, fi := range c.compFlows {
		if e.done[fi] {
			continue
		}
		live++
		e.fixedMark[fi] = 0
		w := float64(e.weight[fi])
		for _, l := range e.sims[fi].path {
			e.linkCap[l] += w * e.rate[fi]
			e.linkW[l] += e.weight[fi]
		}
	}
	for _, l := range c.queue {
		if e.linkCap[l] < 0 {
			e.linkCap[l] = 0
		}
	}
	e.fill(c, live)
	return live
}

// fill runs bottleneck water-fill rounds over the solve-set links,
// fixing every affected, unfixed flow it reaches; live is the number of
// fixable flows in the affected set, which the numerical-corner
// fallbacks iterate. fill scans a copy of the solve set (refreshQueue
// still needs the original order): links that lost their last fixable
// flow are compacted out of it between rounds (order-preserving, so fix
// order — and with it every float — matches the uncompacted scan), which
// turns the admission-storm fill from O(|T|·rounds) into a scan over a
// shrinking frontier.
func (e *engine) fill(c *compState, live int) {
	ep := c.epoch
	c.fillLinks = append(c.fillLinks[:0], c.queue...)
	links, flows := c.fillLinks, c.compFlows
	nl := len(links)
	for live > 0 {
		bottle := math.Inf(1)
		for _, l := range links[:nl] {
			if e.linkW[l] > 0 {
				if s := e.linkCap[l] / float64(e.linkW[l]); s < bottle {
					bottle = s
				}
			}
		}
		if math.IsInf(bottle, 1) {
			// Numerical corner: no capacity left anywhere; flows not yet
			// fixed stall at zero rate (matching the reference, whose
			// unfixed flows get no rate entry).
			for _, fi := range flows {
				if !e.done[fi] && e.fixedMark[fi] != ep {
					e.newRate[fi] = 0
				}
			}
			return
		}
		progressed := false
		w := 0
		for _, l := range links[:nl] {
			if e.linkW[l] <= 0 {
				continue
			}
			links[w] = l
			w++
			if e.linkCap[l]/float64(e.linkW[l]) > bottle*(1+1e-12) {
				continue
			}
			for _, ref := range e.activeRefs(l) {
				fi := ref.flow
				if e.flowMark[fi] != ep || e.fixedMark[fi] == ep || e.done[fi] {
					continue
				}
				e.fixedMark[fi] = ep
				e.newRate[fi] = bottle
				live--
				progressed = true
				wf := float64(e.weight[fi])
				for _, l2 := range e.sims[fi].path {
					e.linkCap[l2] -= wf * bottle
					if e.linkCap[l2] < 0 {
						e.linkCap[l2] = 0
					}
					e.linkW[l2] -= e.weight[fi]
				}
			}
		}
		nl = w
		if !progressed {
			// Unreachable in theory (the bottleneck link always has an
			// unfixed flow); guard against float corners by fixing the
			// stragglers at the bottleneck share, as the reference does.
			for _, fi := range flows {
				if !e.done[fi] && e.fixedMark[fi] != ep {
					e.newRate[fi] = bottle
				}
			}
			return
		}
	}
}

// refreshQueue recomputes consumed/slack/max-rate for every solve-set
// link from its active segment and records the links that actually moved
// (in queue order, so the witness scan is deterministic).
func (e *engine) refreshQueue(c *compState) {
	c.moved = c.moved[:0]
	for _, l := range c.queue {
		if e.refreshLink(l) {
			c.moved = append(c.moved, l)
		}
	}
}

// refreshLink recommits link l's consumed/slack/max-rate state and
// reports whether the slack or top rate changed.
func (e *engine) refreshLink(l int32) bool {
	s, maxR := 0.0, 0.0
	for _, ref := range e.activeRefs(l) {
		r := e.rate[ref.flow]
		s += float64(e.weight[ref.flow]) * r
		if r > maxR {
			maxR = r
		}
	}
	resid := e.linkBW[l] - s
	if resid < 0 {
		resid = 0
	}
	changed := resid != e.linkResid[l] || maxR != e.linkMaxRate[l]
	e.linkS[l], e.linkResid[l], e.linkMaxRate[l] = s, resid, maxR
	if resid <= satSlack*e.linkBW[l] {
		e.linkSat[l] = 1
	} else {
		e.linkSat[l] = 0
	}
	return changed
}

// flowHasWitness reports whether flow fi holds a max-min bottleneck
// certificate: a saturated path link on which its rate is maximal.
func (e *engine) flowHasWitness(fi int32) bool {
	r := e.rate[fi] * (1 + rateBand)
	for _, l2 := range e.sims[fi].path {
		if e.saturated(int32(l2)) && e.linkMaxRate[l2] <= r {
			return true
		}
	}
	return false
}

// witnessExpand runs the bottleneck-witness scan over the moved links:
// every flow on a moved link (frozen flows included — their certificate
// may have lived here) is checked for a witness, and a flow without one
// pulls its saturated path links' flows into the affected set. Returns
// whether the affected set grew.
func (e *engine) witnessExpand(c *compState) bool {
	c.chkEpoch++
	ep := c.epoch
	expanded := false
	for _, l := range c.moved {
		for _, ref := range e.activeRefs(l) {
			fi := ref.flow
			if e.chkMark[fi] == c.chkEpoch {
				continue
			}
			e.chkMark[fi] = c.chkEpoch
			if e.done[fi] || e.rate[fi] <= 0 || e.flowHasWitness(fi) {
				continue
			}
			// No bottleneck witness: the flow deserves more, and the
			// higher-rate flows on its saturated links are what block it
			// — pull those links' flows into A and re-solve.
			for _, l2 := range e.sims[fi].path {
				if e.saturated(int32(l2)) {
					e.pullLink(c, int32(l2))
				}
			}
			if e.flowMark[fi] != ep {
				e.flowMark[fi] = ep
				c.compFlows = append(c.compFlows, fi)
			}
			expanded = true
		}
	}
	return expanded
}

// recompute re-solves max-min rates after an event, touching only the
// flows the event can affect. The affected set A starts as the flows on
// the seeded (freed or newly loaded) links; after water-filling A
// against the frozen background, every flow on a link whose slack or
// top rate moved is checked for the max-min bottleneck property — a
// saturated path link on which the flow's rate is maximal. A flow
// without such a witness is not max-min optimal, so the saturated links
// blocking it are pulled into A and the solve repeats. Untouched links
// certify their flows' rates by their stored slack/max-rate, which is
// what lets the engine skip them entirely.
func (e *engine) recompute(c *compState) {
	c.epoch++
	c.queue = c.queue[:0]
	c.compFlows = c.compFlows[:0]

	settled := 0
	for si := 0; si < len(c.seeds); si++ {
		e.pullLink(c, c.seeds[si])
		// Settling can retire flows, which appends to c.seeds.
		settled = e.settleNew(c, settled)
	}

	for pass := 0; ; pass++ {
		live := e.solveAffected(c)

		// Commit candidate rates, then refresh consumed/slack/max-rate
		// on every solve-set link — witness checks must never read a
		// stale slack/max-rate for a link whose refresh is still pending
		// in the same pass — remembering which links actually moved.
		for _, fi := range c.compFlows {
			if !e.done[fi] {
				e.rate[fi] = e.newRate[fi]
			}
		}
		e.refreshQueue(c)
		// When the affected set engulfed every active flow in the
		// component (the t=0 group of a synchronized replay being the
		// giant case), the solve ran with no frozen background, so it is
		// the component-global max-min and the witness scan can prove
		// nothing: any link it could pull is already in the solve set,
		// any flow already in A.
		if live == c.activeCount || !e.witnessExpand(c) {
			break
		}
		settled = e.settleNew(c, settled)
		for si := 0; si < len(c.seeds); si++ {
			e.pullLink(c, c.seeds[si])
			settled = e.settleNew(c, settled)
		}
		if pass > 64 {
			// Pathological float corner: fall back to re-solving every
			// active flow in this component, which is always a valid
			// affected set. (Scoped by the component's own admitted
			// flows, never the whole link table: other components'
			// timelines may be advancing concurrently.)
			for _, fi := range c.order[:c.next] {
				if e.done[fi] {
					continue
				}
				for _, l := range e.sims[fi].path {
					e.pullLink(c, int32(l))
				}
			}
			settled = e.settleNew(c, settled)
			e.solveAffected(c)
			for _, fi := range c.compFlows {
				if !e.done[fi] {
					e.rate[fi] = e.newRate[fi]
				}
			}
			e.refreshQueue(c)
			break
		}
	}

	// Re-project only the flows whose rate actually changed; everyone
	// else's heap entry is still the correct completion time.
	for _, fi := range c.compFlows {
		if e.done[fi] || e.rate[fi] == e.oldRate[fi] {
			continue
		}
		e.seq[fi]++
		if e.rate[fi] > 0 {
			c.heapPush(heapEntry{t: c.now + e.remaining[fi]/e.rate[fi], flow: fi, seq: e.seq[fi]})
		}
	}
	e.maybeCompact(c)
}

// maybeCompact sweeps stale entries out of a component heap once they
// outnumber the live ones 4:1 (and the heap is big enough to matter).
// Every rate change pushes a fresh entry and strands the old one, so a
// storm-scale component re-projecting tens of thousands of flows per
// recompute grows its heap backing array far past the live set; the
// sweep keeps only entries whose seq is current, then re-heapifies.
// Pop order is unchanged — (t, flow) totally orders live entries and
// stale ones are discarded on pop either way — and the trigger depends
// only on heap length and active count, both pure functions of the
// event history, so compaction never perturbs determinism.
func (e *engine) maybeCompact(c *compState) {
	if len(c.heap) < 1024 || len(c.heap) < 4*(c.activeCount+1) {
		return
	}
	w := 0
	for _, h := range c.heap {
		if e.seq[h.flow] == h.seq && !e.done[h.flow] {
			c.heap[w] = h
			w++
		}
	}
	c.heap = c.heap[:w]
	c.heapInit()
}

func (c *compState) heapPush(h heapEntry) {
	c.heap = append(c.heap, h)
	i := len(c.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !heapLess(c.heap[i], c.heap[p]) {
			break
		}
		c.heap[i], c.heap[p] = c.heap[p], c.heap[i]
		i = p
	}
}

func (c *compState) heapPop() heapEntry {
	h := c.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	c.heap = h
	c.siftDown(0)
	return top
}

func (c *compState) siftDown(i int) {
	h := c.heap
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && heapLess(h[l], h[s]) {
			s = l
		}
		if r < n && heapLess(h[r], h[s]) {
			s = r
		}
		if s == i {
			break
		}
		h[i], h[s] = h[s], h[i]
		i = s
	}
}

// heapInit heapifies c.heap in place — used after a merge concatenates
// two parents' heaps.
func (c *compState) heapInit() {
	for i := len(c.heap)/2 - 1; i >= 0; i-- {
		c.siftDown(i)
	}
}
