// Package netsim is a flow-level interconnect simulator used to compare
// application traffic on a provisioned HFAST fabric against the fat-tree
// and mesh/torus baselines. Flows share link bandwidth max-min fairly;
// rates are recomputed at every flow arrival and completion (progressive
// filling), which captures the first-order contention effects that
// distinguish the fabrics: dedicated circuits never contend, mesh links
// congest under non-isomorphic traffic, and fat-trees pay per-hop switch
// latency through their layers.
//
// Simulate is an incremental event-driven engine (engine.go): identical
// flows coalesce into weighted super-flows, projected completions sit in
// a lazily-invalidated min-heap, and each event re-solves max-min rates
// only over the connected component of links and flows it touched. All
// engine state is arena-style (structure-of-arrays flow state, one CSR
// slab of per-link active sets, a pooled engine recycled across calls —
// SimulateInto additionally reuses the caller's Result). The flows are
// partitioned into link-disjoint connected components whose timelines
// advance concurrently over par workers (scheduler.go); the partition is
// a pure function of the problem, so results are identical at any
// GOMAXPROCS. The original whole-network solver is retained as the test
// oracle simulateReference (reference_test.go) and pins the engine's
// output in parity and fuzz tests.
package netsim

import (
	"fmt"
)

// Link is one shared resource in the network.
type Link struct {
	// Name identifies the link in results ("node3.up", "mesh 4-5", ...).
	Name string
	// Bandwidth is the capacity in bytes per second.
	Bandwidth float64
}

// Network is a set of links; paths are provided per flow by a Router.
type Network struct {
	links []Link
}

// NewNetwork creates an empty network.
func NewNetwork() *Network { return &Network{} }

// AddLink registers a link and returns its id.
func (n *Network) AddLink(name string, bandwidth float64) int {
	if bandwidth <= 0 {
		panic(fmt.Sprintf("netsim: link %q needs positive bandwidth", name))
	}
	n.links = append(n.links, Link{Name: name, Bandwidth: bandwidth})
	return len(n.links) - 1
}

// Links returns the number of links.
func (n *Network) Links() int { return len(n.links) }

// Link returns link metadata.
func (n *Network) Link(id int) Link { return n.links[id] }

// Router maps a flow's endpoints to the link path it occupies and the
// fixed propagation/switching latency of that path. ok=false means the
// pair is unreachable on this fabric.
type Router interface {
	Route(src, dst int) (path []int, latency float64, ok bool)
}

// RouterFunc adapts a function to the Router interface.
type RouterFunc func(src, dst int) ([]int, float64, bool)

// Route implements Router.
func (f RouterFunc) Route(src, dst int) ([]int, float64, bool) { return f(src, dst) }

// AppendRouter is an optional Router extension for allocation-free
// routing: RouteAppend appends the (src, dst) path to buf and returns
// the extended slice, so the engine can route a whole replay into
// pooled arenas instead of paying one path slice per flow (the
// mesh-torus fabrics were the worst offenders: long dimension-ordered
// paths, one fresh slice each). On ok=false the returned slice must be
// buf trimmed back to its original length.
type AppendRouter interface {
	Router
	RouteAppend(buf []int, src, dst int) (extended []int, latency float64, ok bool)
}

// Flow is one message transfer.
type Flow struct {
	// Src and Dst are node ids.
	Src, Dst int
	// Bytes is the transfer size.
	Bytes int64
	// Start is the injection time in seconds.
	Start float64
}

// FlowResult reports one flow's outcome.
type FlowResult struct {
	// Finish is the completion time in seconds (Start + latency +
	// bandwidth-shared transfer time). Unroutable flows have Finish < 0.
	Finish float64
	// Routed reports whether the fabric carried the flow.
	Routed bool
}

// Result summarizes a simulation.
type Result struct {
	Flows []FlowResult
	// Makespan is the latest completion time of a routed flow.
	Makespan float64
	// Unroutable counts flows the fabric could not carry.
	Unroutable int
	// MaxLinkBytes is the most traffic any single link carried.
	MaxLinkBytes float64
}
