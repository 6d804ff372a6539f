package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"github.com/hfast-sim/hfast/internal/apps"
	"github.com/hfast-sim/hfast/internal/fattree"
	"github.com/hfast-sim/hfast/internal/hfast"
	"github.com/hfast-sim/hfast/internal/ipm"
	"github.com/hfast-sim/hfast/internal/meshtorus"
	"github.com/hfast-sim/hfast/internal/netsim"
	"github.com/hfast-sim/hfast/internal/pipeline"
	"github.com/hfast-sim/hfast/internal/topology"
	"github.com/hfast-sim/hfast/internal/treenet"
)

// fabric-replay: in process, no HTTP. Each round replays three profiled
// skeletons through pipeline.Netsim on the three fabrics (a fresh
// pipeline per round), then the bounded-degree halo through
// netsim.Simulate. gtc's fan-in and the halo are the two regimes.

var (
	fabricApps = []string{"cactus", "lbmhd", "gtc"}
	fabrics    = []string{pipeline.FabricHFAST, pipeline.FabricFCN, pipeline.FabricMesh}
)

// halo is the 3-D nearest-neighbour exchange on a near-cube torus:
// every rank sends one flow to each lattice neighbour, its size jittered
// per pair from the seed so completions spread over many events.
type halo struct {
	procs int
	graph *topology.Graph
	flows []netsim.Flow
}

func makeHalo(procs int, seed int64) (*halo, error) {
	m, err := meshtorus.New(meshtorus.NearCube(procs, 3), true)
	if err != nil {
		return nil, err
	}
	h := &halo{procs: procs, graph: topology.MustGraph(procs)}
	for r := 0; r < procs; r++ {
		for _, nb := range m.Neighbors(r) {
			jitter := mix(uint64(seed), uint64(r), uint64(nb)) % 977
			bytes := int64(64<<10 + jitter*64)
			if err := h.graph.AddTraffic(r, nb, 1, bytes, int(bytes)); err != nil {
				return nil, err
			}
			h.flows = append(h.flows, netsim.Flow{Src: r, Dst: nb, Bytes: bytes})
		}
	}
	return h, nil
}

// mix is SplitMix64 folded over its keys.
func mix(keys ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, k := range keys {
		h ^= k
		h += 0x9e3779b97f4a7c15
		h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
		h = (h ^ (h >> 27)) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

// fabricNet is a built fabric: its link network and router.
type fabricNet struct {
	net    *netsim.Network
	router netsim.Router
}

// buildFabric builds one fabric model for P ranks; hfast provisions g.
func buildFabric(tr *tracer, req, fabric string, procs int, g *topology.Graph) (fabricNet, error) {
	lp := netsim.DefaultLinkParams()
	var fn fabricNet
	var err error
	switch fabric {
	case pipeline.FabricHFAST:
		var a *hfast.Assignment
		tr.do("hfast.assign", -1, req, func() { a, err = hfast.Assign(g, 0, hfast.DefaultBlockSize) })
		if err != nil {
			return fn, err
		}
		tr.do("netsim.build", -1, req, func() {
			n := netsim.NewHFASTNet(a, lp)
			fn = fabricNet{n.Network(), n}
		})
	case pipeline.FabricFCN:
		tr.do("netsim.build", -1, req, func() {
			var tree fattree.Tree
			if tree, err = fattree.Design(procs, hfast.DefaultBlockSize); err == nil {
				n := netsim.NewFCNNet(procs, tree, lp)
				fn = fabricNet{n.Network(), n}
			}
		})
	case pipeline.FabricMesh:
		tr.do("netsim.build", -1, req, func() {
			var m meshtorus.Mesh
			if m, err = meshtorus.New(meshtorus.NearCube(procs, 3), true); err == nil {
				n := netsim.NewMeshNet(m, lp)
				fn = fabricNet{n.Network(), n}
			}
		})
	default:
		err = fmt.Errorf("unknown fabric %q", fabric)
	}
	return fn, err
}

// fabricInputs are the profiles (default seed: replay cost follows the
// skeleton's traffic, so only the halo's jitter comes from the seed)
// and the seeded halo with its prebuilt fabrics.
type fabricInputs struct {
	profs []*ipm.Profile
	halo  *halo
	nets  map[string]fabricNet // the halo's fabrics
}

func makeFabricInputs(r *runner, tr *tracer) (*fabricInputs, error) {
	in := &fabricInputs{nets: map[string]fabricNet{}}
	for _, app := range fabricApps {
		p, err := apps.ProfileRunContext(context.Background(), app, apps.Config{Procs: r.sz.FabricProcs})
		if err != nil {
			return nil, err
		}
		in.profs = append(in.profs, p)
	}
	h, err := makeHalo(r.sz.HaloProcs, r.seed)
	if err != nil {
		return nil, err
	}
	in.halo = h
	for _, f := range fabrics {
		if in.nets[f], err = buildFabric(tr, "halo "+f, f, h.procs, h.graph); err != nil {
			return nil, fmt.Errorf("building the halo's %s fabric: %w", f, err)
		}
	}
	return in, nil
}

// replayApps replays every profile on every fabric through a fresh
// pipeline, adding each replay's seconds to times when it is not nil,
// and returns the pipeline and the makespans by "app/P/fabric".
func replayApps(in *fabricInputs, times map[string][]float64) (*pipeline.Pipeline, map[string]float64, error) {
	pl := pipeline.New(pipeline.Options{})
	out := map[string]float64{}
	for _, p := range in.profs {
		t0 := time.Now()
		ref, err := pipeline.Supplied(p)
		if err != nil {
			return nil, nil, err
		}
		record(times, fmt.Sprintf("%s/%d/key", p.App, p.Procs), time.Since(t0))
		for _, f := range fabrics {
			key := fmt.Sprintf("%s/%d/%s", p.App, p.Procs, f)
			t0 := time.Now()
			res, _, err := pl.Netsim(context.Background(), ref, f)
			if err != nil {
				return nil, nil, err
			}
			record(times, key, time.Since(t0))
			out[key] = res.Makespan
		}
	}
	return pl, out, nil
}

// replayHalo simulates the halo on the three prebuilt fabrics, timing
// each into times like replayApps.
func replayHalo(tr *tracer, in *fabricInputs, out map[string]float64, times map[string][]float64) (unroutable int, err error) {
	for _, f := range fabrics {
		n := in.nets[f]
		key := fmt.Sprintf("halo/%d/%s", in.halo.procs, f)
		var res netsim.Result
		d := tr.do("netsim.halo_"+f, -1, "halo "+f, func() { res, err = netsim.Simulate(n.net, n.router, in.halo.flows) })
		if err != nil {
			return 0, fmt.Errorf("halo on %s: %w", f, err)
		}
		record(times, key, d)
		out[key] = res.Makespan
		unroutable += res.Unroutable
	}
	return unroutable, nil
}

func record(times map[string][]float64, key string, d time.Duration) {
	if times != nil {
		times[key] = append(times[key], d.Seconds())
	}
}

// sumMedians adds each replay's median time over the rounds: a round's
// time, robust to a noisy round.
func sumMedians(times map[string][]float64) float64 {
	sum := 0.0
	for _, ts := range times {
		sum += median(ts)
	}
	return sum
}

// sameMakespans reports whether two replays agree bitwise on every key.
func sameMakespans(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		w, ok := b[k]
		if !ok || math.Float64bits(v) != math.Float64bits(w) {
			return false
		}
	}
	return true
}

func fabricReplay(r *runner) error {
	start := time.Now()
	in, err := makeFabricInputs(r, nil)
	if err != nil {
		return err
	}
	setup := time.Since(start)
	appTimes, haloTimes := map[string][]float64{}, map[string][]float64{}
	var heap []float64
	var first map[string]float64
	deadline := time.Now().Add(r.seconds)
	for round := 0; round < r.sz.MinRounds || time.Now().Before(deadline); round++ {
		// Start every round from a collected heap, so one round's
		// garbage does not bill the next.
		runtime.GC()
		pl, makespans, err := replayApps(in, appTimes)
		if err != nil {
			return err
		}
		if _, err := replayHalo(nil, in, makespans, haloTimes); err != nil {
			return err
		}
		heap = append(heap, liveHeapMB())
		runtime.KeepAlive(pl)
		r.t.Attempted += len(makespans)
		if first == nil {
			first = makespans
		} else {
			r.t.check(sameMakespans(first, makespans), "round %d: makespans differ from round 0", round)
		}
	}
	apps, halo := sumMedians(appTimes), sumMedians(haloTimes)
	r.metric("replay_apps_s", apps, "s", len(heap))
	r.metric("replay_halo_s", halo, "s", len(heap))
	r.gate(1e3*geomean([]float64{apps, halo}), median(heap), setup.Seconds())
	return nil
}

// fabricLayers replays the same inputs through netsim directly, timing
// flow extraction, fabric builds and each fabric's simulation, and
// checks the makespans bitwise against an untraced pipeline replay.
func fabricLayers(r *runner, tr *tracer) error {
	in, err := makeFabricInputs(r, tr)
	if err != nil {
		return err
	}
	_, want, err := replayApps(in, nil)
	if err != nil {
		return err
	}
	got := map[string]float64{}
	flows, unroutable := 0, 0
	sim := new(netsim.Result)
	for _, p := range in.profs {
		req := fmt.Sprintf("%s/%d", p.App, p.Procs)
		g, err := topology.FromProfile(p, ipm.SteadyState)
		if err != nil {
			return err
		}
		var fl []netsim.Flow
		tr.do("pipeline.flows", -1, req, func() { fl = pipeline.FlowsFor(p, g) })
		for _, f := range fabrics {
			n, err := buildFabric(tr, req, f, p.Procs, g)
			if err != nil {
				return err
			}
			tr.do("netsim.apps_"+f, -1, req, func() { err = netsim.SimulateInto(sim, n.net, n.router, fl) })
			if err != nil {
				return fmt.Errorf("%s on %s: %w", req, f, err)
			}
			got[fmt.Sprintf("%s/%s", req, f)] = sim.Makespan
			flows += len(fl)
			unroutable += sim.Unroutable
			if f != pipeline.FabricHFAST || sim.Unroutable == 0 {
				continue
			}
			// Sub-cutoff flows ride the collective tree, as in pipeline.Netsim.
			var small []netsim.Flow
			for i, fr := range sim.Flows {
				if !fr.Routed {
					small = append(small, fl[i])
				}
			}
			var tn *netsim.TreeNet
			tr.do("netsim.build", -1, req, func() { tn, err = netsim.NewTreeNet(p.Procs, treenet.DefaultParams()) })
			if err != nil {
				return err
			}
			tr.do("netsim.apps_"+f, -1, req+" tree", func() { err = netsim.SimulateInto(new(netsim.Result), tn.Network(), tn, small) })
			if err != nil {
				return err
			}
		}
	}
	r.t.Attempted += len(want)
	r.t.check(sameMakespans(want, got), "traced netsim makespans differ from the untraced pipeline replay")
	haloOut := map[string]float64{}
	u, err := replayHalo(tr, in, haloOut, nil)
	if err != nil {
		return err
	}
	flows += len(fabrics) * len(in.halo.flows)
	unroutable += u

	self, _ := tr.selfTimes()
	for _, f := range fabrics {
		r.layer("netsim.apps_"+f+"_ms", 1e3*self["netsim.apps_"+f], "ms", "replay_apps_s")
	}
	for _, f := range fabrics {
		r.layer("netsim.halo_"+f+"_ms", 1e3*self["netsim.halo_"+f], "ms", "replay_halo_s")
	}
	r.layer("netsim.build_ms", 1e3*self["netsim.build"], "ms", "replay_apps_s, replay_halo_s")
	r.layer("pipeline.flows_ms", 1e3*self["pipeline.flows"], "ms", "replay_apps_s")
	r.layer("netsim.flows", float64(flows), "count", "")
	r.layer("netsim.unroutable", float64(unroutable), "count", "")
	return nil
}
