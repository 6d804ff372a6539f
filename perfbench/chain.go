package main

import (
	"context"
	"fmt"

	"github.com/hfast-sim/hfast/internal/apps"
	"github.com/hfast-sim/hfast/internal/hfast"
	"github.com/hfast-sim/hfast/internal/icn"
	"github.com/hfast-sim/hfast/internal/ipm"
	"github.com/hfast-sim/hfast/internal/meshtorus"
	"github.com/hfast-sim/hfast/internal/mpi"
	"github.com/hfast-sim/hfast/internal/server"
	"github.com/hfast-sim/hfast/internal/topology"
)

// kind is one provisioning key: an application skeleton at a world size.
type kind struct {
	App   string
	Procs int
	Dense bool
}

func (k kind) String() string { return fmt.Sprintf("%s/%d", k.App, k.Procs) }

var (
	sparseApps = []string{"cactus", "lbmhd", "gtc", "amr"}
	denseApps  = []string{"superlu", "pmemd", "paratec"}
)

// provisionKinds lists the sparse codes at every sparse size, then the
// dense codes at the dense size.
func provisionKinds(sz sizes) []kind {
	var out []kind
	for _, p := range sz.SparseProcs {
		for _, app := range sparseApps {
			out = append(out, kind{App: app, Procs: p})
		}
	}
	for _, app := range denseApps {
		out = append(out, kind{App: app, Procs: sz.DenseProcs, Dense: true})
	}
	return out
}

func compareKinds(sz sizes) []kind {
	var out []kind
	for _, k := range provisionKinds(sz) {
		if !k.Dense {
			out = append(out, k)
		}
	}
	return out
}

// chainCounts is the work one provisioning chain did: MPI calls the
// collector recorded and edges in the steady-state graph.
type chainCounts struct {
	Calls int64
	Edges int
}

// skeletonSeed maps the workload seed onto the skeleton seed sent as
// "seed": shifted by one so it never equals 0, the seed every
// /v1/compare profile uses (compare takes no seed), which would let a
// compare hit a provision's cached profile.
func skeletonSeed(seed int64) int64 { return seed + 1 }

// chainPrefix runs what both endpoints' chains share, as spans under
// root: with bare set, first the skeleton on a bare mpi world with no
// tracer (so the traced replay can split the profiling run into the
// runtime and the collector), then the profiled run, its steady-state
// graph and its assignment at the default cutoff and block size.
func chainPrefix(tr *tracer, root int, req string, app string, cfg apps.Config, bare bool) (*ipm.Profile, *topology.Graph, *hfast.Assignment, error) {
	if bare {
		if err := bareRun(tr, root, req, app, cfg); err != nil {
			return nil, nil, nil, err
		}
	}
	var prof *ipm.Profile
	var err error
	tr.do("apps.profile", root, req, func() { prof, err = apps.ProfileRunContext(context.Background(), app, cfg) })
	if err != nil {
		return nil, nil, nil, err
	}
	var g *topology.Graph
	tr.do("topology.graph", root, req, func() { g, err = topology.FromProfile(prof, ipm.SteadyState) })
	if err != nil {
		return nil, nil, nil, err
	}
	var a *hfast.Assignment
	tr.do("hfast.assign", root, req, func() { a, err = hfast.Assign(g, topology.DefaultCutoff, hfast.DefaultBlockSize) })
	if err != nil {
		return nil, nil, nil, err
	}
	return prof, g, a, nil
}

// chainProvision is the direct provisioning chain hfastd runs behind
// POST /v1/provision — apps.ProfileRunContext → topology.FromProfile →
// hfast.Assign → hfast.Wire — and returns the response it must send.
func chainProvision(tr *tracer, req string, k kind, seed int64, bare bool) (*server.ProvisionResponse, chainCounts, error) {
	root := tr.begin("chain.provision", -1, req)
	defer tr.end(root)
	prof, g, a, err := chainPrefix(tr, root, req, k.App, apps.Config{Procs: k.Procs, Seed: seed}, bare)
	if err != nil {
		return nil, chainCounts{}, err
	}
	var w *hfast.Wiring
	tr.do("hfast.wire", root, req, func() { w, err = hfast.Wire(a) })
	if err != nil {
		return nil, chainCounts{}, err
	}
	var mr hfast.Route
	tr.do("hfast.maxroute", root, req, func() { mr = a.MaxRoute() })
	u := a.Ports()
	counts := chainCounts{Calls: prof.TotalCalls(ipm.AllRegions), Edges: g.EdgeCount()}
	return &server.ProvisionResponse{
		App:           prof.App,
		Procs:         prof.Procs,
		Cutoff:        a.Cutoff,
		BlockSize:     a.BlockSize,
		TotalBlocks:   a.TotalBlocks,
		BlocksPerNode: float64(a.TotalBlocks) / float64(a.P),
		Ports: server.PortsResponse{
			Active:      u.ActivePorts,
			UsedActive:  u.UsedActivePorts,
			Passive:     u.PassivePorts,
			Utilization: u.Utilization(),
		},
		MaxRoute:    server.RouteResponse{SBHops: mr.SBHops, Crossings: mr.Crossings},
		SwitchPorts: w.Switch.Ports(),
		LitPorts:    w.Switch.LitPorts(),
		Circuits:    w.Switch.LitPorts() / 2,
	}, counts, nil
}

// bareRun runs the skeleton on an mpi world without the IPM collector.
func bareRun(tr *tracer, parent int, req, app string, cfg apps.Config) error {
	info, err := apps.Lookup(app)
	if err != nil {
		return err
	}
	w := mpi.NewWorld(cfg.Procs, mpi.WithTimeout(apps.DefaultTimeout), mpi.WithCostModel(mpi.DefaultCostModel()))
	tr.do("mpi.run", parent, req, func() {
		err = w.RunContext(context.Background(), func(c *mpi.Comm) { info.Run(c, cfg) })
	})
	return err
}

// chainCompare is the direct chain behind GET /v1/compare (seed 0, the
// default cutoff and block size): the cost comparison against the fat
// tree plus the mesh and ICN baselines.
func chainCompare(tr *tracer, req string, k kind, bare bool) (*server.CompareResponse, error) {
	root := tr.begin("chain.compare", -1, req)
	defer tr.end(root)
	prof, g, a, err := chainPrefix(tr, root, req, k.App, apps.Config{Procs: k.Procs}, bare)
	if err != nil {
		return nil, err
	}
	blockSize := a.BlockSize
	params := hfast.DefaultParams()
	params.BlockSize = blockSize
	var cmp hfast.Comparison
	tr.do("hfast.compare", root, req, func() { cmp, err = hfast.Compare(a, params) })
	if err != nil {
		return nil, err
	}
	var mesh meshtorus.Mesh
	tr.do("meshtorus.build", root, req, func() { mesh, err = meshtorus.New(meshtorus.NearCube(prof.Procs, 3), true) })
	if err != nil {
		return nil, err
	}
	resp := &server.CompareResponse{
		App:       prof.App,
		Procs:     prof.Procs,
		Cutoff:    a.Cutoff,
		BlockSize: blockSize,
		Blocks:    cmp.Blocks,
		MaxRoute:  server.RouteResponse{SBHops: cmp.MaxRoute.SBHops, Crossings: cmp.MaxRoute.Crossings},
		HFAST: server.CostResponse{
			Active: cmp.HFAST.Active, Passive: cmp.HFAST.Passive,
			Collective: cmp.HFAST.Collective, NIC: cmp.HFAST.NIC, Total: cmp.HFAST.Total(),
		},
		FatTree: server.CostResponse{
			Active: cmp.FatTree.Active, Passive: cmp.FatTree.Passive,
			Collective: cmp.FatTree.Collective, NIC: cmp.FatTree.NIC, Total: cmp.FatTree.Total(),
		},
		Ratio:               cmp.Ratio(),
		FatTreeLayers:       cmp.Tree.Layers,
		FatTreePortsPerProc: cmp.Tree.PortsPerProc(),
		Mesh:                server.MeshResponse{Dims: mesh.Dims, Cost: mesh.Cost(params.ActivePortCost)},
		ICN:                 server.ICNResponse{K: blockSize},
	}
	var n *icn.Network
	tr.do("icn.partition", root, req, func() { n, err = icn.Partition(g, a.Cutoff, blockSize) })
	if err != nil {
		resp.ICN.Error = err.Error()
		return resp, nil
	}
	var c icn.Contraction
	tr.do("icn.contract", root, req, func() { c = n.Contract(g, a.Cutoff) })
	resp.ICN = server.ICNResponse{
		K: blockSize, Fits: c.Fits,
		MaxContraction: c.Max, AvgContraction: c.Avg,
		OversubscribedEdges: c.OversubscribedEdges, WorstShare: c.WorstShare,
	}
	return resp, nil
}
