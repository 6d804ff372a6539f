package netsim

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// bitsRow is one replay pinned by testdata/bits.golden.
type bitsRow struct {
	label  string
	router Router
	flows  []Flow
}

// bitsRows builds the 21 pinned replays: the jittered halo at P=256,
// 1024 and 4096 on hfast, fattree and mesh, and the cactus, gtc and
// lbmhd steady-state traffic at P=256 on all four fabrics.
func bitsRows(t *testing.T) []bitsRow {
	t.Helper()
	var rows []bitsRow
	for _, procs := range []int{256, 1024, 4096} {
		g, flows := haloTraffic(t, procs)
		routers := benchFabrics(t, g, procs)
		for _, name := range []string{"hfast", "fattree", "mesh"} {
			rows = append(rows, bitsRow{fmt.Sprintf("halo/%s/P%d", name, procs), routers[name], flows})
		}
	}
	for _, app := range []string{"cactus", "gtc", "lbmhd"} {
		flows := steadyFlows(t, app, 256)
		routers := parityFabrics(t, app, 256)
		for _, name := range []string{"hfast", "fattree", "mesh", "tree"} {
			rows = append(rows, bitsRow{fmt.Sprintf("%s/%s/P256", app, name), routers[name], flows})
		}
	}
	return rows
}

// bitsLine renders a result as "<label> <makespan bits> <finish hash>":
// the makespan's IEEE-754 bits in hex and the SHA-256 of every flow's
// Finish bits, little-endian, in flow order.
func bitsLine(label string, res Result) string {
	h := sha256.New()
	var b [8]byte
	for _, f := range res.Flows {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(f.Finish))
		h.Write(b[:])
	}
	return fmt.Sprintf("%s %016x %s", label, math.Float64bits(res.Makespan), hex.EncodeToString(h.Sum(nil)))
}

// TestSimulateBitsGolden pins the engine's output bit for bit. Each line
// of testdata/bits.golden is bitsLine of one bitsRows replay, recorded
// with the engine that still had region-sharded water-fills, chunked
// parallel fill/refresh/witness reductions and a batched t=0 admission
// path; the engine must keep reproducing every makespan and every flow's
// finish exactly, not just within the reference-parity tolerance.
func TestSimulateBitsGolden(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "bits.golden"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			want[strings.Fields(line)[0]] = line
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	rows := bitsRows(t)
	if len(want) != len(rows) {
		t.Errorf("golden has %d rows, want %d", len(want), len(rows))
	}
	for _, r := range rows {
		res, err := Simulate(fabricNetwork(r.router), r.router, r.flows)
		if err != nil {
			t.Fatalf("%s: %v", r.label, err)
		}
		if got := bitsLine(r.label, res); got != want[r.label] {
			t.Errorf("bits differ from the golden:\n got %s\nwant %s", got, want[r.label])
		}
	}
}
