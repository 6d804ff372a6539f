package apps

import (
	"fmt"
	"testing"
)

// BenchmarkProfileRun times the full generate-and-measure loop — run a
// skeleton on the mpi runtime under the IPM collector — for every app at
// a modest size. allocs/op is the headline: nearly all of it is the
// per-message envelope/request churn plus collector map traffic.
func BenchmarkProfileRun(b *testing.B) {
	for _, in := range Registry {
		b.Run(in.Name, func(b *testing.B) {
			cfg := Config{Procs: 16, Steps: 4}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ProfileRun(in.Name, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkProfileRunCold times the skeleton runs behind a cold hfastd
// /v1/provision over the same key set the provision-cold ledger workload
// uses: the sparse codes at P=256 and P=1024, the dense codes at P=128,
// default steps and scale. It isolates the mpi runtime plus the IPM
// collector, the two layers that dominate a cold provision.
func BenchmarkProfileRunCold(b *testing.B) {
	type key struct {
		app   string
		procs int
	}
	var keys []key
	for _, p := range []int{256, 1024} {
		for _, app := range []string{"cactus", "lbmhd", "gtc", "amr"} {
			keys = append(keys, key{app, p})
		}
	}
	for _, app := range []string{"superlu", "pmemd", "paratec"} {
		keys = append(keys, key{app, 128})
	}
	for _, k := range keys {
		b.Run(fmt.Sprintf("%s/P=%d", k.app, k.procs), func(b *testing.B) {
			cfg := Config{Procs: k.procs, Seed: 1}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ProfileRun(k.app, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
