package netsim

import (
	"fmt"
	"testing"
)

// TestSimulateBatchedAdmissionParity pins same-timestamp arrival groups
// against the reference solver on every fabric: a fully synchronized
// replay (every flow at t=0, one admission group whose solve engulfs
// the whole component and so skips the witness scan) and a mixed
// scenario of same-timestamp bursts, where some bursts land on an idle
// component and some arrive mid-flight, against a frozen background
// the witness scan must reconcile.
func TestSimulateBatchedAdmissionParity(t *testing.T) {
	for _, app := range []string{"cactus", "gtc"} {
		base := steadyFlows(t, app, 64)
		sync := make([]Flow, len(base))
		burst := make([]Flow, len(base))
		for i, f := range base {
			f.Start = 0
			sync[i] = f
			f.Start = float64(f.Src%4) * 1e-3
			burst[i] = f
		}
		for name, router := range parityFabrics(t, app, 64) {
			net := fabricNetwork(router)
			for label, flows := range map[string][]Flow{"sync": sync, "burst": burst} {
				want, err := simulateReference(net, router, flows)
				if err != nil {
					t.Fatalf("%s/%s/%s: reference: %v", app, name, label, err)
				}
				got, err := Simulate(net, router, flows)
				if err != nil {
					t.Fatalf("%s/%s/%s: engine: %v", app, name, label, err)
				}
				assertParity(t, fmt.Sprintf("%s/%s/%s", app, name, label), got, want)
			}
		}
	}
}
