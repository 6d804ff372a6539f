package apps_test

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"testing"

	"github.com/hfast-sim/hfast/internal/apps"
	"github.com/hfast-sim/hfast/internal/ipm"
)

// goldenConfig is the run every profile golden was recorded with.
var goldenConfig = apps.Config{Procs: 64, Steps: 2, Seed: 3}

// TestProfileGoldens pins the bytes a skeleton run produces. Each
// testdata/<app>.golden.json.gz is the gzipped WriteJSON output of
// ProfileRun(app, goldenConfig), recorded with the runtime that still
// used per-wait channels, a ring-allgather Split and a pointer-keyed
// collector; the runtime and collector must keep reproducing it byte for
// byte. superlu and pmemd receive with AnySource, so which message lands
// first (and so the modeled Stat.Time) varies between runs: their
// goldens were recorded, and are compared, with Time zeroed.
func TestProfileGoldens(t *testing.T) {
	for _, in := range apps.All() {
		app := in.Name
		t.Run(app, func(t *testing.T) {
			want := readGolden(t, filepath.Join("testdata", app+".golden.json.gz"))
			p, err := apps.ProfileRun(app, goldenConfig)
			if err != nil {
				t.Fatal(err)
			}
			if app == "superlu" || app == "pmemd" {
				zeroTimes(p)
			}
			var got bytes.Buffer
			if err := p.WriteJSON(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("profile differs from its golden (%d vs %d bytes) at the first difference: %s",
					got.Len(), len(want), firstDiff(got.Bytes(), want))
			}
		})
	}
}

func readGolden(t *testing.T, path string) []byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func zeroTimes(p *ipm.Profile) {
	for i := range p.Ranks {
		for j := range p.Ranks[i].Entries {
			p.Ranks[i].Entries[j].Stat.Time = 0
		}
	}
}

// firstDiff quotes both sides around the first differing byte.
func firstDiff(got, want []byte) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(i-80, 0)
	return "got …" + string(got[lo:min(i+80, len(got))]) + "… want …" + string(want[lo:min(i+80, len(want))]) + "…"
}
