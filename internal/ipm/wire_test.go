package ipm

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/hfast-sim/hfast/internal/mpi"
)

// TestGoldenWireFormat pins the service wire format: the committed golden
// profile must decode and re-encode byte-identically. Any change to field
// names, ordering, indentation, or number formatting fails here instead of
// silently breaking hfastd clients and stored profiles. The golden is a
// schema v1 profile — v2 added the Delta envelope without touching the
// Profile field set, so v1 profiles must keep decoding unchanged.
func TestGoldenWireFormat(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "profile_v1.golden.json"))
	if err != nil {
		t.Fatalf("reading golden: %v", err)
	}
	p, err := ReadJSON(bytes.NewReader(golden))
	if err != nil {
		t.Fatalf("decoding golden: %v", err)
	}
	if p.Version != 1 {
		t.Fatalf("golden version = %d, want 1 (pinned old-schema compatibility)", p.Version)
	}
	if p.App != "cactus" || p.Procs != 8 {
		t.Fatalf("golden header = %s/%d, want cactus/8", p.App, p.Procs)
	}
	var out bytes.Buffer
	if err := p.WriteJSON(&out); err != nil {
		t.Fatalf("re-encoding golden: %v", err)
	}
	if !bytes.Equal(out.Bytes(), golden) {
		t.Fatalf("wire format drifted: re-encoded golden differs (%d vs %d bytes)", out.Len(), len(golden))
	}
}

// TestWireFormatRoundTripStable checks encode → decode → re-encode is
// byte-identical for a profile built in-process (not just the golden).
func TestWireFormatRoundTripStable(t *testing.T) {
	p := &Profile{
		App:    "synthetic",
		Procs:  3,
		Params: map[string]int{"steps": 4, "scale": 7},
		Ranks: []RankProfile{
			{Rank: 0, Entries: []Entry{
				{Key: Key{Call: mpi.CallSend, Bytes: 1024, Peer: 1, Region: "step0"},
					Stat: Stat{Count: 2, TotalBytes: 2048, MaxBytes: 1024, Time: 0.25}},
			}},
			{Rank: 1, Spilled: 3},
			{Rank: 2},
		},
	}
	var first bytes.Buffer
	if err := p.WriteJSON(&first); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := got.WriteJSON(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("round trip not byte-identical:\nfirst:  %s\nsecond: %s", first.String(), second.String())
	}
}

// TestReadJSONRejectsNewerVersion ensures consumers fail loudly on
// profiles from a future schema rather than misreading them.
func TestReadJSONRejectsNewerVersion(t *testing.T) {
	in := []byte(`{"Version": 99, "App": "x", "Procs": 1}`)
	if _, err := ReadJSON(bytes.NewReader(in)); err == nil {
		t.Fatal("expected error for wire format v99")
	}
}

// TestIdleRankWireForm pins how a rank without traffic encodes: a batch
// profile writes its Entries as null, a streamed window as [].
func TestIdleRankWireForm(t *testing.T) {
	set := NewCollectorSet(0)
	var deltas []*Delta
	stream := NewStreamSet("idle", 2, nil, 0, func(d *Delta) { deltas = append(deltas, d) })
	for _, f := range []mpi.TracerFactory{set.Factory, stream.Factory} {
		w := mpi.NewWorld(2, mpi.WithTimeout(30*time.Second), mpi.WithTracerFactory(f))
		if err := w.Run(func(c *mpi.Comm) {
			c.RegionBegin("r")
			c.RegionEnd()
		}); err != nil {
			t.Fatal(err)
		}
	}
	stream.Finish()
	var batch, window bytes.Buffer
	if err := set.Profile("idle", 2, nil).WriteJSON(&batch); err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 1 {
		t.Fatalf("%d deltas, want 1", len(deltas))
	}
	if err := deltas[0].WriteJSON(&window); err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(batch.Bytes(), []byte(`"Entries": null`)); n != 2 {
		t.Errorf("batch profile has %d null Entries, want 2:\n%s", n, batch.Bytes())
	}
	if n := bytes.Count(window.Bytes(), []byte(`"Entries": []`)); n != 2 {
		t.Errorf("streamed window has %d empty Entries, want 2:\n%s", n, window.Bytes())
	}
}
