package mpi

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"
)

// TestWaitanyLowestIndex checks Waitany's choice: among the requests
// complete when the rank looks, the lowest index wins, whatever order
// the messages arrived in.
func TestWaitanyLowestIndex(t *testing.T) {
	run(t, 4, func(c *Comm) {
		if c.Rank() != 0 {
			c.Send(0, 1, Size(c.Rank()))
			c.Barrier()
			return
		}
		reqs := []*Request{c.Irecv(3, 1), c.Irecv(1, 1), c.Irecv(2, 1)}
		c.Barrier() // every send above was delivered before its sender entered the barrier
		for _, want := range []int{3, 1, 2} {
			i, st := c.Waitany(reqs)
			if i != 0 || st.Source != want {
				panic(fmt.Sprintf("Waitany = (%d, source %d), want (0, source %d)", i, st.Source, want))
			}
			reqs = reqs[1:]
		}
	})
	run(t, 3, func(c *Comm) {
		switch c.Rank() {
		case 0:
			reqs := []*Request{c.Irecv(1, 1), c.Irecv(2, 1)}
			if i, st := c.Waitany(reqs); i != 1 || st.Source != 2 {
				panic(fmt.Sprintf("Waitany = (%d, source %d), want (1, source 2)", i, st.Source))
			}
			c.Send(1, 2, Size(0)) // release rank 1 only now
			if st := c.Wait(reqs[0]); st.Source != 1 {
				panic(fmt.Sprintf("Wait source %d, want 1", st.Source))
			}
		case 1:
			c.Recv(0, 2)
			c.Send(0, 1, Size(8))
		case 2:
			c.Send(0, 1, Size(8))
		}
	})
}

// TestWaitanyCompleteAllocatesNothing pins the fast path: with a request
// already complete, Waitany neither subscribes nor allocates.
func TestWaitanyCompleteAllocatesNothing(t *testing.T) {
	var allocs float64
	run(t, 1, func(c *Comm) {
		reqs := make([]*Request, 64)
		for i := range reqs {
			reqs[i] = c.Irecv(0, Tag(i))
		}
		c.Send(0, 40, Size(8)) // completes reqs[40] only
		allocs = testing.AllocsPerRun(100, func() {
			if i, _ := c.Waitany(reqs); i != 40 {
				panic(fmt.Sprintf("Waitany = %d, want 40", i))
			}
		})
		for i, r := range reqs {
			if r.waiter != nil {
				panic(fmt.Sprintf("request %d left subscribed", i))
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("Waitany on a completed request allocated %v times per call", allocs)
	}
}

// TestSplitMatchesSort checks the Split rendezvous against a direct sort
// at P=1024, with many key ties and some ranks opting out (color < 0):
// every group is its color's ranks ordered by (key, parent rank), all
// members agree on one id, and distinct groups get distinct ids.
func TestSplitMatchesSort(t *testing.T) {
	const p = 1024
	color := func(r int) int { return (r*7919)%9 - 1 } // -1 on a ninth of the ranks
	key := func(r int) int { return (r * 31) % 5 }     // five keys: many ties
	want := map[int][]int{}
	for r := 0; r < p; r++ {
		if c := color(r); c >= 0 {
			want[c] = append(want[c], r)
		}
	}
	for _, g := range want {
		slices.SortStableFunc(g, func(a, b int) int { return key(a) - key(b) })
	}
	ids := make([]int, p)
	w := NewWorld(p, WithTimeout(testTimeout))
	err := w.Run(func(c *Comm) {
		me := c.Rank()
		sub := c.Split(color(me), key(me))
		if color(me) < 0 {
			if sub != nil {
				panic("negative color got a communicator")
			}
			ids[me] = -1
			return
		}
		g := want[color(me)]
		if sub.Size() != len(g) {
			panic(fmt.Sprintf("rank %d: group size %d, want %d", me, sub.Size(), len(g)))
		}
		for i, wr := range g {
			if sub.WorldRank(i) != wr {
				panic(fmt.Sprintf("rank %d: comm rank %d is world %d, want %d", me, i, sub.WorldRank(i), wr))
			}
		}
		if sub.WorldRank(sub.Rank()) != me {
			panic(fmt.Sprintf("rank %d: own comm rank %d maps to world %d", me, sub.Rank(), sub.WorldRank(sub.Rank())))
		}
		ids[me] = sub.ID()
		sub.Barrier() // the child communicator carries traffic
	})
	if err != nil {
		t.Fatal(err)
	}
	idOf := map[int]int{}
	seen := map[int]bool{}
	for r := 0; r < p; r++ {
		c := color(r)
		if c < 0 {
			continue
		}
		if id, ok := idOf[c]; ok {
			if ids[r] != id {
				t.Fatalf("color %d: rank %d has id %d, another member %d", c, r, ids[r], id)
			}
			continue
		}
		if seen[ids[r]] || ids[r] == 0 {
			t.Fatalf("color %d reuses id %d", c, ids[r])
		}
		idOf[c], seen[ids[r]] = ids[r], true
	}
}

// TestCancelUnwindsParkedRanks cancels a run whose ranks are parked in
// every kind of runtime wait — a Split some member never reaches, a
// blocking Recv, a Waitany and a Wait — and checks that RunContext
// returns ctx.Err() after every rank goroutine exited.
func TestCancelUnwindsParkedRanks(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel)
	w := NewWorld(8, WithTimeout(testTimeout))
	err := w.RunContext(ctx, func(c *Comm) {
		switch c.Rank() {
		case 0, 1, 2, 3:
			c.Split(0, c.Rank()) // ranks 4..7 never arrive
		case 4:
			c.Recv(5, 1)
		case 5:
			c.Waitany([]*Request{c.Irecv(6, 1), c.Irecv(7, 1)})
		case 6:
			c.Wait(c.Irecv(4, 1))
		case 7:
			c.Sendrecv(6, 2, Size(8), 5, 2)
		}
		panic("a parked rank returned")
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext = %v, want context.Canceled", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running after the cancel, %d before the run", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSpuriousWakeToken plants stale tokens in a rank's wake channel:
// each makes the parked rank re-check, never completes a request, and
// never makes Waitany report one that has not completed.
func TestSpuriousWakeToken(t *testing.T) {
	run(t, 3, func(c *Comm) {
		switch c.Rank() {
		case 0:
			reqs := []*Request{c.Irecv(1, 5), c.Irecv(2, 6)}
			c.wake <- struct{}{}
			i, st := c.Waitany(reqs)
			if i != 1 || st.Source != 2 || st.Tag != 6 {
				panic(fmt.Sprintf("Waitany = (%d, %+v), want index 1 from rank 2 tag 6", i, st))
			}
			if reqs[0].Done() {
				panic("stale token completed the other request")
			}
			select {
			case c.wake <- struct{}{}:
			default: // a completion racing Waitany's unsubscribe left one already
			}
			c.Send(1, 9, Size(0)) // only now may rank 1 send tag 5
			if st := c.Wait(reqs[0]); st.Source != 1 || st.Tag != 5 {
				panic(fmt.Sprintf("Wait = %+v, want rank 1 tag 5", st))
			}
		case 1:
			c.Recv(0, 9)
			c.Send(0, 5, Size(8))
		case 2:
			time.Sleep(20 * time.Millisecond) // let rank 0 park on the stale token first
			c.Send(0, 6, Size(8))
		}
	})
}
