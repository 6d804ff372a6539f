package mpi

import (
	"cmp"
	"slices"
)

// splitID names one Split call: every member of the parent communicator
// reaches it with the same parent id and per-rank split sequence number.
type splitID struct {
	parent, seq int
}

// splitRound is one Split call in world memory. Each member deposits its
// (color, key) pair under its parent rank; the last to arrive builds
// every member's placement and closes done.
type splitRound struct {
	color, key []int
	arrived    int
	placed     []splitPlace // by parent rank, valid once done is closed
	done       chan struct{}
}

// splitGroup is one child communicator, shared read-only by its members.
type splitGroup struct {
	id    int
	ranks []int       // comm rank -> world rank
	w2c   map[int]int // world rank -> comm rank
}

// splitPlace is one member's outcome: its group (nil for a negative
// color) and its rank there.
type splitPlace struct {
	group *splitGroup
	rank  int
}

// splitArrive deposits c's (color, key) for split seq and blocks until
// every member of c has arrived, unwinding the rank if the world aborts
// first.
func (w *World) splitArrive(c *Comm, seq, color, key int) splitPlace {
	id := splitID{c.id, seq}
	n := len(c.group)
	w.splitMu.Lock()
	sr := w.splits[id]
	if sr == nil {
		sr = &splitRound{color: make([]int, n), key: make([]int, n), done: make(chan struct{})}
		w.splits[id] = sr
	}
	sr.color[c.rank], sr.key[c.rank] = color, key
	sr.arrived++
	if sr.arrived == n {
		delete(w.splits, id)
		w.placeLocked(sr, c.group)
		close(sr.done)
	}
	w.splitMu.Unlock()
	select {
	case <-sr.done:
	case <-w.abort:
		select {
		case <-sr.done:
		default:
			panic(abortSignal{})
		}
	}
	return sr.placed[c.rank]
}

// placeLocked builds the child communicators of a complete round: members
// sorted by (color, key, parent rank), one group per color, ids handed
// out in ascending color order. Callers hold w.splitMu.
func (w *World) placeLocked(sr *splitRound, parent []int) {
	order := make([]int, 0, len(parent))
	for r, col := range sr.color {
		if col >= 0 {
			order = append(order, r)
		}
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(sr.color[a], sr.color[b]); c != 0 {
			return c
		}
		if c := cmp.Compare(sr.key[a], sr.key[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	sr.placed = make([]splitPlace, len(parent))
	for lo := 0; lo < len(order); {
		hi := lo + 1
		for hi < len(order) && sr.color[order[hi]] == sr.color[order[lo]] {
			hi++
		}
		g := &splitGroup{id: w.nextComm, ranks: make([]int, hi-lo), w2c: make(map[int]int, hi-lo)}
		w.nextComm++
		for i, r := range order[lo:hi] {
			g.ranks[i] = parent[r]
			g.w2c[parent[r]] = i
			sr.placed[r] = splitPlace{group: g, rank: i}
		}
		lo = hi
	}
}
