// Package ipm reimplements the collection model of IPM (Integrated
// Performance Monitoring), the MPI profiling layer the paper uses to gather
// application communication characteristics with low overhead.
//
// Like IPM, the collector keeps a bounded hash of statistics keyed by the
// unique argument signature of each communication call — (call, buffer
// size, partner rank) — plus the enclosing code region, so initialization
// traffic can be separated from steady-state communication (the paper uses
// this to discard SuperLU's input-matrix distribution). When the hash
// reaches its capacity the collector coarsens keys by rounding buffer sizes
// to powers of two, and as a last resort folds entries into a per-call
// catch-all bucket, preserving IPM's fixed memory footprint guarantee.
//
// A CollectorSet plugs into the mpi runtime as a tracer factory; after the
// world finishes, Profile() assembles the per-rank hashes into a Profile
// that the topology and analysis packages consume.
package ipm

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"
	"sync"

	"github.com/hfast-sim/hfast/internal/mpi"
	"github.com/hfast-sim/hfast/internal/par"
)

// DefaultHashCap is the default number of distinct signatures retained per
// rank before key coarsening begins, mirroring IPM's fixed-size table.
const DefaultHashCap = 8192

// Key is the unique signature of a communication call, IPM's hash key.
type Key struct {
	// Call is the profiled entry point.
	Call mpi.Call
	// Bytes is the per-call buffer size in bytes.
	Bytes int
	// Peer is the partner world rank, or mpi.NoPeer.
	Peer int
	// Region is the enclosing code region name ("" outside any region).
	Region string
}

// Stat accumulates the observations for one Key.
type Stat struct {
	// Count is the number of calls with this signature.
	Count int64
	// TotalBytes is Count × buffer size (kept explicitly because key
	// coarsening can merge entries of different sizes).
	TotalBytes int64
	// MaxBytes is the largest single buffer folded into this entry.
	MaxBytes int
	// Time is the modeled seconds spent in calls with this signature
	// (zero when the runtime has no cost model). As in IPM, blocking time
	// is charged to the call that observed it.
	Time float64
}

// Collector gathers events for a single rank. It implements mpi.Tracer.
type Collector struct {
	rank  int
	lastT float64 // previous event's virtual clock, for time attribution
	hash  table
}

// NewCollector creates a collector for one rank with the given hash
// capacity (DefaultHashCap if cap <= 0).
func NewCollector(rank, capacity int) *Collector {
	return &Collector{rank: rank, hash: newTable(capacity)}
}

// Event records one communication event; it is called by the mpi runtime
// from the rank's goroutine.
func (c *Collector) Event(e mpi.Event) {
	if e.Call == mpi.CallRegionBegin || e.Call == mpi.CallRegionEnd {
		c.lastT = e.T
		return
	}
	var dt float64
	if e.T > c.lastT {
		dt = e.T - c.lastT
		c.lastT = e.T
	}
	c.hash.fold(&e, dt)
}

// slabKey is Key as the table stores it: 16 bytes with no pointer, so
// neither the index map nor the slab is scanned by the garbage collector.
// sig packs the call with the interned region id (region·NumCalls +
// call); a peer is a world rank, which always fits in 32 bits.
type slabKey struct {
	bytes int
	peer  int32
	sig   int32
}

// slot is one hash entry in the table's slab.
type slot struct {
	key  slabKey
	stat Stat
}

// table is the bounded hash both collectors fold into. Stats live in one
// slab, indexed by a pointer-free key; the previous exact-signature hit
// is memoized as a slab index, because a tight stencil loop re-hits the
// same (call, bytes, peer, region) signature.
type table struct {
	cap     int
	index   map[slabKey]int32
	slots   []slot
	spilled int64 // events that required catch-all folding
	memoKey slabKey
	memo    int32 // slot of memoKey, -1 when unset

	regions    []string // region id -> name; id 0 is ""
	regionIDs  map[string]int32
	lastRegion string
	lastID     int32
}

func newTable(capacity int) table {
	if capacity <= 0 {
		capacity = DefaultHashCap
	}
	return table{
		cap:       capacity,
		index:     make(map[slabKey]int32),
		memo:      -1,
		regions:   []string{""},
		regionIDs: map[string]int32{"": 0},
	}
}

// sig interns the event's region and packs it with the call.
func (t *table) sig(e *mpi.Event) int32 {
	if uint(e.Call) >= uint(mpi.NumCalls) {
		panic(fmt.Sprintf("ipm: event with unknown call %d", int(e.Call)))
	}
	if e.Region != t.lastRegion {
		t.intern(e.Region)
	}
	return t.lastID*int32(mpi.NumCalls) + int32(e.Call)
}

// intern makes region the table's current region, giving it an id on
// first sight.
func (t *table) intern(region string) {
	id, ok := t.regionIDs[region]
	if !ok {
		id = int32(len(t.regions))
		t.regions = append(t.regions, region)
		t.regionIDs[region] = id
	}
	t.lastRegion, t.lastID = region, id
}

// fold records one event of modeled duration dt with IPM's overflow
// rules: the exact signature first; at capacity, the signature with the
// size rounded to its power-of-two bucket; as a last resort a per-call
// catch-all with no peer, which adds at most one entry per (call,
// region) pair.
func (t *table) fold(e *mpi.Event, dt float64) {
	key := slabKey{bytes: e.Bytes, peer: int32(e.Peer), sig: t.sig(e)}
	if t.memo >= 0 && key == t.memoKey {
		t.slots[t.memo].stat.add(e.Bytes, dt)
		return
	}
	if i, ok := t.index[key]; ok {
		t.memoKey, t.memo = key, i
		t.slots[i].stat.add(e.Bytes, dt)
		return
	}
	exact := true
	if len(t.slots) >= t.cap {
		// Folded entries never enter the memo — their stat updates
		// differ (MaxBytes tracking) from the exact-signature path.
		exact = false
		key.bytes = pow2Bucket(e.Bytes)
		if i, ok := t.index[key]; ok {
			t.slots[i].stat.addFolded(e.Bytes, dt)
			return
		}
		key = slabKey{bytes: -1, peer: mpi.NoPeer, sig: key.sig}
		t.spilled++
		if i, ok := t.index[key]; ok {
			t.slots[i].stat.addFolded(e.Bytes, dt)
			return
		}
	}
	i := int32(len(t.slots))
	t.slots = append(t.slots, slot{key: key, stat: Stat{Count: 1, TotalBytes: int64(e.Bytes), MaxBytes: e.Bytes, Time: dt}})
	t.index[key] = i
	if exact {
		t.memoKey, t.memo = key, i
	}
}

// add counts one more call of an entry's exact signature.
func (st *Stat) add(n int, dt float64) {
	st.Count++
	st.TotalBytes += int64(n)
	st.Time += dt
}

// addFolded counts a call whose size was folded into a coarser entry.
func (st *Stat) addFolded(n int, dt float64) {
	st.add(n, dt)
	if n > st.MaxBytes {
		st.MaxBytes = n
	}
}

// entries returns the table's contents as a key-sorted Entry slice of
// exactly the table's size. It sorts slot indices on integer keys — the
// region id replaced by the name's sorted position — rather than moving
// Entries and comparing region strings.
func (t *table) entries() []Entry {
	names := make([]int32, len(t.regions))
	for i := range names {
		names[i] = int32(i)
	}
	slices.SortFunc(names, func(a, b int32) int { return strings.Compare(t.regions[a], t.regions[b]) })
	pos := make([]int32, len(t.regions)) // region id -> sorted position
	for p, id := range names {
		pos[id] = int32(p)
	}
	const nc = int32(mpi.NumCalls)
	order := make([]int32, len(t.slots))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		ka, kb := &t.slots[a].key, &t.slots[b].key
		if c := cmp.Compare(ka.sig%nc, kb.sig%nc); c != 0 {
			return c
		}
		if c := cmp.Compare(pos[ka.sig/nc], pos[kb.sig/nc]); c != 0 {
			return c
		}
		if c := cmp.Compare(ka.peer, kb.peer); c != 0 {
			return c
		}
		return cmp.Compare(ka.bytes, kb.bytes)
	})
	es := make([]Entry, len(order))
	for k, i := range order {
		s := &t.slots[i]
		es[k] = Entry{
			Key:  Key{Call: mpi.Call(s.key.sig % nc), Bytes: s.key.bytes, Peer: int(s.key.peer), Region: t.regions[s.key.sig/nc]},
			Stat: s.stat,
		}
	}
	return es
}

// reset empties the table for reuse, keeping the interned region names.
func (t *table) reset() {
	clear(t.index)
	t.slots = t.slots[:0]
	t.spilled = 0
	t.memo = -1
}

// pow2Bucket rounds n up to the nearest power of two (0 stays 0). Values
// whose next power of two does not fit in an int saturate to MaxInt, so
// pathological sizes cannot wedge the coarsening path.
func pow2Bucket(n int) int {
	if n <= 0 {
		return 0
	}
	s := bits.Len(uint(n - 1))
	if s >= bits.UintSize-1 {
		return math.MaxInt
	}
	return 1 << s
}

// CollectorSet builds one Collector per rank and assembles their output.
type CollectorSet struct {
	mu         sync.Mutex
	capacity   int
	collectors map[int]*Collector
}

// NewCollectorSet creates a set with the given per-rank hash capacity
// (DefaultHashCap if capacity <= 0).
func NewCollectorSet(capacity int) *CollectorSet {
	return &CollectorSet{
		capacity:   capacity,
		collectors: make(map[int]*Collector),
	}
}

// Factory is the mpi.TracerFactory to install on the world.
func (s *CollectorSet) Factory(rank int) mpi.Tracer {
	c := NewCollector(rank, s.capacity)
	s.mu.Lock()
	s.collectors[rank] = c
	s.mu.Unlock()
	return c
}

// Profile assembles the collected per-rank hashes, ranks in parallel.
// Call it only after World.Run has returned.
func (s *CollectorSet) Profile(app string, procs int, params map[string]int) *Profile {
	s.mu.Lock()
	defer s.mu.Unlock()
	ranks := make([]int, 0, len(s.collectors))
	for r := range s.collectors {
		ranks = append(ranks, r)
	}
	slices.Sort(ranks)
	p := &Profile{
		App:    app,
		Procs:  procs,
		Params: params,
		Ranks:  make([]RankProfile, len(ranks)),
	}
	par.Ranges(len(ranks), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			c := s.collectors[ranks[i]]
			es := c.hash.entries()
			if len(es) == 0 {
				es = nil // an idle rank's Entries encode as null
			}
			p.Ranks[i] = RankProfile{Rank: ranks[i], Entries: es, Spilled: c.hash.spilled}
		}
	})
	return p
}

// compareKeys orders keys by (call, region, peer, bytes), the order
// RankProfile.Entries is kept in.
func compareKeys(a, b Key) int {
	if c := cmp.Compare(a.Call, b.Call); c != 0 {
		return c
	}
	if c := strings.Compare(a.Region, b.Region); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Peer, b.Peer); c != 0 {
		return c
	}
	return cmp.Compare(a.Bytes, b.Bytes)
}

// sortEntries sorts entries by key.
func sortEntries(es []Entry) {
	slices.SortFunc(es, func(a, b Entry) int { return compareKeys(a.Key, b.Key) })
}

// String renders the key in an IPM-report style.
func (k Key) String() string {
	return fmt.Sprintf("%s[%db->%d @%q]", k.Call, k.Bytes, k.Peer, k.Region)
}
