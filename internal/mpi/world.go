package mpi

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"
)

// ptpCtx returns the matching context of ordinary point-to-point traffic
// on a communicator: the comm id shifted past the sequence bits collective
// contexts use (collectives always have a nonzero sequence, so the two
// namespaces never collide).
func ptpCtx(commID int) int64 { return int64(commID) << 32 }

// isPtpCtx reports whether a context is a communicator's long-lived
// point-to-point context (zero sequence bits) rather than a one-shot
// collective context.
func isPtpCtx(ctx int64) bool { return ctx&0xffffffff == 0 }

// envelope is one in-flight message. Envelopes are pooled: the runtime
// owns them from send to match and recycles them once the receive status
// has been built.
type envelope struct {
	src    int // world rank of the sender
	tag    Tag
	ctx    int64
	size   int
	data   []byte
	sentAt float64       // sender's virtual clock at the send
	ack    chan struct{} // rendezvous: closed when the receive matches; nil for eager
}

var envPool = sync.Pool{New: func() any { return new(envelope) }}

func putEnvelope(e *envelope) {
	*e = envelope{}
	envPool.Put(e)
}

// postedRecv is a receive waiting for a matching envelope. Like
// envelopes, postedRecvs never escape the runtime and are pooled.
type postedRecv struct {
	src int // world rank or AnySource
	tag Tag // or AnyTag
	req *Request
}

var postedPool = sync.Pool{New: func() any { return new(postedRecv) }}

func putPostedRecv(p *postedRecv) {
	p.req = nil
	postedPool.Put(p)
}

// matchSrcTag applies the point-to-point matching rule within one
// context: source and tag must agree, with AnySource/AnyTag wildcards.
func matchSrcTag(src int, tag Tag, e *envelope) bool {
	if src != AnySource && src != e.src {
		return false
	}
	if tag != AnyTag && tag != e.tag {
		return false
	}
	return true
}

// ctxQueue holds the unmatched envelopes and pending receives of one
// matching context. Splitting the mailbox by context turns the old
// O(posted x unexpected) scan over all traffic into a scan over only the
// messages that could legally match — for collective-heavy workloads the
// queues are a handful of entries deep.
type ctxQueue struct {
	unexpected []*envelope
	posted     []*postedRecv
}

// mailbox holds a rank's matching state, indexed by context, plus any
// blocked probes (probes are rare enough that a flat list suffices).
type mailbox struct {
	mu      sync.Mutex
	ctxs    map[int64]*ctxQueue
	probers []*probeWaiter
	free    *ctxQueue // one retired queue kept warm for the next collective
}

// queue returns the context's queue, creating it if needed. Callers hold
// mb.mu.
func (mb *mailbox) queue(ctx int64) *ctxQueue {
	if q, ok := mb.ctxs[ctx]; ok {
		return q
	}
	q := mb.free
	if q != nil {
		mb.free = nil
	} else {
		q = new(ctxQueue)
	}
	mb.ctxs[ctx] = q
	return q
}

// retire drops a drained collective context so the index does not grow
// with every collective ever executed; the communicator's long-lived
// point-to-point context stays resident. Callers hold mb.mu.
func (mb *mailbox) retire(ctx int64, q *ctxQueue) {
	if isPtpCtx(ctx) || len(q.unexpected) != 0 || len(q.posted) != 0 {
		return
	}
	delete(mb.ctxs, ctx)
	if mb.free == nil {
		mb.free = q
	}
}

// World is a fixed-size set of ranks that can communicate. Create one with
// NewWorld, optionally attach tracers, then call Run.
type World struct {
	size    int
	boxes   []*mailbox
	factory TracerFactory
	timeout time.Duration

	cost       *CostModel
	eagerLimit int // messages above this rendezvous; 0 = everything eager

	abort     chan struct{} // closed by Abort; unwinds every blocked rank
	abortOnce sync.Once

	splitMu  sync.Mutex
	splits   map[splitID]*splitRound // Split calls some member has yet to reach
	nextComm int                     // next child communicator id
}

// Option configures a World.
type Option func(*World)

// WithTracerFactory installs a profiling tracer on every rank.
func WithTracerFactory(f TracerFactory) Option {
	return func(w *World) { w.factory = f }
}

// WithTimeout aborts Run with an error if the ranks have not all finished
// after d. It guards tests against deadlocks; zero means no limit.
func WithTimeout(d time.Duration) Option {
	return func(w *World) { w.timeout = d }
}

// NewWorld creates a world of size ranks.
func NewWorld(size int, opts ...Option) *World {
	if size <= 0 {
		panic(fmt.Sprintf("mpi: world size must be positive, got %d", size))
	}
	w := &World{
		size:     size,
		boxes:    make([]*mailbox, size),
		abort:    make(chan struct{}),
		splits:   make(map[splitID]*splitRound),
		nextComm: 1, // id 0 is the world communicator
	}
	for i := range w.boxes {
		w.boxes[i] = &mailbox{ctxs: make(map[int64]*ctxQueue)}
	}
	for _, opt := range opts {
		opt(w)
	}
	return w
}

// Size returns the number of ranks in the world.
func (w *World) Size() int { return w.size }

// ErrTimeout is returned by Run when WithTimeout expires, which almost
// always means the rank program deadlocked.
var ErrTimeout = errors.New("mpi: world timed out (deadlock?)")

// abortSignal is the panic value a blocked rank unwinds with after Abort;
// the rank launcher recovers it silently (the world-level error carries
// the cause).
type abortSignal struct{}

// Abort unblocks every rank waiting inside the runtime; each unwinds its
// goroutine and Run returns once all ranks have exited. Safe to call
// multiple times and from any goroutine.
func (w *World) Abort() {
	w.abortOnce.Do(func() { close(w.abort) })
}

// rankError carries a rank panic out of Run.
type rankError struct {
	rank  int
	value any
	stack []byte
}

func (e *rankError) Error() string {
	return fmt.Sprintf("mpi: rank %d panicked: %v\n%s", e.rank, e.value, e.stack)
}

// Run executes fn once per rank, each on its own goroutine, passing the
// world communicator handle for that rank. It returns after every rank
// finishes. Panics inside ranks are recovered and joined into the returned
// error; remaining ranks may then block forever, so Run should normally be
// combined with WithTimeout in tests.
func (w *World) Run(fn func(*Comm)) error {
	return w.RunContext(context.Background(), fn)
}

// RunContext is Run with cancellation: when ctx is done before the ranks
// finish, the world aborts — every rank blocked inside the runtime
// unwinds, RunContext waits for all rank goroutines to exit, and returns
// ctx.Err(). The same abort path serves WithTimeout, so a timed-out world
// no longer leaks its rank goroutines.
func (w *World) RunContext(ctx context.Context, fn func(*Comm)) error {
	var (
		wg    sync.WaitGroup
		errMu sync.Mutex
		errs  []error
	)
	group := make([]int, w.size)
	for i := range group {
		group[i] = i
	}
	for r := 0; r < w.size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					if _, ok := v.(abortSignal); ok {
						return // deliberate unwind; the cause is reported by RunContext
					}
					errMu.Lock()
					errs = append(errs, &rankError{rank: rank, value: v, stack: debug.Stack()})
					errMu.Unlock()
					// Peers may be blocked on traffic this rank will never
					// send; unwind them so Run reports the real failure
					// instead of a timeout.
					w.Abort()
				}
			}()
			c := &Comm{
				world:  w,
				id:     0,
				group:  group,
				rank:   rank,
				clockp: new(float64),
				wake:   make(chan struct{}, 1),
			}
			if w.factory != nil {
				c.tracer = w.factory(rank)
			}
			fn(c)
		}(r)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	var timeoutC <-chan time.Time
	if w.timeout > 0 {
		t := time.NewTimer(w.timeout)
		defer t.Stop()
		timeoutC = t.C
	}
	select {
	case <-done:
	case <-ctx.Done():
		w.Abort()
		<-done
		return ctx.Err()
	case <-timeoutC:
		w.Abort()
		<-done
		return ErrTimeout
	}
	return errors.Join(errs...)
}

// deliver routes an envelope to the destination world rank, completing a
// posted receive when one matches, otherwise queueing it. Matched
// envelopes and receive slots return to their pools here.
func (w *World) deliver(dst int, env *envelope) {
	mb := w.boxes[dst]
	mb.mu.Lock()
	q := mb.queue(env.ctx)
	for i, p := range q.posted {
		if matchSrcTag(p.src, p.tag, env) {
			q.posted = append(q.posted[:i], q.posted[i+1:]...)
			mb.retire(env.ctx, q)
			mb.mu.Unlock()
			if env.ack != nil {
				close(env.ack)
			}
			req := p.req
			st := w.statusOf(env)
			putPostedRecv(p)
			putEnvelope(env)
			req.complete(st)
			return
		}
	}
	q.unexpected = append(q.unexpected, env)
	mb.notifyProbers(env)
	mb.mu.Unlock()
}

// post registers a receive for world rank dst, first scanning the
// context's unexpected queue in arrival order to preserve non-overtaking
// matching. An immediate match completes req without queueing anything.
func (w *World) post(dst, src int, tag Tag, ctx int64, req *Request) {
	mb := w.boxes[dst]
	mb.mu.Lock()
	q := mb.queue(ctx)
	for i, env := range q.unexpected {
		if matchSrcTag(src, tag, env) {
			q.unexpected = append(q.unexpected[:i], q.unexpected[i+1:]...)
			mb.retire(ctx, q)
			mb.mu.Unlock()
			if env.ack != nil {
				close(env.ack)
			}
			st := w.statusOf(env)
			putEnvelope(env)
			req.complete(st)
			return
		}
	}
	p := postedPool.Get().(*postedRecv)
	p.src, p.tag, p.req = src, tag, req
	q.posted = append(q.posted, p)
	mb.mu.Unlock()
}

// statusOf builds the receive status of an envelope, stamping the
// modeled arrival time when a cost model is installed.
func (w *World) statusOf(env *envelope) Status {
	st := Status{Source: env.src, Tag: env.tag, N: env.size, Data: env.data}
	if w.cost != nil {
		st.VTime = w.cost.ptpArrival(env.sentAt, env.size)
	}
	return st
}

// Request represents an outstanding nonblocking operation. Its zero value
// is not useful; requests are created by Isend and Irecv.
type Request struct {
	mu     sync.Mutex
	done   bool
	waiter chan struct{} // wake channel of the rank blocked on this request, nil if none
	status Status
	isRecv bool
	comm   *Comm
	peer   int // world rank for sends, posted source for recvs
	nbytes int
}

func newRequest(c *Comm, isRecv bool, peer, nbytes int) *Request {
	return &Request{
		isRecv: isRecv,
		comm:   c,
		peer:   peer,
		nbytes: nbytes,
	}
}

// reqPool recycles runtime-internal requests — the ones backing Recv,
// Sendrecv, and collective traffic, which never escape to the caller.
// User-facing requests from Isend/Irecv stay heap-allocated because the
// caller may hold the handle arbitrarily long after completion.
var reqPool = sync.Pool{New: func() any { return new(Request) }}

func getRequest(c *Comm, isRecv bool, peer, nbytes int) *Request {
	r := reqPool.Get().(*Request)
	r.done = false
	r.waiter = nil
	r.status = Status{}
	r.isRecv = isRecv
	r.comm = c
	r.peer = peer
	r.nbytes = nbytes
	return r
}

func putRequest(r *Request) {
	r.comm = nil
	r.status = Status{}
	reqPool.Put(r)
}

// complete marks the request finished and, if a rank is blocked on it,
// drops a token into that rank's wake channel. The send never blocks: a
// full buffer already holds a token the waiter has yet to consume, and
// consuming it makes the waiter re-check done, which is already true.
// complete must not touch r after unlocking — the waiter may recycle it.
func (r *Request) complete(st Status) {
	r.mu.Lock()
	if r.done {
		r.mu.Unlock()
		panic("mpi: request completed twice")
	}
	r.done = true
	r.status = st
	wake := r.waiter
	r.waiter = nil
	r.mu.Unlock()
	if wake != nil {
		select {
		case wake <- struct{}{}:
		default:
		}
	}
}

// subscribe registers wake for completion notification unless the
// request already completed.
func (r *Request) subscribe(wake chan struct{}) {
	r.mu.Lock()
	if !r.done {
		r.waiter = wake
	}
	r.mu.Unlock()
}

// unsubscribe withdraws a registration made by subscribe.
func (r *Request) unsubscribe(wake chan struct{}) {
	r.mu.Lock()
	if r.waiter == wake {
		r.waiter = nil
	}
	r.mu.Unlock()
}

// Done reports whether the request has completed without blocking.
func (r *Request) Done() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.done
}

// wait blocks the rank owning wake until the request completes and
// returns its status. Already-completed requests return without touching
// a channel. If the world aborts first, the rank unwinds via abortSignal.
func (r *Request) wait(wake chan struct{}) Status {
	r.mu.Lock()
	if !r.done {
		r.waiter = wake
		r.mu.Unlock()
		park(wake, r.comm.world.abort, r.Done)
		r.mu.Lock()
	}
	st := r.status
	r.mu.Unlock()
	return st
}

// park blocks on the rank's wake channel until ready reports true. Every
// token is only a hint to re-check: a token can be stale (left by a
// completion the rank had already observed), so a wake never decides
// anything by itself. No wakeup is lost because a waiter subscribes
// before it checks ready, and complete sets done before it looks for a
// subscriber: either the check sees done, or the completion sees the
// subscription and leaves a token. On abort, a completion that raced
// with it still wins; otherwise the rank unwinds.
func park(wake, abort chan struct{}, ready func() bool) {
	for !ready() {
		select {
		case <-wake:
		case <-abort:
			if !ready() {
				panic(abortSignal{})
			}
			return
		}
	}
}

// waitFree waits on a pooled internal request and recycles it.
func waitFree(r *Request) Status {
	st := r.wait(r.comm.wake)
	putRequest(r)
	return st
}
