// Package netserver is the serving tier: a TCP server that puts the
// engine's allocation-free read path and batch write path behind the
// internal/wire protocol without giving up their performance. It is also
// the lowest layer that owns read concurrency — the dispatchers are the
// goroutines; nothing they call spawns more. Its core mechanism is
// adaptive request coalescing, a group-commit for serving: the first
// request to reach the idle dispatcher opens a batching window, and
// every request that arrives while that window's batch executes rides
// the next one. Per-connection readers decode frames into pooled
// request slots and feed a small pool of dispatchers, each connection
// pinned to one dispatcher (affinity keeps the queues contention-free
// and a connection's requests in order); an idle dispatcher drains
// whatever has accumulated in its queue (up to MaxBatch), carves the
// run into maximal same-opcode segments, and serves update segments with
// one UpdateBatch and predicate segments with one planner descent per
// distinct tree — so on a durable backend concurrently-arriving writes
// amortize WAL fsyncs, exactly as embedded batch callers do. Point and
// range queries are served one by one, each one Backend.QueryHops call
// with a single hop: a probe is a microsecond of work and a batch kernel
// around it measured no faster (DESIGN.md §10.2); what the window buys
// them is the bundled write. The window needs no timer: its
// width is the previous batch's execution time, so it self-adjusts —
// near-zero added latency when idle, maximal batches under load. A
// batch's responses are bundled per connection into one framed write,
// so the writer wakes once per window, not once per request.
//
// Ordering. A connection's requests are served by its dispatcher in
// arrival order, so pipelined requests on one connection observe each
// other like sequential engine calls; requests on different
// connections have no mutual order, as with concurrent embedded
// callers. Responses carry the request id and the client matches them.
//
// Error isolation. A well-framed request that the engine rejects
// answers that request with StatusErr and the engine's message; the
// connection lives on. A broken frame (torn or corrupt — the WAL
// posture) poisons the byte stream and closes the connection. One
// request's engine error never fails another's: every point query is
// evaluated exactly once, and UpdateBatch reports its errors per update.
// A stalled client — socket open, but not reading — is isolated the same
// way: a full response queue or a timed-out write (Options.WriteTimeout)
// declares the connection dead and closes it, and the dispatcher drops its
// responses rather than ever blocking on it, so one stalled connection
// cannot wedge the others pinned to its dispatcher or hang Shutdown.
//
// Workload. The server keeps no counts: the backend's engines record
// every call a request becomes, as they record an embedded caller's.
//
// Predicates. RegisterPath publishes id→path bindings (copy-on-write,
// like class interning), and OpPredicate/OpPredicateValues requests
// execute planner-compiled predicate trees against them; New binds
// Options.Path as id 1 with the backend as its index source. Each
// dispatcher owns a private plan.Planner, rebuilt lazily when the
// registration table's generation moves. Coalescing extends to
// predicates by dedup: a same-opcode run is grouped by canonical tree
// bytes + hierarchy + target class + attr, and each distinct group
// costs one planner descent whose answer fans out to every request in
// the group — errors isolate per group, so a poisoned plan answers
// only its own requests. PredicateStats exposes the requests/descents
// counters.
package netserver

import (
	"bufio"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exec"
	"repro/internal/model"
	"repro/internal/oodb"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/wire"
)

// Backend is what the server serves: the engine surface shared by
// *engine.Engine and *shard.DB — one read method, plan.Source's
// QueryHops, which answers point and range requests as one-hop probes and
// the planners' probe groups on the served path, and the four writes.
// A backend with one store (Store() *oodb.Store, as *engine.Engine has)
// backs the planners' naive fallback — residual filters for unsourced
// leaves and OpPredicateValues projection, as an embedded planner's;
// *shard.DB has none, so those answer with the planner's error.
type Backend interface {
	plan.Source
	Insert(class string, attrs map[string][]oodb.Value) (oodb.OID, error)
	Update(oid oodb.OID, attrs map[string][]oodb.Value) error
	UpdateBatch(ups []exec.Update) []error
	Delete(oid oodb.OID) error
}

// Options tunes a Server. The zero value serves correctly with
// defaults.
type Options struct {
	// Path is the path the backend serves. New registers it as predicate
	// path id 1 with the backend as its index source, so clients can ship
	// predicate trees over it at once; RegisterPath(1, …) may replace the
	// binding later. Nil leaves id 1 unregistered.
	Path *schema.Path

	// MaxBatch caps how many requests one dispatch window may coalesce.
	// Default 256.
	MaxBatch int

	// Dispatchers is how many dispatcher goroutines serve requests —
	// the serving tier's parallelism, matching the concurrency an
	// embedded caller would get from that many goroutines. Each
	// connection is pinned to one dispatcher, so its requests are
	// served in arrival order. Default min(GOMAXPROCS, 8).
	Dispatchers int

	// QueueDepth is the capacity of the dispatcher's request queue and
	// of each connection's response queue. A connection whose response
	// queue fills — the client stopped reading while the server kept
	// answering — is closed rather than ever blocking its dispatcher.
	// Default 1024.
	QueueDepth int

	// WriteTimeout bounds each socket write. A client that keeps the
	// connection open but stops reading stalls the kernel send buffer;
	// the deadline turns that stall into a write error so the connection
	// tears down instead of pinning its writer (and, transitively,
	// Shutdown) forever. Default 10s.
	WriteTimeout time.Duration
}

func (o Options) withDefaults() Options {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 256
	}
	if o.Dispatchers <= 0 {
		o.Dispatchers = runtime.GOMAXPROCS(0)
		if o.Dispatchers > 8 {
			o.Dispatchers = 8
		}
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 1024
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 10 * time.Second
	}
	return o
}

// task is one decoded request travelling from a connection reader to
// the dispatcher. Tasks are pooled; req's owned fields are overwritten
// by the next decode and class is interned, so holding a task beyond
// its response is the only misuse, and release guards it by clearing.
type task struct {
	conn  *conn
	req   wire.Request
	class string // interned copy of req.Class (which aliases a dead buffer)
	attr  string // interned copy of req.Attr (OpPredicateValues)
}

// pathReg is one wire path-id binding: the schema path it names, an
// optional probe source and cold statistics for the planner. A nil src
// means the path is known for decoding but unsourced — its leaves run
// through the planner's naive store fallback, exactly as an embedded
// planner treats a path nobody registered.
type pathReg struct {
	path *schema.Path
	src  plan.Source
	ps   *model.PathStats
}

// pathTable is the copy-on-write id→path registration table, the
// predicate analog of the class intern table: dispatchers read it with
// one atomic load, RegisterPath replaces it wholesale under the server
// lock. gen lets each dispatcher notice a replacement and rebuild its
// private planner lazily.
type pathTable struct {
	gen  uint64
	byID map[uint16]*pathReg
}

// conn is one client connection: a reader goroutine feeding the shared
// dispatcher and a writer goroutine draining the response queue.
type conn struct {
	srv  *Server
	nc   net.Conn
	disp *dispatcher  // the dispatcher this connection is pinned to
	out  chan *[]byte // framed responses; closed when reader is done and pending hits zero

	pending    atomic.Int64 // tasks handed to the dispatcher, not yet answered
	readerDone atomic.Bool
	dead       atomic.Bool // queue overflow or write failure; responses are dropped
	outOnce    sync.Once
}

// closeOut closes the response queue exactly once: the writer drains
// what remains, flushes, and tears the socket down.
func (c *conn) closeOut() {
	c.outOnce.Do(func() { close(c.out) })
}

// Server serves a Backend over TCP. Create with New, start with Listen,
// stop with Shutdown.
type Server struct {
	be    Backend
	store *oodb.Store // the planners' naive fallback: the backend's one store, or nil
	opts  Options

	ln         net.Listener
	mu         sync.Mutex // guards conns and intern misses
	conns      map[*conn]struct{}
	classes    atomic.Pointer[map[string]string] // copy-on-write intern table
	paths      atomic.Pointer[pathTable]         // copy-on-write path registrations
	disps      []*dispatcher
	nextDisp   atomic.Uint64 // round-robin connection-to-dispatcher assignment
	taskPool   sync.Pool
	bufPool    sync.Pool
	acceptWG   sync.WaitGroup
	readers    sync.WaitGroup
	writers    sync.WaitGroup
	dispatchWG sync.WaitGroup
	started    atomic.Bool
	closed     atomic.Bool
	done       chan struct{}

	// Coalescing counters, for net_point's traced batch size and
	// coalesced fraction and for observability.
	nBatches   atomic.Uint64
	nRequests  atomic.Uint64
	nCoalesced atomic.Uint64

	// Predicate dispatch counters, for net_pred's traced descents per
	// request: requests served through the planner path, and how many
	// planner descents they cost (identical coalesced predicates share
	// one).
	nPredRequests atomic.Uint64
	nPredDescents atomic.Uint64
}

// New builds a server around be, with opts.Path registered as predicate
// path id 1. Listen starts it.
func New(be Backend, opts Options) *Server {
	s := &Server{
		be:    be,
		opts:  opts.withDefaults(),
		conns: make(map[*conn]struct{}),
		done:  make(chan struct{}),
	}
	if b, ok := be.(interface{ Store() *oodb.Store }); ok {
		s.store = b.Store()
	}
	empty := make(map[string]string)
	s.classes.Store(&empty)
	s.paths.Store(&pathTable{byID: make(map[uint16]*pathReg)})
	if opts.Path != nil {
		s.RegisterPath(1, opts.Path, be, nil) //nolint:errcheck // the path is non-nil
	}
	for i := 0; i < s.opts.Dispatchers; i++ {
		s.disps = append(s.disps, newDispatcher(s))
	}
	s.taskPool.New = func() any { return new(task) }
	s.bufPool.New = func() any { b := make([]byte, 0, 512); return &b }
	return s
}

// Listen binds addr (TCP; ":0" picks a free port) and starts serving in
// the background. It returns the bound address immediately; Shutdown is
// safe to call as soon as it returns.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	if err := s.prepare(ln); err != nil {
		ln.Close()
		return nil, err
	}
	go s.acceptLoop(ln) //nolint:errcheck // the accept-loop exit is owned by Shutdown
	return ln.Addr(), nil
}

// prepare transitions the server to started — synchronously, so the
// waitgroups Shutdown waits on are registered before Listen
// hands control back — and starts the dispatcher.
func (s *Server) prepare(ln net.Listener) error {
	if !s.started.CompareAndSwap(false, true) {
		return fmt.Errorf("netserver: already serving")
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	for _, d := range s.disps {
		s.dispatchWG.Add(1)
		go d.run()
	}
	s.acceptWG.Add(1)
	return nil
}

func (s *Server) acceptLoop(ln net.Listener) error {
	defer s.acceptWG.Done()
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.closed.Load() {
				return nil
			}
			return err
		}
		s.startConn(nc)
	}
}

// startConn registers a connection and starts its reader and writer.
func (s *Server) startConn(nc net.Conn) {
	c := &conn{srv: s, nc: nc, out: make(chan *[]byte, s.opts.QueueDepth)}
	c.disp = s.disps[s.nextDisp.Add(1)%uint64(len(s.disps))]
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		nc.Close()
		return
	}
	s.conns[c] = struct{}{}
	s.mu.Unlock()
	s.readers.Add(1)
	go s.readLoop(c)
	s.writers.Add(1)
	go s.writeLoop(c)
}

// intern returns the canonical string for a class name sitting in a
// transient read buffer. The hot path is one atomic load and a map
// lookup on a []byte key, which compiles to no allocation and takes no
// lock — every reader goroutine hits it once per request. A miss copies
// the whole table under the lock (copy-on-write), which only a fresh
// class name pays; the table is capped so a hostile stream of names
// cannot grow it without bound.
func (s *Server) intern(b []byte) string {
	m := *s.classes.Load()
	if v, ok := m[string(b)]; ok {
		return v
	}
	v := string(b)
	s.mu.Lock()
	defer s.mu.Unlock()
	m = *s.classes.Load()
	if cached, ok := m[v]; ok {
		return cached
	}
	if len(m) >= 1024 {
		return v
	}
	next := make(map[string]string, len(m)+1)
	for k, val := range m {
		next[k] = val
	}
	next[v] = v
	s.classes.Store(&next)
	return v
}

// RegisterPath binds wire path id to p for predicate requests: leaves
// carrying id probe src (any plan.Source — an engine or a sharded DB),
// with ps seeding cold cardinality estimates.
// A nil src registers the path for decoding only; its leaves run
// through the planner's naive fallback over the backend's store (see
// Backend), matching an embedded planner with that path unregistered.
// Replacing a live id
// is allowed; each dispatcher rebuilds its planner before its next
// predicate batch. Safe to call while serving.
func (s *Server) RegisterPath(id uint16, p *schema.Path, src plan.Source, ps *model.PathStats) error {
	if p == nil {
		return fmt.Errorf("netserver: register path %d with nil path", id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.paths.Load()
	next := &pathTable{gen: old.gen + 1, byID: make(map[uint16]*pathReg, len(old.byID)+1)}
	for k, v := range old.byID {
		next.byID[k] = v
	}
	next.byID[id] = &pathReg{path: p, src: src, ps: ps}
	s.paths.Store(next)
	return nil
}

// readLoop decodes frames off the socket and hands tasks to the shared
// dispatcher. A framing error or EOF ends the loop; the writer tears
// the socket down once every handed-off task has been answered.
func (s *Server) readLoop(c *conn) {
	defer s.readers.Done()
	defer func() {
		c.readerDone.Store(true)
		if c.pending.Load() == 0 {
			c.closeOut()
		}
	}()
	br := bufio.NewReaderSize(c.nc, 64<<10)
	var buf []byte
	var err error
	for {
		buf, err = wire.ReadFrame(br, buf)
		if err != nil {
			return // clean EOF, torn frame, or read deadline from Shutdown
		}
		t := s.taskPool.Get().(*task)
		if derr := wire.DecodeRequest(buf, &t.req); derr != nil {
			s.release(t)
			// A well-framed but undecodable request gets an error reply if
			// it carries an addressable id; past that the stream is
			// untrustworthy, so the connection closes either way.
			if id, ok := wire.PeekID(buf); ok {
				s.sendPayload(c, wire.AppendError(nil, id, derr.Error()))
			}
			return
		}
		t.conn = c
		t.class = s.intern(t.req.Class)
		t.req.Class = nil // the alias dies with the next ReadFrame
		if t.req.Op == wire.OpPredicateValues {
			t.attr = s.intern(t.req.Attr)
			t.req.Attr = nil
		}
		c.pending.Add(1)
		c.disp.tasks <- t
	}
}

// writeLoop drains the response queue to the socket through a buffered
// writer, flushing whenever the queue goes empty — one syscall per
// burst, not per response. Every write carries a deadline, so a client
// that holds the connection open but stops reading turns into a write
// error once the kernel send buffer fills, instead of blocking this
// goroutine forever. After the first error (or once the connection is
// declared dead) the loop keeps draining without writing — the
// dispatcher must never block on a dead or stalled connection — and the
// socket is closed at once so the reader unblocks too. It owns the
// final teardown: unregistration happens when the queue closes.
func (s *Server) writeLoop(c *conn) {
	defer s.writers.Done()
	defer s.removeConn(c)
	defer c.nc.Close()
	bw := bufio.NewWriterSize(c.nc, 64<<10)
	var werr error
	for bp := range c.out {
		if werr == nil && !c.dead.Load() {
			c.nc.SetWriteDeadline(time.Now().Add(s.opts.WriteTimeout)) //nolint:errcheck // a failed socket errors on Write
			if _, werr = bw.Write(*bp); werr == nil && len(c.out) == 0 {
				werr = bw.Flush()
			}
			if werr != nil {
				c.dead.Store(true)
				c.nc.Close() // unblock the reader; the stream is done
			}
		}
		s.bufPool.Put(bp)
	}
	if werr == nil && !c.dead.Load() {
		c.nc.SetWriteDeadline(time.Now().Add(s.opts.WriteTimeout)) //nolint:errcheck
		bw.Flush()                                                 //nolint:errcheck // the queue is closed; nothing left to report to
	}
}

// removeConn unregisters a connection.
func (s *Server) removeConn(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// sendPayload frames payload into a pooled buffer and queues it on the
// connection. Called by the dispatcher (and by readers for undecodable
// requests); the pooled copy is what lets the dispatcher immediately
// reuse its payload scratch.
func (s *Server) sendPayload(c *conn, payload []byte) {
	bp := s.bufPool.Get().(*[]byte)
	*bp = wire.AppendFrame((*bp)[:0], payload)
	s.trySend(c, bp)
}

// trySend queues a framed buffer on the connection without ever
// blocking the caller — the dispatcher serves many connections, so one
// slow client must not stall the rest. A full queue means the client
// has stopped reading while the server kept answering; the connection
// is declared dead and closed (unblocking its reader, and its writer
// once the pending write errors) and the buffer goes back to the pool.
func (s *Server) trySend(c *conn, bp *[]byte) {
	if c.dead.Load() {
		s.bufPool.Put(bp)
		return
	}
	select {
	case c.out <- bp:
	default:
		c.dead.Store(true)
		c.nc.Close()
		s.bufPool.Put(bp)
	}
}

// answeredN marks n dispatcher-owned tasks as answered and closes the
// response queue when the reader is gone and nothing is pending.
func (c *conn) answeredN(n int) {
	if c.pending.Add(int64(-n)) == 0 && c.readerDone.Load() {
		c.closeOut()
	}
}

// release returns a task to the pool. Attrs is dropped so a pooled slot
// cannot pin a dead request's map.
func (s *Server) release(t *task) {
	t.conn = nil
	t.req = wire.Request{}
	t.class = ""
	t.attr = ""
	s.taskPool.Put(t)
}

// dispatcher is one serving goroutine: its own request queue (the
// connections pinned to it feed it), and its own scratch — the batch
// under assembly, the update slice for the batch write, the response
// payload buffer, and the per-connection response bundles of the
// current batch. Scratch is reused across batches without locking, so
// the steady-state serve path allocates nothing per batch.
type dispatcher struct {
	srv   *Server
	tasks chan *task
	batch []*task
	ups   []exec.Update
	rbuf  []byte      // response payload scratch
	oid1  [1]oodb.OID // single-OID reply scratch
	hop1  [1]exec.Hop // single-hop query scratch

	// Predicate dispatch: each dispatcher owns a private planner over
	// the registered paths, rebuilt lazily when the path table's
	// generation moves — planning state (EWMA cardinalities, scratch)
	// stays dispatcher-local, so predicate serving takes no lock.
	pl    *plan.Planner
	plGen uint64

	// Predicate coalescing scratch: identical predicates in one window
	// share a planner descent. keyBuf holds the canonical key under
	// construction; predKey maps key → group; predGroups is reused.
	keyBuf     []byte
	predKey    map[string]int
	predGroups [][]*task

	// Response bundling: every reply of the current batch is framed into
	// its connection's bundle, and each bundle is queued as one write
	// when the batch completes — one writer wakeup per window per
	// connection.
	bundles []bundle
	byConn  map[*conn]int // index into bundles
}

// bundle accumulates one connection's framed responses for the batch in
// flight. n counts the tasks answered into it, so the connection's
// pending counter can be settled after the bundle is queued.
type bundle struct {
	c  *conn
	bp *[]byte
	n  int
}

func newDispatcher(s *Server) *dispatcher {
	return &dispatcher{
		srv:     s,
		tasks:   make(chan *task, s.opts.QueueDepth),
		byConn:  make(map[*conn]int),
		predKey: make(map[string]int),
	}
}

// run is the dispatcher loop, the goroutine that owns batching. It
// blocks for the first task, then drains whatever else has already
// arrived, up to MaxBatch (so MaxBatch 1 is per-request dispatch), and
// serves the batch. The adaptive window falls out of the structure: while this
// batch executes, new arrivals queue up and become some dispatcher's
// next batch, so the window widens exactly when the system is busy.
func (d *dispatcher) run() {
	s := d.srv
	defer s.dispatchWG.Done()
	for t := range d.tasks {
		d.batch = append(d.batch[:0], t)
	fill:
		for len(d.batch) < s.opts.MaxBatch {
			select {
			case t2, ok := <-d.tasks:
				if !ok {
					break fill // closing; outer range will also see it
				}
				d.batch = append(d.batch, t2)
			default:
				break fill
			}
		}
		d.serveBatch(d.batch)
	}
}

// serveBatch answers one coalesced window. The batch is carved into
// maximal same-opcode segments served in arrival order: update segments
// collapse into one UpdateBatch (one WAL fsync decision on a durable
// backend), predicate segments into one descent per distinct tree, and
// everything else — point queries included — is served per request.
func (d *dispatcher) serveBatch(batch []*task) {
	s := d.srv
	s.nBatches.Add(1)
	s.nRequests.Add(uint64(len(batch)))
	if len(batch) > 1 {
		s.nCoalesced.Add(uint64(len(batch) - 1))
	}
	for i := 0; i < len(batch); {
		j := i + 1
		for j < len(batch) && batch[j].req.Op == batch[i].req.Op {
			j++
		}
		switch batch[i].req.Op {
		case wire.OpUpdate:
			d.serveUpdates(batch[i:j])
		case wire.OpPredicate, wire.OpPredicateValues:
			d.servePredicates(batch[i:j])
		default:
			for _, t := range batch[i:j] {
				d.serveOne(t)
			}
		}
		i = j
	}
	d.flushBundles()
}

// flushBundles queues every connection's accumulated responses as one
// write and settles the answered counts. The bundle must be queued
// before the tasks count as answered: answered may close the response
// queue, and a closed queue must have nothing left to enter it. The
// queueing never blocks — a connection whose queue is full is killed
// and its bundle dropped, so one stalled client cannot wedge the
// dispatcher for every other connection pinned to it.
func (d *dispatcher) flushBundles() {
	for i := range d.bundles {
		b := &d.bundles[i]
		d.srv.trySend(b.c, b.bp)
		b.c.answeredN(b.n)
		delete(d.byConn, b.c)
		d.bundles[i] = bundle{}
	}
	d.bundles = d.bundles[:0]
}

// serveUpdates answers a segment of updates with one batch write — the
// group commit: on a durable backend the whole segment is one fsync
// decision, amortized across every connection that contributed.
func (d *dispatcher) serveUpdates(run []*task) {
	if len(run) == 1 {
		d.serveOne(run[0])
		return
	}
	d.ups = d.ups[:0]
	for _, t := range run {
		d.ups = append(d.ups, exec.Update{OID: t.req.OID, Attrs: t.req.Attrs})
	}
	errs := d.srv.be.UpdateBatch(d.ups)
	for i, t := range run {
		d.reply(t, nil, errs[i])
	}
}

// servePredicates answers a segment of predicate requests through the
// dispatcher's planner. Coalescing here is deduplication: requests in
// the window carrying the same canonical predicate bytes, target and
// projection share one planner descent — concurrent clients asking the
// same question pay for one answer. The planner itself is rebuilt lazily
// when the path registration table's generation moves.
func (d *dispatcher) servePredicates(run []*task) {
	s := d.srv
	s.nPredRequests.Add(uint64(len(run)))
	tab := s.paths.Load()
	if d.pl == nil || d.plGen != tab.gen {
		d.pl = plan.NewPlanner(s.store)
		for _, r := range tab.byID {
			if r.src != nil {
				d.pl.Register(r.path, r.src, r.ps) //nolint:errcheck // path and src are non-nil by construction
			}
		}
		d.plGen = tab.gen
	}
	if len(run) == 1 {
		d.servePredGroup(tab, run)
		return
	}
	clear(d.predKey)
	d.predGroups = d.predGroups[:0]
	for _, t := range run {
		// The canonical encoding doubles as the dedup key: a decoded tree
		// re-encodes to exactly the bytes it arrived as, so byte equality
		// is tree equality. Class is length-prefixed so a hostile class
		// name cannot splice itself into the attr.
		d.keyBuf = wire.AppendPredNode(d.keyBuf[:0], &t.req.Pred)
		if t.req.Hierarchy {
			d.keyBuf = append(d.keyBuf, 1)
		} else {
			d.keyBuf = append(d.keyBuf, 0)
		}
		d.keyBuf = append(d.keyBuf, byte(len(t.class)>>8), byte(len(t.class)))
		d.keyBuf = append(d.keyBuf, t.class...)
		d.keyBuf = append(d.keyBuf, t.attr...)
		gi, ok := d.predKey[string(d.keyBuf)]
		if !ok {
			gi = len(d.predGroups)
			if cap(d.predGroups) > gi {
				d.predGroups = d.predGroups[:gi+1]
				d.predGroups[gi] = d.predGroups[gi][:0]
			} else {
				d.predGroups = append(d.predGroups, nil)
			}
			d.predKey[string(d.keyBuf)] = gi
		}
		d.predGroups[gi] = append(d.predGroups[gi], t)
	}
	for gi := range d.predGroups {
		d.servePredGroup(tab, d.predGroups[gi])
		d.predGroups[gi] = d.predGroups[gi][:0] // drop task pointers; slots are pooled
	}
}

// servePredGroup answers one group of identical predicate requests with
// a single planner descent. A failure — unresolvable path id, planner
// rejection, execution error — answers only this group's requests with
// the error; a poisoned plan never fails the other predicates sharing
// the window.
func (d *dispatcher) servePredGroup(tab *pathTable, run []*task) {
	d.srv.nPredDescents.Add(1)
	t0 := run[0]
	fail := func(err error) {
		for _, t := range run {
			d.reply(t, nil, err)
		}
	}
	if err := resolvePaths(tab, &t0.req.Pred); err != nil {
		fail(err)
		return
	}
	p, err := d.pl.Plan(t0.req.Pred, t0.class, t0.req.Hierarchy)
	if err != nil {
		fail(err)
		return
	}
	if t0.req.Op == wire.OpPredicateValues {
		vals, err := p.ExecuteValues(t0.attr)
		if err != nil {
			fail(err)
			return
		}
		for _, t := range run {
			d.replyValues(t, vals)
		}
		return
	}
	oids, err := p.Execute()
	if err != nil {
		fail(err)
		return
	}
	for _, t := range run {
		d.reply(t, oids, nil)
	}
}

// resolvePaths fills each leaf's Path from the registration table, in
// place: the decoded tree is the predicate the planner plans, exactly
// what an embedded caller builds with plan.Eq/Range/And/Or, so the
// planner's own validation errors for degenerate shapes (empty
// conjunctions, mixed-kind range bounds) reach the client unchanged.
// Path is never encoded, so resolving leaves the dedup key as it was.
func resolvePaths(tab *pathTable, n *wire.PredNode) error {
	switch n.Kind {
	case wire.PredEq, wire.PredRange:
		r, ok := tab.byID[n.PathID]
		if !ok {
			return fmt.Errorf("netserver: predicate path id %d is not registered", n.PathID)
		}
		n.Path = r.path
	case wire.PredAnd, wire.PredOr:
		for i := range n.Kids {
			if err := resolvePaths(tab, &n.Kids[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// serveOne answers a single request directly against the backend.
func (d *dispatcher) serveOne(t *task) {
	s := d.srv
	var oids []oodb.OID
	var err error
	switch t.req.Op {
	case wire.OpPing:
	case wire.OpQuery:
		d.hop1[0] = exec.Hop{Lo: t.req.Value}
		oids, _, err = s.be.QueryHops(d.hop1[:], nil, t.class, t.req.Hierarchy)
	case wire.OpQueryRange:
		d.hop1[0] = exec.Hop{Lo: t.req.Lo, Hi: t.req.Hi, Ranged: true}
		oids, _, err = s.be.QueryHops(d.hop1[:], nil, t.class, t.req.Hierarchy)
	case wire.OpInsert:
		var oid oodb.OID
		if oid, err = s.be.Insert(t.class, t.req.Attrs); err == nil {
			d.oid1[0] = oid
			oids = d.oid1[:]
		}
	case wire.OpUpdate:
		err = s.be.Update(t.req.OID, t.req.Attrs)
	case wire.OpDelete:
		err = s.be.Delete(t.req.OID)
	default:
		err = fmt.Errorf("netserver: unknown opcode %d", t.req.Op)
	}
	d.hop1[0] = exec.Hop{} // drop the request's values
	d.reply(t, oids, err)
}

// reply encodes one response into the dispatcher's payload scratch and
// frames it into the connection's bundle for this batch; the bundle is
// queued (and the task counted answered) when the batch completes.
func (d *dispatcher) reply(t *task, oids []oodb.OID, err error) {
	if err != nil {
		d.rbuf = wire.AppendError(d.rbuf[:0], t.req.ID, err.Error())
	} else {
		d.rbuf = wire.AppendOKOIDs(d.rbuf[:0], t.req.ID, oids)
	}
	d.bundleReply(t)
}

// replyValues is reply for the value-projection response shape.
func (d *dispatcher) replyValues(t *task, vals []oodb.Value) {
	d.rbuf = wire.AppendOKValues(d.rbuf[:0], t.req.ID, vals)
	d.bundleReply(t)
}

// bundleReply frames the payload sitting in rbuf into t's connection
// bundle and releases the task.
func (d *dispatcher) bundleReply(t *task) {
	c := t.conn
	i, ok := d.byConn[c]
	if !ok {
		i = len(d.bundles)
		bp := d.srv.bufPool.Get().(*[]byte)
		*bp = (*bp)[:0]
		d.bundles = append(d.bundles, bundle{c: c, bp: bp})
		d.byConn[c] = i
	}
	b := &d.bundles[i]
	*b.bp = wire.AppendFrame(*b.bp, d.rbuf)
	b.n++
	d.srv.release(t)
}

// Shutdown stops accepting, unblocks every connection reader, drains
// and answers all in-flight requests, flushes every response, and
// returns once all goroutines are gone. A connection whose client has
// stopped reading delays it by at most one WriteTimeout before being
// cut off. Safe to call more than once.
func (s *Server) Shutdown() error {
	if !s.closed.CompareAndSwap(false, true) {
		<-s.done
		return nil
	}
	s.mu.Lock()
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.acceptWG.Wait()
	s.mu.Lock()
	for c := range s.conns {
		c.nc.SetReadDeadline(time.Now()) //nolint:errcheck // best-effort unblock
	}
	s.mu.Unlock()
	s.readers.Wait()
	if s.started.Load() {
		for _, d := range s.disps {
			close(d.tasks)
		}
		s.dispatchWG.Wait()
	}
	s.writers.Wait()
	close(s.done)
	return nil
}

// CoalesceStats reports how many requests the dispatcher has served,
// across how many batch windows, and how many rode a window opened by
// an earlier request (the coalesced count).
func (s *Server) CoalesceStats() (requests, batches, coalesced uint64) {
	return s.nRequests.Load(), s.nBatches.Load(), s.nCoalesced.Load()
}

// PredicateStats reports how many requests the planner dispatch path
// has served and how many planner descents they cost; descents below
// requests means coalesced windows shared identical predicates.
func (s *Server) PredicateStats() (requests, descents uint64) {
	return s.nPredRequests.Load(), s.nPredDescents.Load()
}
