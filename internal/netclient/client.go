// Package netclient is the Go client for the networked serving tier: a
// connection to an ixserved-style server speaking the internal/wire
// protocol, with pipelining as the core mechanism. Every operation has
// an asynchronous Go* form returning a *Call; firing many calls before
// waiting puts many requests in flight on the one connection, and the
// background reader matches responses to calls by request id in
// whatever order the server finishes them — the server coalesces
// concurrently in-flight requests into one dispatch window, so a deep
// pipeline is what feeds the group-commit window. The synchronous forms
// (Query, Insert, ...) are one-request-per-round-trip conveniences built
// on the same machinery.
//
// Writes are buffered: Go* calls append frames to an in-process buffer
// and Flush pushes them to the socket in one write. Call.Wait flushes
// before blocking, so a straight-line caller can ignore flushing
// entirely; a pipelining caller fires a window of Go* calls and waits
// on them, paying one flush for the window.
//
// Ordering. Responses are matched by id, not order, and the server may
// execute concurrently in-flight requests in any order. Calls whose
// effects must be ordered (an update, then a query observing it) must
// be waited on in sequence, exactly as two engine calls from two
// goroutines would need external ordering.
package netclient

import (
	"bufio"
	"fmt"
	"net"
	"sync"

	"repro/internal/exec"
	"repro/internal/oodb"
	"repro/internal/wire"
)

// RemoteError is an error the server reported for one request: the
// remote engine's error message carried back verbatim. The connection
// stays healthy — a RemoteError fails the call, not the client.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return e.Msg }

// Call is one in-flight request. Wait blocks until the response arrives
// (flushing buffered requests first) and returns the result: the OID
// list for queries, the minted OID as a one-element list for Insert, nil
// for Update/Delete/Ping.
type Call struct {
	c    *Client
	done chan struct{}
	oids []oodb.OID
	vals []oodb.Value
	err  error
}

// Wait flushes the client's send buffer and blocks until this call's
// response arrives, returning the result.
func (call *Call) Wait() ([]oodb.OID, error) {
	select {
	case <-call.done:
	default:
		call.c.Flush() //nolint:errcheck // a flush failure fails every pending call, this one included
		<-call.done
	}
	return call.oids, call.err
}

// WaitValues is Wait for value-projection calls (GoPredicateValues): it
// returns the projected values instead of OIDs.
func (call *Call) WaitValues() ([]oodb.Value, error) {
	select {
	case <-call.done:
	default:
		call.c.Flush() //nolint:errcheck // a flush failure fails every pending call, this one included
		<-call.done
	}
	return call.vals, call.err
}

// Client is one pipelined connection to a serving-tier server. Methods
// are safe for concurrent use; calls from many goroutines share the
// connection and pipeline together.
type Client struct {
	nc net.Conn

	mu      sync.Mutex // guards bw, buf, fbuf, nextID, pending, err
	bw      *bufio.Writer
	buf     []byte // payload scratch
	fbuf    []byte // frame scratch
	nextID  uint64
	pending map[uint64]*Call
	err     error // terminal connection error; fails all future calls

	readerDone chan struct{}
}

// Dial connects to a serving-tier server at addr (TCP).
func Dial(addr string) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(nc), nil
}

// NewClient wraps an established connection (any net.Conn, so tests can
// serve over in-process pipes).
func NewClient(nc net.Conn) *Client {
	c := &Client{
		nc:         nc,
		bw:         bufio.NewWriterSize(nc, 64<<10),
		pending:    make(map[uint64]*Call),
		readerDone: make(chan struct{}),
	}
	go c.readLoop()
	return c
}

// readLoop decodes responses and completes their calls until the
// connection dies, then fails everything still pending.
func (c *Client) readLoop() {
	defer close(c.readerDone)
	br := bufio.NewReaderSize(c.nc, 64<<10)
	var buf []byte
	var resp wire.Response
	for {
		var err error
		buf, err = wire.ReadFrame(br, buf)
		if err != nil {
			c.fail(fmt.Errorf("netclient: connection lost: %w", err))
			return
		}
		// The decoded OIDs become the call's answer, so every response
		// decodes into a slice of its own.
		resp.OIDs = nil
		if err := wire.DecodeResponse(buf, &resp); err != nil {
			c.fail(fmt.Errorf("netclient: %w", err))
			return
		}
		c.mu.Lock()
		call, ok := c.pending[resp.ID]
		delete(c.pending, resp.ID)
		c.mu.Unlock()
		if !ok {
			c.fail(fmt.Errorf("netclient: response for unknown request id %d", resp.ID))
			return
		}
		switch {
		case resp.Status == wire.StatusErr:
			call.err = &RemoteError{Msg: string(resp.Err)}
		case resp.Status == wire.StatusOKValues && len(resp.Vals) > 0:
			call.vals = append([]oodb.Value(nil), resp.Vals...)
		case len(resp.OIDs) > 0:
			call.oids = resp.OIDs
		}
		close(call.done)
	}
}

// fail latches err and fails every pending and future call with it.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	calls := c.pending
	c.pending = make(map[uint64]*Call)
	c.mu.Unlock()
	for _, call := range calls {
		call.err = err
		close(call.done)
	}
}

// start registers a call and appends its framed request to the send
// buffer. encode writes the request payload for the given id.
func (c *Client) start(encode func(dst []byte, id uint64) []byte) *Call {
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return c.answered(err)
	}
	call := &Call{c: c, done: make(chan struct{})}
	c.nextID++
	id := c.nextID
	c.pending[id] = call
	c.buf = encode(c.buf[:0], id)
	c.fbuf = wire.AppendFrame(c.fbuf[:0], c.buf)
	if _, err := c.bw.Write(c.fbuf); err != nil {
		c.mu.Unlock()
		c.fail(fmt.Errorf("netclient: write: %w", err))
		return call
	}
	c.mu.Unlock()
	return call
}

// answered returns a call that never reaches the wire, already answered
// with err.
func (c *Client) answered(err error) *Call {
	call := &Call{c: c, done: make(chan struct{}), err: err}
	close(call.done)
	return call
}

// Flush pushes buffered requests to the socket. Wait calls it
// automatically; explicit use lets a pipelining caller control when a
// window of Go* calls hits the wire.
func (c *Client) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	if err := c.bw.Flush(); err != nil {
		c.mu.Unlock()
		c.fail(fmt.Errorf("netclient: flush: %w", err))
		c.mu.Lock()
		return c.err
	}
	return nil
}

// Err returns the terminal connection error, if the connection has died.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Close tears the connection down; pending calls fail with the
// resulting read error.
func (c *Client) Close() error {
	err := c.nc.Close()
	<-c.readerDone
	return err
}

// GoPing starts a round-trip no-op.
func (c *Client) GoPing() *Call {
	return c.start(func(dst []byte, id uint64) []byte { return wire.AppendPing(dst, id) })
}

// GoQuery starts a point query A_n = v for class.
func (c *Client) GoQuery(v oodb.Value, class string, hierarchy bool) *Call {
	return c.start(func(dst []byte, id uint64) []byte {
		return wire.AppendQuery(dst, id, v, class, hierarchy)
	})
}

// GoQueryRange starts a range query A_n IN [lo, hi) for class.
func (c *Client) GoQueryRange(lo, hi oodb.Value, class string, hierarchy bool) *Call {
	return c.start(func(dst []byte, id uint64) []byte {
		return wire.AppendQueryRange(dst, id, lo, hi, class, hierarchy)
	})
}

// GoInsert starts an insert of a new class object. An attribute map the
// codec cannot encode (oodb.CheckAttrs) is answered with its error and
// never sent: the server could not frame it.
func (c *Client) GoInsert(class string, attrs map[string][]oodb.Value) *Call {
	if err := oodb.CheckAttrs(attrs); err != nil {
		return c.answered(err)
	}
	return c.start(func(dst []byte, id uint64) []byte {
		return wire.AppendInsert(dst, id, class, attrs)
	})
}

// GoUpdate starts an in-place update of oid; attrs are checked as
// GoInsert checks them.
func (c *Client) GoUpdate(oid oodb.OID, attrs map[string][]oodb.Value) *Call {
	if err := oodb.CheckAttrs(attrs); err != nil {
		return c.answered(err)
	}
	return c.start(func(dst []byte, id uint64) []byte {
		return wire.AppendUpdate(dst, id, oid, attrs)
	})
}

// GoDelete starts a delete of oid.
func (c *Client) GoDelete(oid oodb.OID) *Call {
	return c.start(func(dst []byte, id uint64) []byte { return wire.AppendDelete(dst, id, oid) })
}

// GoPredicate starts a predicate-tree query: pred (built with
// wire.EqPred/RangePred/AndPred/OrPred over server-registered path ids)
// evaluated against targetClass by the server's planner. Identical
// predicates concurrently in flight may share one planner descent on
// the server; pipelining them is what creates that window.
func (c *Client) GoPredicate(pred *wire.PredNode, targetClass string, hierarchy bool) *Call {
	return c.start(func(dst []byte, id uint64) []byte {
		return wire.AppendPredicate(dst, id, pred, targetClass, hierarchy)
	})
}

// GoPredicateValues starts a predicate query projecting attribute attr
// of each match; wait with WaitValues.
func (c *Client) GoPredicateValues(pred *wire.PredNode, attr, targetClass string, hierarchy bool) *Call {
	return c.start(func(dst []byte, id uint64) []byte {
		return wire.AppendPredicateValues(dst, id, pred, attr, targetClass, hierarchy)
	})
}

// Ping round-trips a no-op — a liveness and latency probe.
func (c *Client) Ping() error {
	_, err := c.GoPing().Wait()
	return err
}

// Query evaluates A_n = value for targetClass, one request per round
// trip. The result is sorted and duplicate-free, exactly the engine's.
func (c *Client) Query(value oodb.Value, targetClass string, hierarchy bool) ([]oodb.OID, error) {
	return c.GoQuery(value, targetClass, hierarchy).Wait()
}

// QueryRange evaluates A_n IN [lo, hi) for targetClass.
func (c *Client) QueryRange(lo, hi oodb.Value, targetClass string, hierarchy bool) ([]oodb.OID, error) {
	return c.GoQueryRange(lo, hi, targetClass, hierarchy).Wait()
}

// Insert stores a new object and returns its minted OID.
func (c *Client) Insert(class string, attrs map[string][]oodb.Value) (oodb.OID, error) {
	oids, err := c.GoInsert(class, attrs).Wait()
	if err != nil {
		return 0, err
	}
	if len(oids) != 1 {
		return 0, fmt.Errorf("netclient: insert returned %d oids", len(oids))
	}
	return oids[0], nil
}

// Update applies an in-place update to oid.
func (c *Client) Update(oid oodb.OID, attrs map[string][]oodb.Value) error {
	_, err := c.GoUpdate(oid, attrs).Wait()
	return err
}

// Delete removes oid.
func (c *Client) Delete(oid oodb.OID) error {
	_, err := c.GoDelete(oid).Wait()
	return err
}

// Predicate evaluates a predicate tree against targetClass, one request
// per round trip. The result is sorted and duplicate-free, exactly what
// an embedded plan.Planner would return.
func (c *Client) Predicate(pred *wire.PredNode, targetClass string, hierarchy bool) ([]oodb.OID, error) {
	return c.GoPredicate(pred, targetClass, hierarchy).Wait()
}

// PredicateValues evaluates a predicate tree and returns attribute attr
// of each match.
func (c *Client) PredicateValues(pred *wire.PredNode, attr, targetClass string, hierarchy bool) ([]oodb.Value, error) {
	return c.GoPredicateValues(pred, attr, targetClass, hierarchy).WaitValues()
}

// UpdateBatch applies a batch of in-place updates by pipelining them,
// mirroring the engine's UpdateBatch contract: one entry per update, nil
// on success, and same-OID updates keep their batch order (the requests
// travel one connection in order, and the server's dispatcher preserves
// arrival order into its write batches).
func (c *Client) UpdateBatch(ups []exec.Update) []error {
	calls := make([]*Call, len(ups))
	for i, u := range ups {
		calls[i] = c.GoUpdate(u.OID, u.Attrs)
	}
	errs := make([]error, len(ups))
	for i, call := range calls {
		_, errs[i] = call.Wait()
	}
	return errs
}
