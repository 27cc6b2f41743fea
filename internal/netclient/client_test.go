package netclient

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/netserver"
	"repro/internal/oodb"
	"repro/internal/wire"
)

// fakeServer is the server end of a net.Pipe: it decodes request frames
// and writes whatever response frames a test tells it to, in whatever
// order. A pipe has no buffer, so a client write completes only when the
// server reads it — nothing reaches the server that was not flushed.
type fakeServer struct {
	t  *testing.T
	nc net.Conn
	br *bufio.Reader
}

func newPipe(t *testing.T) (*Client, *fakeServer) {
	t.Helper()
	cli, srv := net.Pipe()
	c := NewClient(cli)
	t.Cleanup(func() { c.Close(); srv.Close() })
	return c, &fakeServer{t: t, nc: srv, br: bufio.NewReader(srv)}
}

// read decodes the next request; ok is false once the client has closed.
func (s *fakeServer) read() (req wire.Request, ok bool) {
	buf, err := wire.ReadFrame(s.br, nil)
	if err != nil {
		return req, false
	}
	if err := wire.DecodeRequest(buf, &req); err != nil {
		s.t.Errorf("fake server: %v", err)
		return req, false
	}
	return req, true
}

func (s *fakeServer) reply(payload []byte) {
	if _, err := s.nc.Write(wire.AppendFrame(nil, payload)); err != nil {
		s.t.Errorf("fake server: write: %v", err)
	}
}

// within fails the test if f has not returned after a generous bound: a
// client that forgets to flush, or to complete a call, hangs, and the
// test should say where.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); f() }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: still blocked after 10s", what)
	}
}

// TestResponsesOutOfOrderReachTheirCalls: the server answers a window of
// pipelined requests in reverse order, one of them with an error; every
// Call gets the answer to its own request.
func TestResponsesOutOfOrderReachTheirCalls(t *testing.T) {
	c, srv := newPipe(t)
	const n = 5
	go func() {
		reqs := make([]wire.Request, 0, n)
		for len(reqs) < n {
			req, ok := srv.read()
			if !ok {
				return
			}
			reqs = append(reqs, req)
		}
		for i := n - 1; i >= 0; i-- {
			v := reqs[i].Value.Int
			if v == 3 {
				srv.reply(wire.AppendError(nil, reqs[i].ID, "no three"))
				continue
			}
			srv.reply(wire.AppendOKOIDs(nil, reqs[i].ID, []oodb.OID{oodb.OID(100 + v), oodb.OID(200 + v)}))
		}
	}()
	calls := make([]*Call, n)
	for i := range calls {
		calls[i] = c.GoQuery(oodb.IntV(int64(i)), "Person", false)
	}
	within(t, "waiting on the window", func() {
		for i, call := range calls {
			oids, err := call.Wait()
			if i == 3 {
				var remote *RemoteError
				if !errors.As(err, &remote) || remote.Msg != "no three" {
					t.Errorf("call 3: got (%v, %v), want RemoteError %q", oids, err, "no three")
				}
				continue
			}
			if err != nil || len(oids) != 2 || oids[0] != oodb.OID(100+i) || oids[1] != oodb.OID(200+i) {
				t.Errorf("call %d: got (%v, %v), want [%d %d]", i, oids, err, 100+i, 200+i)
			}
		}
	})
	if err := c.Err(); err != nil {
		t.Fatalf("a RemoteError must not fail the connection: Err() = %v", err)
	}
}

// TestConnectionFailureLatches: the server dies with two calls in flight.
// Both fail with one error, Err exposes it, and every later call and
// flush returns it without touching the socket.
func TestConnectionFailureLatches(t *testing.T) {
	c, srv := newPipe(t)
	go func() {
		for i := 0; i < 2; i++ {
			if _, ok := srv.read(); !ok {
				return
			}
		}
		srv.nc.Close()
	}()
	a := c.GoQuery(oodb.IntV(1), "Person", false)
	b := c.GoDelete(7)
	var errA, errB error
	within(t, "waiting on the in-flight calls", func() {
		_, errA = a.Wait()
		_, errB = b.Wait()
	})
	if errA == nil || errA != errB {
		t.Fatalf("in-flight calls: %v and %v, want one shared error", errA, errB)
	}
	var remote *RemoteError
	if errors.As(errA, &remote) {
		t.Fatalf("a lost connection reported as a RemoteError: %v", errA)
	}
	if got := c.Err(); got != errA {
		t.Fatalf("Err() = %v, want the latched %v", got, errA)
	}
	within(t, "calls after the failure", func() {
		if _, err := c.Query(oodb.IntV(2), "Person", false); err != errA {
			t.Errorf("later Query: %v, want the latched %v", err, errA)
		}
		if err := c.Ping(); err != errA {
			t.Errorf("later Ping: %v, want the latched %v", err, errA)
		}
		if err := c.Flush(); err != errA {
			t.Errorf("later Flush: %v, want the latched %v", err, errA)
		}
	})
}

// TestWaitFlushesPendingWrites: Go* calls only buffer; the first Wait puts
// the whole window on the wire.
func TestWaitFlushesPendingWrites(t *testing.T) {
	c, srv := newPipe(t)
	seen := make(chan wire.Request, 2)
	go func() {
		for {
			req, ok := srv.read()
			if !ok {
				return
			}
			seen <- req
			srv.reply(wire.AppendOKOIDs(nil, req.ID, nil))
		}
	}()
	first := c.GoPing()
	second := c.GoDelete(9)
	select {
	case req := <-seen:
		t.Fatalf("request %d reached the server before any Wait or Flush", req.ID)
	default:
	}
	within(t, "Wait on a buffered call", func() {
		if _, err := second.Wait(); err != nil {
			t.Errorf("second: %v", err)
		}
	})
	// One flush carried both: the first call is answered without another.
	within(t, "the call buffered ahead of it", func() { <-first.done })
	if a, b := <-seen, <-seen; a.Op != wire.OpPing || b.Op != wire.OpDelete || b.OID != 9 {
		t.Fatalf("server saw ops %d then %d (oid %d), want ping then delete 9", a.Op, b.Op, b.OID)
	}
}

// TestCloseLeavesNoGoroutine: Close returns only after the reader has
// exited, and a call still in flight fails instead of hanging.
func TestCloseLeavesNoGoroutine(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for round := 0; round < 20; round++ {
		cli, srv := net.Pipe()
		c := NewClient(cli)
		drained := make(chan struct{})
		go func() { // reads the one request, never answers
			defer close(drained)
			wire.ReadFrame(bufio.NewReader(srv), nil) //nolint:errcheck // only draining
		}()
		call := c.GoPing()
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		<-drained
		within(t, "Close", func() { c.Close() })
		select {
		case <-c.readerDone:
		default:
			t.Fatal("Close returned with the reader still running")
		}
		within(t, "the call in flight at Close", func() {
			if _, err := call.Wait(); err == nil || err != c.Err() {
				t.Errorf("call in flight at Close: %v, want the latched %v", err, c.Err())
			}
		})
		srv.Close()
	}
	// The runtime may take a moment to retire exiting goroutines; poll.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d at baseline, %d after 20 clients\n%s",
				baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPipelinedAnswersDoNotAlias: 16 point queries with distinct answers,
// over the four classes of Figure 7's path,
// are all put in flight on one connection, the largest answer first, and
// all waited on before any answer is read; every call must then still
// hold its own answer, equal to the engine's. A reader that decoded each
// response into the array of the one before would leave every earlier
// call holding a later call's OIDs.
func TestPipelinedAnswersDoNotAlias(t *testing.T) {
	g, err := gen.Generate(model.Figure7Stats(), 0.01, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Configuration{Assignments: []core.Assignment{{A: 1, B: g.Path.Len(), Org: cost.NIX}}}
	e, err := engine.New(g.Store, g.Path, cfg, model.PaperParams().PageSize, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	type probe struct {
		v     oodb.Value
		class string
		want  []oodb.OID
	}
	var probes []probe
	seen := map[string]bool{}
	for _, class := range []string{"Person", "Vehicle", "Company", "Division"} {
		for _, v := range g.EndValues {
			want, err := e.Query(v, class, true)
			if err != nil {
				t.Fatal(err)
			}
			if key := fmt.Sprint(want); len(want) > 0 && !seen[key] {
				seen[key] = true
				probes = append(probes, probe{v, class, want})
			}
		}
	}
	if len(probes) < 16 {
		t.Fatalf("%d distinct non-empty answers, want 16", len(probes))
	}
	slices.SortStableFunc(probes, func(a, b probe) int { return len(b.want) - len(a.want) })
	probes = probes[:16]

	srv := netserver.New(e, netserver.Options{Path: g.Path})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Shutdown() }) //nolint:errcheck // teardown
	c, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() }) //nolint:errcheck // teardown
	calls := make([]*Call, len(probes))
	for i, pb := range probes {
		calls[i] = c.GoQuery(pb.v, pb.class, true)
	}
	got := make([][]oodb.OID, len(calls))
	within(t, "waiting on the pipelined calls", func() {
		for i, call := range calls {
			if got[i], err = call.Wait(); err != nil {
				t.Errorf("call %d: %v", i, err)
			}
		}
	})
	for i, pb := range probes {
		if !slices.Equal(got[i], pb.want) {
			t.Errorf("call %d: %d OIDs %v, want the engine's %d %v", i, len(got[i]), got[i], len(pb.want), pb.want)
		}
	}
}
