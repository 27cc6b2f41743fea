package netserver

import (
	"errors"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/netclient"
	"repro/internal/oodb"
	"repro/internal/stats"
	"repro/internal/wire"
)

// newTestEngine builds a small generated database behind a whole-path
// NIX engine — the standard experiment substrate, small enough for unit
// tests.
func newTestEngine(t *testing.T, seed int64) (*engine.Engine, *gen.Generated) {
	t.Helper()
	g, err := gen.Generate(model.Figure7Stats(), 0.01, seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Configuration{Assignments: []core.Assignment{
		{A: 1, B: g.Path.Len(), Org: cost.NIX},
	}}
	e, err := engine.New(g.Store, g.Path, cfg, model.PaperParams().PageSize, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return e, g
}

// startTestServer serves e and returns a connected client; everything
// is torn down with the test.
func startTestServer(t *testing.T, e Backend, opts Options) *netclient.Client {
	t.Helper()
	srv := New(e, opts)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Shutdown() }) //nolint:errcheck
	c, err := netclient.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() }) //nolint:errcheck
	return c
}

func TestServerRoundTrip(t *testing.T) {
	e, g := newTestEngine(t, 1)
	srv := New(e, Options{Path: g.Path})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := netclient.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}

	// Point and range queries must agree exactly with direct engine calls.
	for i, v := range g.EndValues[:10] {
		for _, class := range []string{"Division", "Person"} {
			want, werr := e.Query(v, class, false)
			got, gerr := c.Query(v, class, false)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("value %d class %s: err %v vs %v", i, class, gerr, werr)
			}
			if !sameOIDs(got, want) {
				t.Fatalf("value %d class %s: got %v want %v", i, class, got, want)
			}
		}
	}
	lo, hi := g.EndValues[0], g.EndValues[len(g.EndValues)/2]
	want, werr := e.QueryRange(lo, hi, "Person", true)
	got, gerr := c.QueryRange(lo, hi, "Person", true)
	if werr != nil || gerr != nil || !sameOIDs(got, want) {
		t.Fatalf("range: got %v (%v) want %v (%v)", got, gerr, want, werr)
	}

	// Insert, observe, update, delete — and an error round trip.
	v := oodb.StrV("net-test-value")
	oid, err := c.Insert("Division", map[string][]oodb.Value{"name": {v}})
	if err != nil {
		t.Fatalf("insert: %v", err)
	}
	res, err := c.Query(v, "Division", false)
	if err != nil || !sameOIDs(res, []oodb.OID{oid}) {
		t.Fatalf("query after insert: %v %v", res, err)
	}
	v2 := oodb.StrV("net-test-value-2")
	if err := c.Update(oid, map[string][]oodb.Value{"name": {v2}}); err != nil {
		t.Fatalf("update: %v", err)
	}
	if res, _ := c.Query(v, "Division", false); len(res) != 0 {
		t.Fatalf("old value still matches: %v", res)
	}
	if err := c.Delete(oid); err != nil {
		t.Fatalf("delete: %v", err)
	}
	err = c.Delete(oid)
	var remote *netclient.RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("second delete: want RemoteError, got %v", err)
	}
	wantErr := e.Delete(oid)
	if wantErr == nil || remote.Msg != wantErr.Error() {
		t.Fatalf("error message: got %q want %q", remote.Msg, wantErr)
	}

	// The engine's own recorder saw the traffic: the Division writes
	// above crossed only the wire.
	w := e.WorkloadSnapshot()
	if w.Total == 0 {
		t.Fatal("engine recorded no workload")
	}
	var div stats.ClassLoad
	for _, cl := range w.Classes {
		if cl.Class == "Division" {
			div = cl
		}
	}
	if div.Inserts != 1 || div.Updates != 1 || div.Deletes != 1 {
		t.Fatalf("engine recorded Division writes %+v, want one insert, update and delete", div)
	}
	if err := srv.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

func sameOIDs(a, b []oodb.OID) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}

// TestServerPipelinedBatch pipelines a run of point queries and checks
// what the dispatcher did with the window: under
// default options requests coalesce, and MaxBatch 1 is per-request
// dispatch — every request its own batch, none riding another's window
// (the control arm ixserved -maxbatch 1 serves).
func TestServerPipelinedBatch(t *testing.T) {
	for _, tc := range []struct {
		name     string
		maxBatch int
	}{
		{"default window", 0},
		{"MaxBatch 1 is per-request dispatch", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, g := newTestEngine(t, 2)
			// One dispatcher makes the coalescing assertion deterministic: with a
			// pool, several dispatchers can keep pace with the reader and serve
			// singletons.
			srv := New(e, Options{Path: g.Path, Dispatchers: 1, MaxBatch: tc.maxBatch})
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Shutdown() //nolint:errcheck
			c, err := netclient.Dial(addr.String())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			probes := genProbes(g, 200)
			want, err := queryEach(e, probes)
			if err != nil {
				t.Fatal(err)
			}
			got, err := pipeline(c, probes)
			if err != nil {
				t.Fatal(err)
			}
			for i := range probes {
				if !sameOIDs(got[i], want[i]) {
					t.Fatalf("probe %d: got %v want %v", i, got[i], want[i])
				}
			}
			requests, batches, coalesced := srv.CoalesceStats()
			if requests < 200 {
				t.Fatalf("server saw %d requests", requests)
			}
			if tc.maxBatch == 1 {
				if coalesced != 0 || batches != requests {
					t.Fatalf("MaxBatch 1: %d batches, %d coalesced for %d requests", batches, coalesced, requests)
				}
			} else if batches >= requests {
				t.Fatalf("no coalescing: %d batches for %d requests", batches, requests)
			}
		})
	}
}

// TestServerErrorIsolation pipelines a poisoned query (unknown class)
// among good ones: the poisoned one must fail with the engine's message
// and the good ones must still answer correctly.
func TestServerErrorIsolation(t *testing.T) {
	e, g := newTestEngine(t, 3)
	c := startTestServer(t, e, Options{Path: g.Path})

	v := g.EndValues[0]
	good1 := c.GoQuery(v, "Person", false)
	bad := c.GoQuery(v, "NoSuchClass", false)
	good2 := c.GoQuery(v, "Division", false)
	want1, _ := e.Query(v, "Person", false)
	want2, _ := e.Query(v, "Division", false)
	_, wantErr := e.Query(v, "NoSuchClass", false)

	got1, err1 := good1.Wait()
	_, errBad := bad.Wait()
	got2, err2 := good2.Wait()
	if err1 != nil || !sameOIDs(got1, want1) {
		t.Fatalf("good1: %v %v", got1, err1)
	}
	if err2 != nil || !sameOIDs(got2, want2) {
		t.Fatalf("good2: %v %v", got2, err2)
	}
	var remote *netclient.RemoteError
	if !errors.As(errBad, &remote) || wantErr == nil || remote.Msg != wantErr.Error() {
		t.Fatalf("bad: got %v, want remote %q", errBad, wantErr)
	}

	// The same three requests as one coalesced window, handed to a
	// dispatcher directly so they provably share it: one bundled write
	// carrying the three answers in order, and every valid request
	// evaluated — and so recorded by the engine — exactly once.
	s := New(e, Options{Path: g.Path})
	d := newDispatcher(s)
	cn := &conn{srv: s, out: make(chan *[]byte, 1)}
	cn.pending.Store(1 << 30) // never reaches zero; out stays open
	window := make([]*task, 3)
	for i, class := range []string{"Person", "NoSuchClass", "Division"} {
		window[i] = &task{conn: cn, class: class, req: wire.Request{ID: uint64(i + 1), Op: wire.OpQuery, Value: v}}
	}
	before := e.WorkloadSnapshot().Total
	d.serveBatch(window)
	if got := e.WorkloadSnapshot().Total - before; got != 2 {
		t.Fatalf("a window of two valid queries and a poisoned one recorded %d queries, want 2", got)
	}
	rest := *<-cn.out
	for i, want := range [][]oodb.OID{want1, nil, want2} {
		var payload []byte
		var resp wire.Response
		var err error
		if payload, rest, err = wire.DecodeFrame(rest); err == nil {
			err = wire.DecodeResponse(payload, &resp)
		}
		if err != nil || resp.ID != uint64(i+1) {
			t.Fatalf("bundled response %d: id %d, %v", i, resp.ID, err)
		}
		if i == 1 {
			if resp.Status != wire.StatusErr || string(resp.Err) != wantErr.Error() {
				t.Fatalf("poisoned request answered status %d %q, want error %q", resp.Status, resp.Err, wantErr)
			}
		} else if resp.Status != wire.StatusOK || !sameOIDs(resp.OIDs, want) {
			t.Fatalf("bundled response %d: status %d %v, want %v", i, resp.Status, resp.OIDs, want)
		}
	}
	if len(rest) != 0 || len(cn.out) != 0 {
		t.Fatalf("window answered in more than one bundled write: %d trailing bytes, %d queued bundles", len(rest), len(cn.out))
	}
}

// TestServerValueCountLimitKeepsConnection: an attribute with more values
// than the codec's 16-bit count holds cannot be framed, so the client
// answers the insert and the update with the limit's error without
// sending them, and the connection keeps serving.
func TestServerValueCountLimitKeepsConnection(t *testing.T) {
	e, g := newTestEngine(t, 5)
	c := startTestServer(t, e, Options{Path: g.Path})
	co, err := c.Insert("Company", map[string][]oodb.Value{"name": {oodb.StrV("wide")}})
	if err != nil {
		t.Fatal(err)
	}
	divs := make([]oodb.Value, 1<<16)
	for i := range divs {
		divs[i] = oodb.RefV(co)
	}
	if _, err := c.Insert("Company", map[string][]oodb.Value{"divs": divs}); err == nil || !strings.Contains(err.Error(), "65535") {
		t.Fatalf("insert of %d values: %v, want the limit's error", len(divs), err)
	}
	if err := c.Update(co, map[string][]oodb.Value{"divs": divs}); err == nil || !strings.Contains(err.Error(), "65535") {
		t.Fatalf("update to %d values: %v, want the limit's error", len(divs), err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("connection after the refused writes: %v", err)
	}
	if _, err := c.Query(oodb.StrV("wide"), "Company", false); err != nil {
		t.Fatalf("query after the refused writes: %v", err)
	}
}

// TestServerRejectsGarbage sends a corrupt frame: the connection must
// die (WAL posture) without taking the server down.
func TestServerRejectsGarbage(t *testing.T) {
	e, g := newTestEngine(t, 4)
	srv := New(e, Options{Path: g.Path})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown() //nolint:errcheck

	c1, err := netclient.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()

	// A raw connection spewing garbage gets dropped.
	garbage, err := netDial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := garbage.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3, 4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	garbage.SetReadDeadline(deadline()) //nolint:errcheck
	if n, err := garbage.Read(buf); err == nil {
		t.Fatalf("server answered garbage with %d bytes", n)
	}
	garbage.Close()

	// The healthy connection still works.
	if err := c1.Ping(); err != nil {
		t.Fatalf("healthy connection broken: %v", err)
	}
}

// TestServerUndecodableRequest sends a well-framed but bogus request
// body: the server answers it with an error addressed by id, then drops
// the connection.
func TestServerUndecodableRequest(t *testing.T) {
	e, g := newTestEngine(t, 5)
	srv := New(e, Options{Path: g.Path})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown() //nolint:errcheck

	nc, err := netDial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	// id 7, unknown opcode 0xEE.
	payload := []byte{0, 0, 0, 0, 0, 0, 0, 7, 0xEE}
	if _, err := nc.Write(appendFrame(nil, payload)); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(deadline()) //nolint:errcheck
	resp, err := readOneResponse(nc)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID != 7 || resp.Status != 1 || !strings.Contains(string(resp.Err), "opcode") {
		t.Fatalf("got %+v", resp)
	}
}

// TestServerStalledClient pins the stall-isolation posture: a client
// that pipelines requests but never reads responses must be killed by
// the server (full response queue or timed-out write) instead of
// wedging its dispatcher — the healthy connection pinned to the same
// dispatcher keeps answering — and Shutdown must still return.
func TestServerStalledClient(t *testing.T) {
	e, _ := newTestEngine(t, 6)
	srv := New(e, Options{
		Dispatchers:  1, // the stalled and healthy connections share it
		QueueDepth:   4,
		WriteTimeout: 200 * time.Millisecond,
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown() //nolint:errcheck

	healthy, err := netclient.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()
	stalled, err := netDial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()

	// Pipeline pings without ever reading: responses pile up in the
	// connection's out queue and the socket buffers until the server
	// declares the connection dead and closes it, which surfaces here as
	// a write error. The byte amplification is ~1:1, so the buffers fill
	// after bounded input; the cap is a backstop, not the exit path.
	var killed bool
	ping := appendFrame(nil, wire.AppendPing(nil, 1))
	for i := 0; i < 1<<20 && !killed; i++ {
		stalled.SetWriteDeadline(deadline()) //nolint:errcheck
		if _, err := stalled.Write(ping); err != nil {
			killed = true
		}
	}
	if !killed {
		t.Fatal("server never killed the stalled connection")
	}

	// The dispatcher the stalled connection was pinned to still serves.
	if err := healthy.Ping(); err != nil {
		t.Fatalf("healthy connection starved by stalled one: %v", err)
	}

	// Shutdown must not hang on the stalled connection's remains.
	done := make(chan error, 1)
	go func() { done <- srv.Shutdown() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown wedged on stalled connection")
	}
}

// probe is one point query: A_n = v for class, its subclasses included
// when hier is set.
type probe struct {
	v     oodb.Value
	class string
	hier  bool
}

// genProbes builds n point probes cycling classes and values.
func genProbes(g *gen.Generated, n int) []probe {
	classes := []string{"Person", "Division"}
	probes := make([]probe, n)
	for i := range probes {
		probes[i] = probe{g.EndValues[i%len(g.EndValues)], classes[i%len(classes)], i%3 == 0}
	}
	return probes
}

// queryEach answers probes through e.Query one by one, in order,
// stopping at the first error.
func queryEach(e *engine.Engine, probes []probe) ([][]oodb.OID, error) {
	out := make([][]oodb.OID, len(probes))
	for i, pb := range probes {
		var err error
		if out[i], err = e.Query(pb.v, pb.class, pb.hier); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// pipeline puts every probe in flight through c.GoQuery before awaiting
// the first answer, so the server can answer them in one window, and
// returns the answers in probe order; the first error in probe order
// wins.
func pipeline(c *netclient.Client, probes []probe) ([][]oodb.OID, error) {
	calls := make([]*netclient.Call, len(probes))
	for i, pb := range probes {
		calls[i] = c.GoQuery(pb.v, pb.class, pb.hier)
	}
	out := make([][]oodb.OID, len(probes))
	for i, call := range calls {
		var err error
		if out[i], err = call.Wait(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func netDial(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }

func deadline() time.Time { return time.Now().Add(2 * time.Second) }

func appendFrame(dst, payload []byte) []byte { return wire.AppendFrame(dst, payload) }

// readOneResponse reads and decodes a single response frame.
func readOneResponse(r io.Reader) (wire.Response, error) {
	var resp wire.Response
	buf, err := wire.ReadFrame(r, nil)
	if err != nil {
		return resp, err
	}
	err = wire.DecodeResponse(buf, &resp)
	return resp, err
}
