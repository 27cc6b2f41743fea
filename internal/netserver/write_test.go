package netserver

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/netclient"
	"repro/internal/oodb"
)

// applyCounter is an engine backend that records the size of every Apply
// call; the first call waits for gate, so that requests sent meanwhile
// queue up into the dispatcher's next window.
type applyCounter struct {
	*engine.Engine
	gate  chan struct{}
	mu    sync.Mutex
	sizes []int
}

func (b *applyCounter) Apply(ws []exec.Write) []error {
	b.mu.Lock()
	b.sizes = append(b.sizes, len(ws))
	first := len(b.sizes) == 1
	b.mu.Unlock()
	if first {
		<-b.gate
	}
	return b.Engine.Apply(ws)
}

func (b *applyCounter) calls() []int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]int(nil), b.sizes...)
}

// waitFor polls cond for up to ten seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestMixedWriteWindowIsOneApply queues inserts, updates and deletes from
// three connections behind a write the backend holds, then lets the
// window run: its writes of every kind must reach the backend as one
// Apply, and every answer — inserted OIDs, errors — equal an embedded
// twin's, which takes the same writes one by one in the order the window
// queued them.
func TestMixedWriteWindowIsOneApply(t *testing.T) {
	e, g := newTestEngine(t, 3)
	twin, _ := newTestEngine(t, 3)
	be := &applyCounter{Engine: e, gate: make(chan struct{})}
	srv := New(be, Options{Path: g.Path, Dispatchers: 1})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown() //nolint:errcheck
	clients := make([]*netclient.Client, 3)
	for i := range clients {
		if clients[i], err = netclient.Dial(addr.String()); err != nil {
			t.Fatal(err)
		}
		defer clients[i].Close()
	}
	persons, vehicles := g.ByClass["Person"], g.ByClass["Vehicle"]
	relink := func(i int) map[string][]oodb.Value {
		return map[string][]oodb.Value{"owns": {oodb.RefV(vehicles[i%len(vehicles)])}}
	}
	send := func(c *netclient.Client, w exec.Write) *netclient.Call {
		var call *netclient.Call
		switch w.Kind {
		case exec.WriteInsert:
			call = c.GoInsert(w.Class, w.Attrs)
		case exec.WriteDelete:
			call = c.GoDelete(w.OID)
		default:
			call = c.GoUpdate(w.OID, w.Attrs)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		return call
	}

	opener := exec.Write{OID: persons[0], Attrs: relink(1)}
	first := send(clients[0], opener)
	waitFor(t, "the opening write to reach the backend", func() bool { return len(be.calls()) == 1 })
	var window []exec.Write
	var calls []*netclient.Call
	for i := 0; i < 12; i++ {
		w := exec.Write{Kind: exec.WriteInsert, Class: "Person", Attrs: relink(i)}
		switch i % 3 {
		case 1:
			w = exec.Write{OID: persons[1+i], Attrs: relink(i + 2)}
		case 2:
			w = exec.Write{Kind: exec.WriteDelete, OID: persons[i-1]}
		}
		if i == 11 {
			w.OID = 1 << 40 // a missing object fails alone
		}
		window = append(window, w)
		calls = append(calls, send(clients[i%len(clients)], w))
		waitFor(t, "the write to queue", func() bool { return len(srv.disps[0].tasks) == i+1 })
	}
	close(be.gate)
	if _, err := first.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := twin.Update(opener.OID, opener.Attrs); err != nil {
		t.Fatal(err)
	}
	for i, w := range window {
		got, err := calls[i].Wait()
		var want []oodb.OID
		var twinErr error
		switch w.Kind {
		case exec.WriteInsert:
			var oid oodb.OID
			if oid, twinErr = twin.Insert(w.Class, w.Attrs); twinErr == nil {
				want = []oodb.OID{oid}
			}
		case exec.WriteDelete:
			twinErr = twin.Delete(w.OID)
		default:
			twinErr = twin.Update(w.OID, w.Attrs)
		}
		if (err == nil) != (twinErr == nil) || err != nil && !strings.Contains(err.Error(), twinErr.Error()) || !reflect.DeepEqual(got, want) {
			t.Fatalf("window write %d %+v: served (%v, %v), embedded (%v, %v)", i, w, got, err, want, twinErr)
		}
	}
	if got := be.calls(); !reflect.DeepEqual(got, []int{1, len(window)}) {
		t.Fatalf("Apply calls carried %v writes, want [1 %d]: the window's writes were split", got, len(window))
	}
	if e.Store().Fingerprint() != twin.Store().Fingerprint() {
		t.Fatal("served and embedded stores diverged")
	}
}
