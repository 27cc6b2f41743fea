package main

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/netserver"
)

// TestStressAgainstServer runs the stress fleet, pipelined and with -sync,
// against an in-process server over a generated Figure 7 engine whose
// served path is wire path id 1, as ixserved's is. Every
// request must be answered without a server-side error, and the report
// must keep its three lines.
func TestStressAgainstServer(t *testing.T) {
	g, err := gen.Generate(model.Figure7Stats(), 0.002, 42)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Configuration{Assignments: []core.Assignment{{A: 1, B: g.Path.Len(), Org: cost.NIX}}}
	e, err := engine.New(g.Store, g.Path, cfg, model.PaperParams().PageSize, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := netserver.New(e, netserver.Options{Path: g.Path})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := srv.Shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	const conns, ops = 4, 150
	summary := regexp.MustCompile(`^  (\d+) ops in \S+s = \d+ ops/sec \((\d+) server-side errors\)$`)
	for _, syncMode := range []bool{false, true} {
		t.Run(fmt.Sprintf("sync=%v", syncMode), func(t *testing.T) {
			reqs0, _, _ := srv.CoalesceStats()
			preds0, _ := srv.PredicateStats()
			rep, err := stress(addr.String(), conns, ops, 16, 0.2, 0.3, 100, 1, syncMode)
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSuffix(rep, "\n"), "\n")
			if len(lines) != 3 || !strings.HasPrefix(lines[0], "ixstress: ") || !strings.HasPrefix(lines[2], "  latency p50 ") {
				t.Fatalf("report is not three lines:\n%s", rep)
			}
			m := summary.FindStringSubmatch(lines[1])
			if m == nil {
				t.Fatalf("unparsable summary line %q", lines[1])
			}
			if n, _ := strconv.Atoi(m[1]); n != conns*ops {
				t.Fatalf("report counts %d ops, want %d", n, conns*ops)
			}
			if m[2] != "0" {
				t.Fatalf("%s server-side errors:\n%s", m[2], rep)
			}
			reqs1, _, _ := srv.CoalesceStats()
			preds1, _ := srv.PredicateStats()
			if got := reqs1 - reqs0; got != conns*ops {
				t.Fatalf("server answered %d requests, want %d", got, conns*ops)
			}
			if preds1 == preds0 {
				t.Fatal("no predicate-tree request reached the server at pred 0.3")
			}
		})
	}
	// The write arm rotates insert, update and delete, and the engine
	// counted each kind.
	for _, cl := range e.WorkloadSnapshot().Classes {
		if cl.Class == "Division" && (cl.Inserts == 0 || cl.Updates == 0 || cl.Deletes == 0) {
			t.Fatalf("engine recorded Division writes %+v, want inserts, updates and deletes", cl)
		}
	}
}
