// Selftuning demonstrates the lifecycle engine closing the paper's loop
// without an administrator: the database observes its own workload,
// detects that the traffic has drifted away from what the active index
// configuration was selected for, re-runs the Section 5 selection on
// refreshed statistics in the background, and swaps in the new optimum —
// rebuilding only the subpath indexes that actually changed, while
// queries keep flowing.
package main

import (
	"fmt"
	"log"

	ooindex "repro"
)

func main() {
	// A synthetic database shaped like Figure 7, plus the workload the
	// administrator *assumes*: reporting traffic, almost all queries.
	design := ooindex.Figure7Stats()
	g, err := ooindex.Generate(design, 0.01, 7)
	if err != nil {
		log.Fatal(err)
	}
	assumed, err := ooindex.CollectStats(g.Store, g.Path, ooindex.PaperParams())
	if err != nil {
		log.Fatal(err)
	}
	// Reporting: queries arrive against Person, with a trickle of
	// Division churn.
	mustSetLoad(assumed, 1, "Person", ooindex.Load{Alpha: 1})
	mustSetLoad(assumed, 4, "Division", ooindex.Load{Beta: 0.02, Gamma: 0.02})
	initial, _, err := ooindex.Select(assumed, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Database: %d objects over %s\n", g.Store.Len(), g.Path)
	fmt.Printf("Assumed workload: query-heavy -> initial configuration %v\n\n", initial.Best)

	// Open the engine with automatic tuning: check drift every 64
	// operations, reconfigure at total-variation 0.25.
	db, err := ooindex.OpenWithOptions(g.Store, g.Path, initial.Best, ooindex.PaperParams().PageSize, ooindex.EngineOptions{
		Params:     ooindex.PaperParams(),
		Assumed:    assumed,
		MinOps:     64,
		CheckEvery: 64,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Phase 1: the traffic matches the assumption. No drift, no swap.
	for i := 0; i < 300; i++ {
		if _, err := db.Query(g.EndValues[i%len(g.EndValues)], "Person", false); err != nil {
			log.Fatal(err)
		}
	}
	db.Quiesce()
	fmt.Printf("Phase 1 (reporting): %d ops served, drift %.2f, swaps %d\n",
		db.WorkloadSnapshot().Total, db.Drift(), db.Swaps())

	// Phase 2: the application changes — ingest traffic, all updates.
	// The recorder sees the flip, drift crosses the threshold, and the
	// background controller re-selects and swaps.
	for i := 0; i < 300; i++ {
		oid, err := db.Insert("Division", map[string][]ooindex.Value{
			"name": {g.EndValues[i%len(g.EndValues)]},
		})
		if err != nil {
			log.Fatal(err)
		}
		if i%2 == 0 {
			if err := db.Delete(oid); err != nil {
				log.Fatal(err)
			}
		}
	}
	db.Quiesce()
	fmt.Printf("Phase 2 (ingest):    drift detected, swaps %d\n", db.Swaps())
	if at, ok := db.LastAutoTune(); ok && at.Err == nil {
		rep := at.Report
		fmt.Printf("  reconfigured %v\n            -> %v\n", rep.From, rep.To)
		fmt.Printf("  at drift %.2f; %d structure(s) reused, %d rebuilt\n", rep.Drift, rep.Reused, rep.Built)
	}

	// The engine is now tuned to what the system actually serves: a
	// fresh advice confirms the active configuration.
	adv, err := db.Advise()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nPost-tune advice: configuration change recommended: %v\n", adv.Changed)
	fmt.Printf("Active configuration: %v\n", db.Config())
}

func mustSetLoad(ps *ooindex.PathStats, level int, class string, load ooindex.Load) {
	if err := ps.SetLoad(level, class, load); err != nil {
		log.Fatal(err)
	}
}
