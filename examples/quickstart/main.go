// Quickstart: select the optimal index configuration for the paper's
// Example 5.1 path with three calls — statistics in, configuration out.
package main

import (
	"fmt"
	"log"

	ooindex "repro"
)

func main() {
	// The Figure 7 statistics for Person.owns.man.divs.name: per-class
	// cardinalities, distinct values, fan-outs and the workload triplets.
	ps := ooindex.Figure7Stats()

	// Run the selection algorithm: cost matrix, per-subpath minima, and
	// the search over all recombinations.
	res, matrix, err := ooindex.Select(ps, nil)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("Path: %s\n\n", ps.Path)
	fmt.Println("Optimal index configuration:")
	for _, a := range res.Best.Assignments {
		sp, _ := ps.Path.SubPath(a.A, a.B)
		cost, _ := matrix.Cell(a.A, a.B, a.Org)
		fmt.Printf("  index %-22s with %-4s (cost %6.2f page accesses)\n", sp, a.Org, cost)
	}
	fmt.Printf("\nTotal processing cost: %.2f page accesses per workload unit\n", res.Best.Cost)

	// Compare against indexing the whole path with a single organization.
	org, whole := matrix.MinCost(1, ps.Len())
	fmt.Printf("Best whole-path index:  %s at %.2f (splitting saves %.0f%%)\n",
		org, whole, 100*(whole-res.Best.Cost)/whole)
	// Select returns the dynamic program's optimum; Opt_Ind_Con, the
	// paper's branch-and-bound, finds the same one and reports its trace.
	bnb := matrix.OptIndCon().Stats
	fmt.Printf("Search: evaluated %d of %d configurations (pruned %d prefixes)\n",
		bnb.Evaluated, bnb.TotalConfigurations, bnb.Pruned)
}
