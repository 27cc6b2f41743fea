// Command ixselect selects the optimal index configuration for a path from
// a JSON specification of the schema, statistics and workload:
//
//	ixselect -spec path.json        # read a spec file
//	ixselect -example               # print the Figure 7 spec as a template
//	ixselect -example | ixselect    # spec from stdin
//	ixselect -json < path.json      # machine-readable result
//
// The output is the cost matrix (per-subpath minimum starred), the optimal
// configuration, the comparison against the best whole-path single index
// and the branch-and-bound trace. The spec may restrict or extend the
// organization columns ("MX","MIX","NIX","NONE","PX","NX") and declare
// range-predicate workloads via "selectivity".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/spec"
)

func usage() {
	w := flag.CommandLine.Output()
	fmt.Fprintln(w, "ixselect selects the optimal index configuration for a path from a JSON")
	fmt.Fprintln(w, "specification of the schema, statistics and workload (Section 5 of the paper).")
	fmt.Fprintln(w, "\nUsage:\n\n\tixselect [flags] < spec.json")
	fmt.Fprintln(w, "\nTypical invocations:")
	fmt.Fprintln(w, "\tixselect -example            print the Figure 7 spec as a template")
	fmt.Fprintln(w, "\tixselect -spec path.json     select from a spec file")
	fmt.Fprintln(w, "\tixselect -example | ixselect pipe the template through selection")
	fmt.Fprintln(w, "\tixselect -json < path.json   machine-readable configuration")
	fmt.Fprintln(w, "\nThe spec may restrict or extend the organization columns")
	fmt.Fprintln(w, `("MX","MIX","NIX","NONE","PX","NX") and declare range-predicate workloads`)
	fmt.Fprintln(w, `via "selectivity". The report shows the cost matrix with each subpath's`)
	fmt.Fprintln(w, "minimum starred, the optimal configuration, the saving over the best")
	fmt.Fprintln(w, "whole-path single index, and the branch-and-bound trace.")
	fmt.Fprintln(w, "\nFlags:")
	flag.PrintDefaults()
}

func main() {
	specPath := flag.String("spec", "", "JSON spec file (default: stdin)")
	example := flag.Bool("example", false, "print the Figure 7 spec as a template and exit")
	asJSON := flag.Bool("json", false, "emit the result as JSON instead of a report")
	flag.Usage = usage
	flag.Parse()

	if *example {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(spec.Example()); err != nil {
			fatal(err)
		}
		return
	}
	var in io.Reader = os.Stdin
	if *specPath != "" {
		f, err := os.Open(*specPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	s, err := spec.Parse(in)
	if err != nil {
		fatal(err)
	}
	ps, orgs, err := s.Build()
	if err != nil {
		fatal(err)
	}
	res, m, err := core.Select(ps, orgs)
	if err != nil {
		fatal(err)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(spec.EncodeConfiguration(res.Best, ps.Path)); err != nil {
			fatal(err)
		}
		return
	}
	report(ps, m, res)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ixselect:", err)
	os.Exit(1)
}

func report(ps *model.PathStats, m *core.Matrix, res core.Result) {
	fmt.Printf("Path: %s (length %d)\n\n", ps.Path, ps.Len())
	header := []string{"subpath"}
	for _, org := range m.Orgs {
		header = append(header, org.String())
	}
	t := experiments.NewTable("Cost matrix (per-subpath minimum starred)", header...)
	for _, ab := range m.Rows() {
		name := experiments.SubpathName(ps, ab[0], ab[1])
		_, minV := m.MinCost(ab[0], ab[1])
		row := []interface{}{name}
		for _, org := range m.Orgs {
			v, _ := m.Cell(ab[0], ab[1], org)
			cell := fmt.Sprintf("%.2f", v)
			if v == minV {
				cell += " *"
			}
			row = append(row, cell)
		}
		t.AddRow(row...)
	}
	fmt.Println(t.Render())
	fmt.Printf("Optimal index configuration: %s\n", res.Best)
	for _, a := range res.Best.Assignments {
		sp, _ := ps.Path.SubPath(a.A, a.B)
		v, _ := m.Cell(a.A, a.B, a.Org)
		fmt.Printf("  %-40s %-4s cost %.2f\n", sp, a.Org, v)
	}
	fmt.Printf("Total processing cost: %.2f\n", res.Best.Cost)
	wholeOrg, whole := m.MinCost(1, ps.Len())
	fmt.Printf("Best whole-path single index: %s at %.2f  (split saves %.1f%%)\n",
		wholeOrg, whole, 100*(whole-res.Best.Cost)/whole)
	// Select serves the dynamic program's answer; the paper's trace is
	// that of Opt_Ind_Con on the same matrix.
	bnb := m.OptIndCon().Stats
	fmt.Printf("Configurations evaluated: %d of %d (branch-and-bound pruned %d prefixes)\n",
		bnb.Evaluated, bnb.TotalConfigurations, bnb.Pruned)
}
