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
// organization columns ("MX","MIX","NIX","NONE","PX","NX"), declare
// range-predicate workloads via "selectivity", and give a class a "rho":
// the frequency of its range queries beside its equality "alpha".
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/spec"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "ixselect:", err)
		os.Exit(1)
	}
}

// run is the whole command: parse args, read the spec from -spec or stdin,
// select, and print the report or the JSON configuration to stdout.
func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("ixselect", flag.ContinueOnError)
	specPath := fs.String("spec", "", "JSON spec file (default: stdin)")
	example := fs.Bool("example", false, "print the Figure 7 spec as a template and exit")
	asJSON := fs.Bool("json", false, "emit the result as JSON instead of a report")
	fs.Usage = func() {
		w := fs.Output()
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
		fmt.Fprintln(w, `via "selectivity", and a class's "rho" is the frequency of its range queries`)
		fmt.Fprintln(w, `beside its equality "alpha". The report shows the cost matrix with each subpath's`)
		fmt.Fprintln(w, "minimum starred, the optimal configuration, the saving over the best")
		fmt.Fprintln(w, "whole-path single index, and the branch-and-bound trace.")
		fmt.Fprintln(w, "\nFlags:")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}

	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if *example {
		return enc.Encode(spec.Example())
	}
	in := stdin
	if *specPath != "" {
		f, err := os.Open(*specPath)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	s, err := spec.Parse(in)
	if err != nil {
		return err
	}
	ps, orgs, err := s.Build()
	if err != nil {
		return err
	}
	res, m, err := core.Select(ps, orgs)
	if err != nil {
		return err
	}
	if *asJSON {
		return enc.Encode(spec.EncodeConfiguration(res.Best, ps.Path))
	}
	report(stdout, ps, m, res)
	return nil
}

func report(w io.Writer, ps *model.PathStats, m *core.Matrix, res core.Result) {
	fmt.Fprintf(w, "Path: %s (length %d)\n\n", ps.Path, ps.Len())
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
	fmt.Fprintln(w, t.Render())
	fmt.Fprintf(w, "Optimal index configuration: %s\n", res.Best)
	for _, a := range res.Best.Assignments {
		sp, _ := ps.Path.SubPath(a.A, a.B)
		v, _ := m.Cell(a.A, a.B, a.Org)
		fmt.Fprintf(w, "  %-40s %-4s cost %.2f\n", sp, a.Org, v)
	}
	fmt.Fprintf(w, "Total processing cost: %.2f\n", res.Best.Cost)
	wholeOrg, whole := m.MinCost(1, ps.Len())
	saves := 0.0 // a workload that costs nothing has nothing to save
	if whole > 0 {
		saves = 100 * (whole - res.Best.Cost) / whole
	}
	fmt.Fprintf(w, "Best whole-path single index: %s at %.2f  (split saves %.1f%%)\n", wholeOrg, whole, saves)
	// Select serves the dynamic program's answer; the paper's trace is
	// that of Opt_Ind_Con on the same matrix.
	bnb := m.OptIndCon().Stats
	fmt.Fprintf(w, "Configurations evaluated: %d of %d (branch-and-bound pruned %d prefixes)\n",
		bnb.Evaluated, bnb.TotalConfigurations, bnb.Pruned)
}
