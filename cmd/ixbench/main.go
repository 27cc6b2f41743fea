// Command ixbench regenerates the paper's figures and tables plus the
// measured experiments documented in DESIGN.md. It is a loop over
// experiments.Registry (`ixbench -h` lists the modes):
//
//	ixbench -run all              # everything
//	ixbench -run fig8             # one paper reproduction (Figures 7/8)
//	ixbench -run net -ops 300     # one timed experiment, quick
//
// Every timed experiment (E2–E9) measures each cell as a warm-up pass
// plus three passes and reports medians; each run appends one
// self-describing JSON line — experiment, commit, host, seed, ops,
// cells, headline ratios — to the history file named by -out.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "ixbench:", err)
		os.Exit(1)
	}
}

// run is the whole command: parse args, run the selected registry
// entries, print each rendering to stdout, append each timed report to
// the history.
func run(args []string, stdout io.Writer) error {
	var names []string
	for _, e := range experiments.Registry {
		names = append(names, e.Name)
	}
	fs := flag.NewFlagSet("ixbench", flag.ContinueOnError)
	which := fs.String("run", "all", "experiment to run: all|"+strings.Join(names, "|"))
	var p experiments.Params
	fs.Int64Var(&p.Seed, "seed", 42, "random seed for generated databases and matrices")
	fs.IntVar(&p.MaxN, "maxn", 10, "maximum path length for the complexity and sweep reproductions")
	fs.IntVar(&p.Trials, "trials", 20, "random matrices per length in the complexity reproduction")
	fs.IntVar(&p.Ops, "ops", 0, "operation count for the timed experiments (0: each experiment's own default)")
	out := fs.String("out", "BENCH_experiments.jsonl", "history file: every timed experiment run appends one JSON line")
	fs.Usage = func() {
		w := fs.Output()
		fmt.Fprintln(w, "ixbench regenerates the paper's figures and the repository's measured")
		fmt.Fprintln(w, "experiments (see DESIGN.md for the experiment index).")
		fmt.Fprintln(w, "\nUsage:\n\n\tixbench [-run mode] [flags]\n\nModes:")
		fmt.Fprintf(w, "\t%-12s %s\n", "all", "run every experiment below")
		for _, e := range experiments.Registry {
			ops := ""
			if e.DefaultOps > 0 {
				ops = fmt.Sprintf("; default -ops %d", e.DefaultOps)
			}
			fmt.Fprintf(w, "\t%-12s %s (%s%s)\n", e.Name, e.Title, e.ID, ops)
		}
		fmt.Fprintln(w, "\nFlags:")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}

	ran := false
	for _, e := range experiments.Registry {
		if *which != "all" && *which != e.Name {
			continue
		}
		ran = true
		rule := strings.Repeat("=", 72)
		fmt.Fprintf(stdout, "%s\n%s — %s\n%s\n", rule, e.ID, e.Title, rule)
		rep, err := e.Run(p)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, rep.Render())
		if timed, ok := rep.(experiments.Report); ok {
			if err := timed.AppendTo(*out); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "appended %s to %s\n", e.ID, *out)
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q (modes: all, %s)", *which, strings.Join(names, ", "))
	}
	return nil
}
