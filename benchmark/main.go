// Command benchmark is the repository's single benchmark: five named
// workloads over the whole stack, end-to-end metrics with bounds, and a
// traced run that reconciles a request's cost layer by layer. See
// README.md; BENCHMARK.json at the repository root lists every workload
// and metric by name. Run it through run.sh, from any directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
)

var workloads = []workload{
	{name: "net_point", setup: setupNetPoint},
	{name: "embed_path", setup: setupEmbedPath},
	{name: "net_pred", setup: setupNetPred},
	{name: "durable_write", setup: setupDurableWrite},
	{name: "advise", setup: setupAdvise},
}

// gcPercent is the collector setting the benchmark process runs with,
// four times Go's default heap growth. At the default, collector cycles
// touch between one and two requests in a hundred of the network
// workloads, so their p99 sits on the edge of the cycles and flips from
// run to run; with fewer cycles it sits clear of them and repeats.
const gcPercent = 400

func main() {
	debug.SetGCPercent(gcPercent)
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name    = flag.String("workload", "", "run one workload and end with the result as one JSON line; default: run all, untraced and traced")
		seed    = flag.Int64("seed", 42, "seed of the generated data and op sequences")
		seconds = flag.Int("seconds", 0, "seconds one run measures; default: run_seconds of BENCHMARK.json")
		trace   = flag.Int("trace", 0, "with -workload: 0 measures the end-to-end metrics, 1 the per-layer metrics")
		compare = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
		history = flag.Bool("append", false, "append the run to history.jsonl")
	)
	flag.Parse()
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(spec, flag.Arg(0), flag.Arg(1))
	}
	if *seconds <= 0 {
		*seconds = spec.RunSeconds
	}
	p := productionParams(*seed, *seconds)
	if err := os.MkdirAll(p.out, 0o755); err != nil {
		return err
	}
	fmt.Printf("load: closed loop, %d clients from this process; network workloads over TCP loopback to an in-process server, %d requests in flight per connection\n", numClients(), netDepth)

	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		res, err := runWorkload(w, spec, p, *trace == 1)
		if err != nil {
			return err
		}
		printResult(res)
		if err := printContractLine(res); err != nil {
			return err
		}
		if res.Failed > 0 {
			return fmt.Errorf("%d ops failed or answered wrongly", res.Failed)
		}
		return nil
	}

	full := fullRun{Host: hostFingerprint(), Commit: gitCommit(), Seed: *seed, Seconds: *seconds}
	failed := int64(0)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(w, spec, p, traced)
			if err != nil {
				return err
			}
			printResult(res)
			full.Results = append(full.Results, res)
			failed += res.Failed
		}
	}
	out := filepath.Join(p.out, fmt.Sprintf("result-seed%d.json", *seed))
	if err := writeJSON(out, full); err != nil {
		return err
	}
	fmt.Println("results:", out)
	if *history {
		if err := appendHistory(full); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d ops failed or answered wrongly", failed)
	}
	return nil
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// printResult prints every metric of a run by name, with its unit.
func printResult(res result) {
	mode := "end-to-end"
	if res.Traced {
		mode = "per-layer"
	}
	fmt.Printf("\n== %s (%s)\n", res.Workload, mode)
	if s, ok := res.Sizes["pool_pages"]; ok {
		fmt.Printf("data: %d objects, %d store pages, %d pool pages (the working set does not fit)\n", res.Sizes["objects"], res.Sizes["store_pages"], s)
	} else {
		fmt.Printf("data: %d objects, %d store pages, unbuffered in-memory pager (store hit rate is 0 by construction)\n", res.Sizes["objects"], res.Sizes["store_pages"])
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		if m.N > 0 {
			fmt.Printf("%-34s %14.4f %-6s median of %d, quartiles %.4f .. %.4f\n", n, m.Value, m.Unit, m.N, m.Q1, m.Q3)
		} else {
			fmt.Printf("%-34s %14.4f %s\n", n, m.Value, m.Unit)
		}
	}
	frac := 0.0
	if res.Attempted > 0 {
		frac = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Printf("%-34s %14.6f ratio  (%d failed of %d attempted)\n", "fail_frac", frac, res.Failed, res.Attempted)
	if res.Recon != nil {
		fmt.Println("reconciliation:", res.Recon)
		fmt.Printf("trace: out/trace-%s.json\n", res.Workload)
	}
}

// printContractLine ends the output with the one JSON object the driver
// reads.
func printContractLine(res result) error {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]mv{}}
	for n, m := range res.Metrics {
		line.Metrics[n] = mv{m.Value, m.Unit}
	}
	raw, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(raw))
	return nil
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
