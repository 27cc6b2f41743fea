package experiments

import (
	"os"
	"runtime"
	"runtime/debug"
)

// HostInfo pins a history line to the machine shape it ran on.
// Throughput and latency numbers are meaningless without the core count
// and scheduler width behind them; every line of BENCH_experiments.jsonl
// carries this block so a difference between two lines can first be
// checked for a host change.
type HostInfo struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// PageSize is the OS memory page size in bytes — context for the
	// pager-level pages/op figures, which use the model's page size, not
	// this one.
	PageSize int `json:"os_page_size"`
}

// CollectHost snapshots the current process's host shape.
func CollectHost() HostInfo {
	return HostInfo{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		PageSize:   os.Getpagesize(),
	}
}

// Commit returns the revision the running binary was built from, read
// from the build's VCS stamp, with "+dirty" appended when the working
// tree had uncommitted changes; "unknown" when the build carries no
// stamp (go run, go test, or a build outside a checkout).
func Commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	if rev == "unknown" {
		return rev
	}
	return rev + dirty
}
