package experiments

// report.go holds the boilerplate every bench runner shares: the host
// header that leads each JSON artifact and the report writer. Benchmarks
// differ in what they measure; they must not differ in how honestly they
// describe the host that measured it.

import (
	"encoding/json"
	"os"
	"runtime"
)

// HostInfo leads every bench artifact. Degenerate is always present
// (never omitted): on a GOMAXPROCS=1 host every parallel wall-clock
// ratio measures the host, not the backend, and a reader must be able
// to tell without forensics.
type HostInfo struct {
	HostCPUs   int    `json:"host_cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Degenerate bool   `json:"degenerate"`
	GoVersion  string `json:"go_version"`
}

// hostInfo snapshots the measuring host.
func hostInfo() HostInfo {
	return HostInfo{
		HostCPUs:   runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Degenerate: runtime.GOMAXPROCS(0) == 1,
		GoVersion:  runtime.Version(),
	}
}

// writeReport marshals rep as indented JSON with a trailing newline —
// the artifact format CI compares with cmp — and writes it to path.
func writeReport(path string, rep any) error {
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	return os.WriteFile(path, out, 0o644)
}
