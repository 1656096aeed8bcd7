// Command perfbench is the repository's benchmark: it runs one of four
// workloads against the simulator through its public entry points and
// prints every metric by name and unit. The last line of standard output
// is the result object
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {…}}
//
// With -trace 0 it holds the end-to-end metrics, measured with tracing
// off; with -trace 1 the per-layer metrics of a separate traced run,
// whose spans are also written under spansDir. Run it from the
// repository root. BENCHMARK.json there and METRICS.md here document every
// workload and metric.
//
//	bash perfbench/run.sh --workload compute --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is a run's result: output checks and named metrics.
type report struct {
	tally
	metrics map[string]metric
}

func (r *report) set(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = make(map[string]metric)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

var workloads = []string{"compute", "ipc", "parallel-mix", "sessions"}

func main() {
	workload := flag.String("workload", "", "workload: compute, ipc, parallel-mix or sessions")
	seed := flag.Int64("seed", 1, "seed the workload inputs are drawn from")
	seconds := flag.Int("seconds", 10, "how long the run measures")
	traced := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *traced); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds, traced int) error {
	known := false
	for _, w := range workloads {
		known = known || w == workload
	}
	if !known {
		return fmt.Errorf("unknown -workload %q (want one of %v)", workload, workloads)
	}
	if seconds < 1 || traced < 0 || traced > 1 {
		return fmt.Errorf("-seconds must be positive and -trace 0 or 1")
	}
	// The host header leads every report: figures from a host running
	// the simulator on one processor say nothing about parallel speed.
	header, err := json.Marshal(struct {
		HostCPUs   int    `json:"host_cpus"`
		GOMAXPROCS int    `json:"GOMAXPROCS"`
		Degenerate bool   `json:"degenerate"`
		Go         string `json:"go"`
		Workload   string `json:"workload"`
		Seed       int64  `json:"seed"`
		Seconds    int    `json:"seconds"`
		Trace      int    `json:"trace"`
	}{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.GOMAXPROCS(0) == 1, runtime.Version(), workload, seed, seconds, traced})
	if err != nil {
		return err
	}
	fmt.Println(string(header))

	budget := time.Duration(seconds) * time.Second
	var rep *report
	switch {
	case workload == "sessions" && traced == 0:
		rep, err = measureSessions(seed, budget)
	case workload == "sessions":
		rep, err = traceSessions(seed, budget)
	case traced == 0:
		rep, err = measureBatch(workload, seed, budget)
	default:
		rep, err = traceBatch(workload, seed, budget)
	}
	if err != nil {
		return err
	}
	for _, why := range rep.why {
		fmt.Fprintln(os.Stderr, "check failed:", why)
	}
	for _, name := range sortedKeys(rep.metrics) {
		m := rep.metrics[name]
		fmt.Printf("%-32s %16.6g %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   rep.failed == 0,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   rep.metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
