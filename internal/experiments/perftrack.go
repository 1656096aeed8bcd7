package experiments

// perftrack.go is the perf-trajectory tracker behind `imaxbench
// -perf-track`: it reads the committed BENCH_*.json artifacts (the
// baselines), reads freshly generated artifacts from another directory,
// and hard-fails when any tracked headline metric regresses more than
// the tolerance against its committed value.
//
// Tracked metrics are chosen to be comparable across hosts and commits:
//
//   - within-backend wall-clock ratios from the bench matrix
//     (cache_speedup_serial, trace_speedup_serial) — both sides of each
//     ratio come from the same process on the same host, so the ratio
//     transfers;
//   - deterministic counters from the matrix (structural_commit_rate,
//     alloc_throughput_virtual) — functions of the workload alone;
//   - virtual-time throughputs (scale virtual_rps, shard speedup_4x1)
//     — deterministic functions of the scenario config and seed. Their
//     keys carry the session population, so a down-scaled smoke run
//     never gets compared against a full-scale committed artifact: the
//     keys simply don't meet.
//
// Each key comes from exactly one artifact: BENCH_matrix.json,
// BENCH_scale.json or BENCH_shard.json.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// PerfDefaultTolerance is the fraction a tracked metric may fall below
// its committed baseline before the tracker fails.
const PerfDefaultTolerance = 0.10

// PerfMetric is one tracked headline metric after comparison.
type PerfMetric struct {
	Key      string  `json:"key"`
	Baseline float64 `json:"baseline"`
	// Fresh is the freshly measured value; HasFresh is false when no
	// fresh artifact tracks this key (the metric is reported, not
	// judged).
	Fresh    float64 `json:"fresh"`
	HasFresh bool    `json:"has_fresh"`
	// Regressed is set when Fresh < (1-tolerance) * Baseline.
	Regressed bool `json:"regressed"`
}

// PerfTrackReport is the tracker's result.
type PerfTrackReport struct {
	BaselineDir string       `json:"baseline_dir"`
	FreshDir    string       `json:"fresh_dir"`
	Tolerance   float64      `json:"tolerance"`
	Metrics     []PerfMetric `json:"metrics"`
	Regressions int          `json:"regressions"`
}

// perfExtract pulls every tracked metric out of the BENCH_*.json files
// in dir. Missing files are fine — a fresh directory holds only the
// artifacts its run generated — but a file that exists and does not
// parse is an error.
func perfExtract(dir string) (map[string]float64, error) {
	metrics := make(map[string]float64)
	load := func(name string, into any) (bool, error) {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if os.IsNotExist(err) {
			return false, nil
		}
		if err != nil {
			return false, err
		}
		if err := json.Unmarshal(b, into); err != nil {
			return false, fmt.Errorf("%s: %w", filepath.Join(dir, name), err)
		}
		return true, nil
	}

	// The bench matrix: interpreter ratios on the rows that do not
	// allocate (the allocating row times the commit path, and its ratios
	// were never tracked), the deterministic commit rate on every row,
	// and the allocating row's virtual throughput.
	{
		var rep BenchReport
		ok, err := load("BENCH_matrix.json", &rep)
		if err != nil {
			return nil, err
		}
		if ok {
			for _, r := range rep.Runs {
				if r.Creates == 0 {
					metrics["cache_speedup_serial/"+r.Workload] = r.CacheSpeedupSerial
					metrics["trace_speedup_serial/"+r.Workload] = r.TraceSpeedupSerial
				}
				metrics["structural_commit_rate/"+r.Workload] = r.StructuralCommitRate
				if r.AllocVirtualThroughput > 0 {
					metrics["alloc_throughput_virtual/"+r.Workload] = r.AllocVirtualThroughput
				}
			}
		}
	}

	// The scale artifact: deterministic virtual throughput per scenario,
	// keyed by population so only like compares with like.
	{
		var rep struct {
			Runs []struct {
				Scenario struct {
					Name       string  `json:"name"`
					Sessions   int     `json:"sessions"`
					VirtualRPS float64 `json:"virtual_rps"`
				} `json:"scenario"`
			} `json:"runs"`
		}
		ok, err := load("BENCH_scale.json", &rep)
		if err != nil {
			return nil, err
		}
		if ok {
			for _, r := range rep.Runs {
				s := r.Scenario
				metrics[fmt.Sprintf("virtual_rps/%s@%d", s.Name, s.Sessions)] = s.VirtualRPS
			}
		}
	}

	// The shard artifact: deterministic scale-out ratio, keyed by
	// population.
	{
		var rep struct {
			Sessions   int     `json:"sessions"`
			Speedup4x1 float64 `json:"speedup_4x1"`
		}
		ok, err := load("BENCH_shard.json", &rep)
		if err != nil {
			return nil, err
		}
		if ok {
			metrics[fmt.Sprintf("speedup_4x1/shard@%d", rep.Sessions)] = rep.Speedup4x1
		}
	}
	return metrics, nil
}

// PerfTrack compares the fresh artifacts in freshDir against the
// committed baselines in baselineDir. Every baseline key with a fresh
// counterpart is judged; tolerance <= 0 takes PerfDefaultTolerance.
// The returned report lists every tracked metric; err is non-nil only
// for I/O or parse failures, so callers must check Regressions.
func PerfTrack(baselineDir, freshDir string, tolerance float64) (*PerfTrackReport, error) {
	if tolerance <= 0 {
		tolerance = PerfDefaultTolerance
	}
	baseline, err := perfExtract(baselineDir)
	if err != nil {
		return nil, fmt.Errorf("perf-track baselines: %w", err)
	}
	if len(baseline) == 0 {
		return nil, fmt.Errorf("perf-track: no BENCH_*.json baselines in %s", baselineDir)
	}
	fresh, err := perfExtract(freshDir)
	if err != nil {
		return nil, fmt.Errorf("perf-track fresh artifacts: %w", err)
	}
	rep := &PerfTrackReport{BaselineDir: baselineDir, FreshDir: freshDir, Tolerance: tolerance}
	keys := make([]string, 0, len(baseline))
	for k := range baseline {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m := PerfMetric{Key: k, Baseline: baseline[k]}
		if v, ok := fresh[k]; ok {
			m.Fresh, m.HasFresh = v, true
			if v < (1-tolerance)*m.Baseline {
				m.Regressed = true
				rep.Regressions++
			}
		}
		rep.Metrics = append(rep.Metrics, m)
	}
	return rep, nil
}
