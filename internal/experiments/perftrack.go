package experiments

// perftrack.go is the perf-trajectory tracker behind `imaxbench
// -perf-track`: it reads the committed BENCH_*.json artifacts (the
// baselines), reads freshly generated artifacts from another directory,
// and hard-fails when any tracked headline metric regresses more than
// the tolerance against the best committed value.
//
// Tracked metrics are chosen to be comparable across hosts and commits:
//
//   - within-backend wall-clock ratios (cache_speedup_serial,
//     trace_speedup_serial) — both sides of each ratio come from the
//     same process on the same host, so the ratio transfers;
//   - virtual-time throughputs (scale virtual_rps, shard speedup_4x1)
//     — deterministic functions of the scenario config and seed. Their
//     keys carry the session population, so a down-scaled smoke run
//     never gets compared against a full-scale committed artifact: the
//     keys simply don't meet.
//
// When several committed artifacts track the same key (pr3, pr5 and
// pr8 all measure cache_speedup_serial on the same workloads), the
// baseline is the best of them — the trajectory must never fall more
// than the tolerance below the best the repo has ever committed.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// PerfDefaultTolerance is the fraction a tracked metric may fall below
// its best committed baseline before the tracker fails.
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
// in dir, keeping the best value per key. Missing files are fine — a
// repo mid-growth has only the artifacts its PRs have committed —
// but a file that exists and does not parse is an error.
func perfExtract(dir string) (map[string]float64, error) {
	best := make(map[string]float64)
	note := func(key string, v float64) {
		if cur, ok := best[key]; !ok || v > cur {
			best[key] = v
		}
	}
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

	// The four-corner artifacts: cache ratio per workload.
	for _, name := range []string{"BENCH_pr3.json", "BENCH_pr5.json"} {
		var rep struct {
			Runs []struct {
				Workload           string  `json:"workload"`
				CacheSpeedupSerial float64 `json:"cache_speedup_serial"`
			} `json:"runs"`
		}
		ok, err := load(name, &rep)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		for _, r := range rep.Runs {
			note("cache_speedup_serial/"+r.Workload, r.CacheSpeedupSerial)
		}
	}

	// The six-corner artifact: the trace ratio, and its own reading of
	// the cache ratio (serial nocache over serial cache).
	{
		var rep struct {
			Runs []struct {
				Workload           string  `json:"workload"`
				SerialNocacheNs    int64   `json:"serial_nocache_ns"`
				SerialCacheNs      int64   `json:"serial_cache_ns"`
				TraceSpeedupSerial float64 `json:"trace_speedup_serial"`
			} `json:"runs"`
		}
		ok, err := load("BENCH_pr8.json", &rep)
		if err != nil {
			return nil, err
		}
		if ok {
			for _, r := range rep.Runs {
				note("trace_speedup_serial/"+r.Workload, r.TraceSpeedupSerial)
				if r.SerialCacheNs > 0 {
					note("cache_speedup_serial/"+r.Workload,
						float64(r.SerialNocacheNs)/float64(r.SerialCacheNs))
				}
			}
		}
	}

	// The structural-commit artifact: deterministic counters from the
	// parallel trace corner — structural commit rate per workload, and
	// the virtual allocation throughput of e2-alloc. Both are
	// host-independent, so a regression is a real scheduling or
	// reservation change, not measurement noise.
	{
		var rep struct {
			Runs []struct {
				Workload               string  `json:"workload"`
				StructuralCommitRate   float64 `json:"structural_commit_rate"`
				AllocVirtualThroughput float64 `json:"alloc_throughput_virtual"`
			} `json:"runs"`
		}
		ok, err := load("BENCH_pr10.json", &rep)
		if err != nil {
			return nil, err
		}
		if ok {
			for _, r := range rep.Runs {
				note("structural_commit_rate/"+r.Workload, r.StructuralCommitRate)
				if r.AllocVirtualThroughput > 0 {
					note("alloc_throughput_virtual/"+r.Workload, r.AllocVirtualThroughput)
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
				note(fmt.Sprintf("virtual_rps/%s@%d", s.Name, s.Sessions), s.VirtualRPS)
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
			note(fmt.Sprintf("speedup_4x1/shard@%d", rep.Sessions), rep.Speedup4x1)
		}
	}
	return best, nil
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
