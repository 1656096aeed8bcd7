package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// perfDir writes files (name → contents) into a fresh temp directory.
func perfDir(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// matrixJSON is a one-row BENCH_matrix.json with the given serial trace
// ratio and commit rate.
func matrixJSON(t *testing.T, trace, commitRate float64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "m.json")
	rep := &BenchReport{Runs: []BenchRun{{
		Workload: "reg-loop", CacheSpeedupSerial: 10, TraceSpeedupSerial: trace, StructuralCommitRate: commitRate,
	}}}
	if err := writeReport(path, rep); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func scaleJSON(sessions int, rps float64) string {
	return fmt.Sprintf(`{"runs":[{"scenario":{"name":"baseline","sessions":%d,"virtual_rps":%g}}]}`, sessions, rps)
}

func metric(t *testing.T, rep *PerfTrackReport, key string) PerfMetric {
	t.Helper()
	for _, m := range rep.Metrics {
		if m.Key == key {
			return m
		}
	}
	t.Fatalf("no metric %s in %+v", key, rep.Metrics)
	return PerfMetric{}
}

func TestPerfTrackFlagsDropBeyondTolerance(t *testing.T) {
	base := perfDir(t, map[string]string{"BENCH_matrix.json": matrixJSON(t, 5, 0.99)})
	fresh := perfDir(t, map[string]string{"BENCH_matrix.json": matrixJSON(t, 4.4, 0.99)}) // −12%
	rep, err := PerfTrack(base, fresh, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m := metric(t, rep, "trace_speedup_serial/reg-loop"); !m.HasFresh || !m.Regressed {
		t.Fatalf("12%% drop not flagged: %+v", m)
	}
	if m := metric(t, rep, "structural_commit_rate/reg-loop"); m.Regressed {
		t.Fatalf("unchanged metric flagged: %+v", m)
	}
	if rep.Regressions != 1 {
		t.Fatalf("regressions = %d, want 1", rep.Regressions)
	}
}

func TestPerfTrackToleratesDropWithinTolerance(t *testing.T) {
	base := perfDir(t, map[string]string{"BENCH_matrix.json": matrixJSON(t, 5, 0.99)})
	fresh := perfDir(t, map[string]string{"BENCH_matrix.json": matrixJSON(t, 4.6, 0.99)}) // −8%
	rep, err := PerfTrack(base, fresh, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Regressions != 0 {
		t.Fatalf("8%% drop flagged under the 10%% tolerance: %+v", rep.Metrics)
	}
}

func TestPerfTrackReportsUnjudgedKeys(t *testing.T) {
	base := perfDir(t, map[string]string{
		"BENCH_matrix.json": matrixJSON(t, 5, 0.99),
		"BENCH_shard.json":  `{"sessions": 20000, "speedup_4x1": 3.8}`,
	})
	fresh := perfDir(t, map[string]string{"BENCH_matrix.json": matrixJSON(t, 5, 0.99)})
	rep, err := PerfTrack(base, fresh, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := metric(t, rep, "speedup_4x1/shard@20000")
	if m.HasFresh || m.Regressed || m.Baseline != 3.8 {
		t.Fatalf("key without a fresh value must be reported, not judged: %+v", m)
	}
	if rep.Regressions != 0 {
		t.Fatalf("regressions = %d", rep.Regressions)
	}
}

func TestPerfTrackAbsentFilesAreFine(t *testing.T) {
	base := perfDir(t, map[string]string{"BENCH_shard.json": `{"sessions": 20000, "speedup_4x1": 3.8}`})
	rep, err := PerfTrack(base, t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Metrics) != 1 || rep.Regressions != 0 {
		t.Fatalf("report over one baseline and no fresh files: %+v", rep)
	}
	if _, err := PerfTrack(t.TempDir(), base, 0); err == nil {
		t.Fatal("no baselines at all must be an error")
	}
}

func TestPerfTrackMalformedJSONIsAnError(t *testing.T) {
	good := perfDir(t, map[string]string{"BENCH_matrix.json": matrixJSON(t, 5, 0.99)})
	bad := perfDir(t, map[string]string{"BENCH_matrix.json": `{"runs": [`})
	if _, err := PerfTrack(bad, good, 0); err == nil {
		t.Fatal("malformed baseline accepted")
	}
	if _, err := PerfTrack(good, bad, 0); err == nil {
		t.Fatal("malformed fresh artifact accepted")
	}
}

func TestPerfTrackPopulationsNeverMeet(t *testing.T) {
	base := perfDir(t, map[string]string{"BENCH_scale.json": scaleJSON(100000, 5000)})
	fresh := perfDir(t, map[string]string{"BENCH_scale.json": scaleJSON(1000, 100)})
	rep, err := PerfTrack(base, fresh, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m := metric(t, rep, "virtual_rps/baseline@100000"); m.HasFresh || m.Regressed {
		t.Fatalf("a 1000-session run was judged against the 100000-session baseline: %+v", m)
	}
	for _, m := range rep.Metrics {
		if m.Key == "virtual_rps/baseline@1000" {
			t.Fatalf("fresh-only key reported: %+v", m)
		}
	}
}
