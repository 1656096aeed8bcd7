package experiments

import (
	"strings"
	"testing"
)

// goodBenchReport is a hand-built report that clears every gate with a
// margin; each gate case below breaks exactly one thing in it.
func goodBenchReport() *BenchReport {
	rep := &BenchReport{TraceProbeInstrs: 1_000_000}
	for _, w := range benchWorkloads {
		r := BenchRun{
			Workload: w.name, VirtualCycles: 1000,
			CacheSpeedupParallel: 2, TraceSpeedupSerial: 4,
			TraceCompiled: 1, TraceEntries: 1, TraceInstrs: 1,
			ParEpochs: 10, ParCommits: 9, ParAborts: 3,
			AbortsStructural: 1, AbortsReservation: 1, AbortsOther: 1,
			ForkCreates: 1, StructuralCommitRate: 0.9, AllocVirtualThroughput: 1,
		}
		for _, c := range w.corners() {
			r.Corners = append(r.Corners, BenchCorner{Corner: c.name, HostNs: 1, VirtualCycles: 1000, Result: 7})
		}
		rep.Runs = append(rep.Runs, r)
	}
	return rep
}

// benchRowOf finds a workload's row in rep.
func benchRowOf(rep *BenchReport, name string) *BenchRun {
	for i := range rep.Runs {
		if rep.Runs[i].Workload == name {
			return &rep.Runs[i]
		}
	}
	panic("no row " + name)
}

// TestCheckBenchGates feeds checkBench one report per gate, each
// breaking only that gate, and requires the gate's own error; the
// unmodified report and the legitimate non-failures must pass.
func TestCheckBenchGates(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*BenchReport)
		want   string // error substring; "" means the report must pass
	}{
		{"unmodified", func(*BenchReport) {}, ""},
		{"arm cycles may differ", func(r *BenchReport) { benchRowOf(r, "e2-alloc").Corners[6].VirtualCycles++ }, ""},
		{"pingpong trace ratio is not gated", func(r *BenchReport) { benchRowOf(r, "e12-pingpong").TraceSpeedupSerial = 1 }, ""},
		{"commit rate at the bound", func(r *BenchReport) { benchRowOf(r, "e2-alloc").StructuralCommitRate = 0.90 }, ""},
		{"trace speedup at the bound", func(r *BenchReport) { benchRowOf(r, "reg-loop").TraceSpeedupSerial = 3 }, ""},

		{"probe mallocs", func(r *BenchReport) { r.TraceSteadyMallocs = 1 }, "trace fast path allocated"},
		{"probe idle", func(r *BenchReport) { r.TraceProbeInstrs = 0 }, "alloc probe"},
		{"workload missing", func(r *BenchReport) { r.Runs = r.Runs[1:] }, "e3-compute missing"},
		{"corner missing", func(r *BenchReport) {
			benchRowOf(r, "reg-loop").Corners = benchRowOf(r, "reg-loop").Corners[:5]
		}, "reg-loop: 5 corners"},
		{"arm missing", func(r *BenchReport) {
			benchRowOf(r, "e2-alloc").Corners = benchRowOf(r, "e2-alloc").Corners[:6]
		}, "e2-alloc: 6 corners"},
		{"corner misnamed", func(r *BenchReport) { benchRowOf(r, "e3-compute").Corners[2].Corner = "serial_cache" }, "corner 2"},
		{"virtual cycles diverge", func(r *BenchReport) { benchRowOf(r, "mixed-compute-pingpong").Corners[4].VirtualCycles++ }, "virtual time diverged"},
		{"corner result diverges", func(r *BenchReport) { benchRowOf(r, "e12-pingpong").Corners[3].Result++ }, "parallel_nocache result"},
		{"arm result diverges", func(r *BenchReport) { benchRowOf(r, "e2-alloc").Corners[6].Result++ }, "parallel_nostruct result"},
		{"abort split", func(r *BenchReport) { benchRowOf(r, "e12-pingpong").AbortsOther++ }, "abort split"},
		{"e3 trace speedup", func(r *BenchReport) { benchRowOf(r, "e3-compute").TraceSpeedupSerial = 2.99 }, "e3-compute: serial trace speedup"},
		{"reg-loop trace speedup", func(r *BenchReport) { benchRowOf(r, "reg-loop").TraceSpeedupSerial = 2.85 }, "reg-loop: serial trace speedup"},
		{"no traces compiled", func(r *BenchReport) { benchRowOf(r, "e3-compute").TraceCompiled = 0 }, "traces idle"},
		{"no trace entries", func(r *BenchReport) { benchRowOf(r, "reg-loop").TraceEntries = 0 }, "traces idle"},
		{"no trace instructions", func(r *BenchReport) { benchRowOf(r, "e3-compute").TraceInstrs = 0 }, "traces idle"},
		{"parallel cache not faster", func(r *BenchReport) { benchRowOf(r, "e3-compute").CacheSpeedupParallel = 1 }, "parallel cache not faster"},
		{"pingpong never commits", func(r *BenchReport) { benchRowOf(r, "e12-pingpong").ParCommits = 0 }, "no parallel epoch committed"},
		{"commit rate", func(r *BenchReport) { benchRowOf(r, "e2-alloc").StructuralCommitRate = 0.899 }, "structural commit rate"},
		{"no in-fork creates", func(r *BenchReport) { benchRowOf(r, "e2-alloc").ForkCreates = 0 }, "no create committed in-fork"},
		{"no alloc throughput", func(r *BenchReport) { benchRowOf(r, "e2-alloc").AllocVirtualThroughput = 0 }, "zero allocation throughput"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := goodBenchReport()
			tc.mutate(rep)
			err := checkBench(rep)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("report should pass, got %v", err)
			case tc.want != "" && err == nil:
				t.Fatalf("gate did not fire (want %q)", tc.want)
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Fatalf("wrong gate fired: %v (want %q)", err, tc.want)
			}
		})
	}
}

// TestBenchWorkloadsPinned pins each matrix row's virtual cycles at the
// serial trace corner to the committed BENCH_matrix.json values: the
// workload builder must keep every shape's object-creation order and
// result fold, or virtual time moves.
func TestBenchWorkloadsPinned(t *testing.T) {
	want := map[string]uint64{
		"e3-compute":             2_806_672,
		"e12-pingpong":           1_168_012,
		"reg-loop":               1_530_756,
		"mixed-compute-pingpong": 1_123_788,
		"e2-alloc":               2_685_444,
	}
	for _, w := range benchWorkloads {
		o, err := w.run(benchCorners[2]) // serial_trace
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if o.cycles != want[w.name] {
			t.Errorf("%s: %d virtual cycles, want %d", w.name, o.cycles, want[w.name])
		}
	}
}
