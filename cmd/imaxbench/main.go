// Command imaxbench runs the reproduction harness: every experiment in
// DESIGN.md §4 (one per claim of the paper — the paper has no numbered
// result tables, so the claims are the targets), printing the measured
// tables that EXPERIMENTS.md records.
//
// Usage:
//
//	imaxbench                      run everything
//	imaxbench -run E3              run one experiment
//	imaxbench -list                list experiment ids
//	imaxbench -md                  emit Markdown (for EXPERIMENTS.md)
//	imaxbench -bench OUT.json      benchmark matrix: five workloads × six
//	                               {serial, parallel} × {nocache, cache,
//	                               cache+trace} corners + NoStructuralCommit
//	                               arm; exits non-zero on any gate
//	imaxbench -bench-scale OUT.json [-scale-sessions N] [-scale-det]
//	                               open-loop scale scenarios (SLO percentiles)
//	imaxbench -bench-shard OUT.json [-shard-sessions N] [-shard-det]
//	                               sharded multi-kernel scale-out benchmark
//	imaxbench -bench-ledger OUT.json [-ledger-events N]
//	                               audit-ledger benchmark (seal/verify/prove
//	                               throughput, deterministic-drop and
//	                               root-equality gates)
//	imaxbench -perf-track DIR [-perf-baseline DIR2] [-perf-tolerance F]
//	                               fail if fresh BENCH_*.json in DIR regress
//	                               >F (default 0.10) vs committed baselines
//	imaxbench -require-cores N ... hard-fail (not warn) when the host has
//	                               ≥N cores but a bench run's parallel
//	                               backend fails to beat serial
//	imaxbench -cpuprofile CPU.pprof -memprofile MEM.pprof ...
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/experiments"
)

// main delegates to run so profile-stopping defers fire before exit.
func main() {
	os.Exit(run())
}

func run() int {
	runID := flag.String("run", "", "run a single experiment id (e.g. E3)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	md := flag.Bool("md", false, "emit Markdown instead of plain text")
	bench := flag.String("bench", "", "run the six-corner benchmark matrix, enforce its gates, and write the JSON report here")
	requireCores := flag.Int("require-cores", 0, "hard-fail when the host has at least N cores but the parallel backend fails to beat serial (0 = warn only)")
	perfTrack := flag.String("perf-track", "", "directory of freshly generated BENCH_*.json to judge against committed baselines")
	perfBaseline := flag.String("perf-baseline", ".", "directory of committed BENCH_*.json baselines for -perf-track")
	perfTolerance := flag.Float64("perf-tolerance", 0, "allowed fractional regression for -perf-track (0 = default 0.10)")
	benchScale := flag.String("bench-scale", "", "run the open-loop scale scenarios and write the JSON report here")
	scaleSessions := flag.Int("scale-sessions", 100_000, "headline session population for -bench-scale")
	scaleDet := flag.Bool("scale-det", false, "zero host wall-clock fields in -bench-scale for byte-comparable artifacts")
	benchShard := flag.String("bench-shard", "", "run the sharded multi-kernel scale-out benchmark and write the JSON report here")
	shardSessions := flag.Int("shard-sessions", 20_000, "session population for -bench-shard")
	shardDet := flag.Bool("shard-det", false, "zero host wall-clock fields in -bench-shard for byte-comparable artifacts")
	benchLedger := flag.String("bench-ledger", "", "run the audit-ledger benchmark and write the JSON report here")
	ledgerEvents := flag.Int("ledger-events", 1_000_000, "synthetic event-stream length for -bench-ledger")
	cpuprofile := flag.String("cpuprofile", "", "write a host CPU profile here")
	memprofile := flag.String("memprofile", "", "write a host heap profile here on exit")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "imaxbench:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "imaxbench:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "imaxbench:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "imaxbench:", err)
			}
		}()
	}

	if *bench != "" {
		// A failed gate still returns the report: print it, then fail.
		rep, err := experiments.Bench(*bench, 3)
		if rep == nil {
			fmt.Fprintln(os.Stderr, "imaxbench:", err)
			return 1
		}
		fmt.Printf("bench: host %d cpus, GOMAXPROCS %d, degenerate=%v (%s)\n",
			rep.HostCPUs, rep.GOMAXPROCS, rep.Degenerate, rep.GoVersion)
		warnSingleCPU(rep.GOMAXPROCS)
		fmt.Printf("  alloc probe: %d steady-state instructions, %d mallocs (%.6f allocs/op)\n",
			rep.TraceProbeInstrs, rep.TraceSteadyMallocs, rep.TraceAllocsPerOp)
		parOverSerial := -1.0
		for _, r := range rep.Runs {
			fmt.Printf("  %-22s %d cpus, %2d workers, %d virtual cycles:\n",
				r.Workload, r.Processors, r.Workers, r.VirtualCycles)
			for _, c := range r.Corners {
				fmt.Printf("    %-17s %8.2fms\n", c.Corner, float64(c.HostNs)/1e6)
			}
			fmt.Printf("    cache %.2fx serial / %.2fx parallel, trace %.2fx serial / %.2fx parallel, "+
				"parallel over serial %.2fx cache / %.2fx trace\n",
				r.CacheSpeedupSerial, r.CacheSpeedupParallel, r.TraceSpeedupSerial, r.TraceSpeedupParallel,
				r.ParallelOverSerialCache, r.ParallelOverSerialTrace)
			fmt.Printf("    traces: %d compiled (%d fused ops), %d entries / %d instructions, %d deopts\n",
				r.TraceCompiled, r.TraceFusedOps, r.TraceEntries, r.TraceInstrs, r.TraceDeopts)
			fmt.Printf("    epochs %d, commits %d (rate %.3f), conflicts %d, aborts %d structural / %d reservation / %d other, "+
				"cooldowns %d, regroups %d, in-fork creates %d\n",
				r.ParEpochs, r.ParCommits, r.StructuralCommitRate, r.ParConflicts,
				r.AbortsStructural, r.AbortsReservation, r.AbortsOther, r.ParCooldowns, r.Regroups, r.ForkCreates)
			if r.AllocVirtualThroughput > 0 {
				fmt.Printf("    alloc throughput: %.0f creates per virtual megacycle; structural speedup %.2fx (nostruct arm over parallel trace)\n",
					r.AllocVirtualThroughput, r.StructuralSpeedup)
			}
			if r.Workload == "e3-compute" {
				parOverSerial = min(r.ParallelOverSerialCache, r.ParallelOverSerialTrace)
			}
		}
		fmt.Println("report:", *bench)
		if err != nil {
			fmt.Fprintln(os.Stderr, "imaxbench:", err)
			return 1
		}
		// The parallel backend must beat serial on the disjoint compute
		// shape at both the cache and the cache+trace corners.
		return checkRequireCores(*requireCores, "bench", parOverSerial)
	}

	if *perfTrack != "" {
		rep, err := experiments.PerfTrack(*perfBaseline, *perfTrack, *perfTolerance)
		if err != nil {
			fmt.Fprintln(os.Stderr, "imaxbench:", err)
			return 1
		}
		fmt.Printf("perf-track: baselines %s, fresh %s, tolerance %.0f%%\n",
			rep.BaselineDir, rep.FreshDir, 100*rep.Tolerance)
		for _, m := range rep.Metrics {
			switch {
			case !m.HasFresh:
				fmt.Printf("  %-42s baseline %10.2f  (no fresh artifact — not judged)\n", m.Key, m.Baseline)
			case m.Regressed:
				fmt.Printf("  %-42s baseline %10.2f  fresh %10.2f  REGRESSED\n", m.Key, m.Baseline, m.Fresh)
			default:
				fmt.Printf("  %-42s baseline %10.2f  fresh %10.2f  ok\n", m.Key, m.Baseline, m.Fresh)
			}
		}
		if rep.Regressions > 0 {
			fmt.Fprintf(os.Stderr, "imaxbench: perf-track: %d tracked metric(s) regressed beyond %.0f%%\n",
				rep.Regressions, 100*rep.Tolerance)
			return 1
		}
		return 0
	}

	if *benchScale != "" {
		rep, err := experiments.BenchScale(*benchScale, *scaleSessions, *scaleDet)
		if err != nil {
			fmt.Fprintln(os.Stderr, "imaxbench:", err)
			return 1
		}
		fmt.Printf("bench-scale: host %d cpus, GOMAXPROCS %d, degenerate=%v (%s)\n",
			rep.HostCPUs, rep.GOMAXPROCS, rep.Degenerate, rep.GoVersion)
		fmt.Printf("  headline %d sessions, seed %d, deterministic=%v\n",
			rep.Sessions, rep.Seed, rep.Deterministic)
		fmt.Printf("  fingerprint %s\n", rep.HeadlineFingerprint)
		for _, r := range rep.Runs {
			s := r.Scenario
			fmt.Printf("  %-12s %7d sessions: issued %d, completed %d, censored %d\n",
				s.Name, s.Sessions, s.Issued, s.Completed, s.Censored)
			fmt.Printf("    virtual: p50 %8.1fµs, p99 %8.1fµs, p999 %8.1fµs (%.0f req/s over %.1f vms)\n",
				s.Overall.P50Us, s.Overall.P99Us, s.Overall.P999Us, s.VirtualRPS, s.VirtualMs)
			if r.HostNs > 0 {
				fmt.Printf("    host:    %8.2fms, %.0f req/s\n",
					float64(r.HostNs)/1e6, r.HostRPS)
			}
			if s.Swapping {
				fmt.Printf("    mm:      %d swap-outs, %d swap-ins, %d evictions, %d faults serviced, %d compactions\n",
					s.SwapOuts, s.SwapIns, s.Evictions, s.FaultsServiced, s.Compactions)
			}
			if s.InjectPlanned > 0 {
				fmt.Printf("    inject:  %d/%d fired\n", s.InjectFired, s.InjectPlanned)
			}
		}
		// The scale scenarios have no serial-vs-parallel arm, so only the
		// provisioning half of -require-cores applies.
		if rc := checkRequireCores(*requireCores, "bench-scale", -1); rc != 0 {
			return rc
		}
		fmt.Println("report:", *benchScale)
		return 0
	}

	if *benchShard != "" {
		rep, err := experiments.BenchShard(*benchShard, *shardSessions, *shardDet)
		if err != nil {
			fmt.Fprintln(os.Stderr, "imaxbench:", err)
			return 1
		}
		fmt.Printf("bench-shard: host %d cpus, GOMAXPROCS %d, degenerate=%v (%s)\n",
			rep.HostCPUs, rep.GOMAXPROCS, rep.Degenerate, rep.GoVersion)
		fmt.Printf("  %d sessions, seed %d, deterministic=%v, speedup 4x1 = %.2fx\n",
			rep.Sessions, rep.Seed, rep.Deterministic, rep.Speedup4x1)
		for _, r := range rep.Runs {
			s := r.Shard
			fmt.Printf("  %d node(s): %.0f req/s aggregate over %.1f vms; %d/%d completed, "+
				"%.1f%% migrated, %d wire msgs (%d KiB)\n",
				s.Nodes, s.AggregateRPS, s.VirtualMs, s.Completed, s.Issued,
				100*s.MigrationFraction, s.WireMsgs, s.WireBytes/1024)
			for _, n := range s.PerNode {
				fmt.Printf("    node %d: %d homed, %d served (%.0f req/s), %d filed / %d activated objects\n",
					n.Node, n.SessionsHomed, n.Served, n.VirtualRPS, n.FiledObjects, n.ActivatedObjects)
			}
			if r.HostNs > 0 {
				fmt.Printf("    host: %.2fms, %.0f req/s\n", float64(r.HostNs)/1e6, r.HostRPS)
			}
		}
		// Speedup4x1 is a virtual-time scale-out ratio, valid on any
		// host; -require-cores only checks provisioning here.
		if rc := checkRequireCores(*requireCores, "bench-shard", -1); rc != 0 {
			return rc
		}
		fmt.Println("report:", *benchShard)
		return 0
	}

	if *benchLedger != "" {
		rep, err := experiments.BenchLedger(*benchLedger, *ledgerEvents)
		if err != nil {
			fmt.Fprintln(os.Stderr, "imaxbench:", err)
			return 1
		}
		fmt.Printf("bench-ledger: host %d cpus, GOMAXPROCS %d (%s)\n",
			rep.HostCPUs, rep.GOMAXPROCS, rep.GoVersion)
		fmt.Printf("  seal:   %d events -> %d segments, %d bytes (%.1f B/event), %8.2fms (%.0f events/s)\n",
			rep.Events, rep.Segments, rep.LedgerBytes, rep.BytesPerEvent,
			float64(rep.SealNs)/1e6, rep.SealEventsSec)
		fmt.Printf("  verify: %8.2fms (%.0f events/s); %d inclusion proofs in %.2fms\n",
			float64(rep.VerifyNs)/1e6, rep.VerifyEventsSec, rep.ProofChecks, float64(rep.ProveNs)/1e6)
		fmt.Printf("  overload: %d recorded, %d dropped (%.1f%%), byte-identical=%v\n",
			rep.OverloadRecorded, rep.OverloadDropped, 100*rep.OverloadDropRate, rep.OverloadIdentical)
		fmt.Printf("  scenario: %d sessions, %d events in %d segments, roots equal=%v\n    root %s\n",
			rep.ScenarioSessions, rep.ScenarioEvents, rep.ScenarioSegments, rep.ScenarioRootsEq, rep.ScenarioRoot)
		fmt.Println("report:", *benchLedger)
		return 0
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return 0
	}

	var results []*experiments.Result
	if *runID != "" {
		res, err := experiments.Run(*runID)
		if err != nil {
			fmt.Fprintln(os.Stderr, "imaxbench:", err)
			return 1
		}
		results = append(results, res)
	} else {
		var err error
		results, err = experiments.RunAll()
		if err != nil {
			fmt.Fprintln(os.Stderr, "imaxbench:", err)
			return 1
		}
	}

	failed := 0
	for _, r := range results {
		if *md {
			printMarkdown(r)
		} else {
			printPlain(r)
		}
		if !r.Pass {
			failed++
		}
	}
	if *md {
		return 0
	}
	fmt.Printf("\n%d experiments, %d reproduced the paper's shape, %d did not\n",
		len(results), len(results)-failed, failed)
	if failed > 0 {
		return 1
	}
	return 0
}

// warnSingleCPU flags reports measured without host parallelism: the
// parallel backend cannot beat serial on one scheduling core, so its
// ratios there say nothing about the backend.
func warnSingleCPU(gomaxprocs int) {
	if gomaxprocs == 1 {
		fmt.Fprintln(os.Stderr,
			"imaxbench: warning: GOMAXPROCS=1 — parallel-backend speedups are meaningless on this host")
	}
}

// checkRequireCores enforces -require-cores N: a CI runner that claims
// n host cores must actually deliver host parallelism. On a host with
// fewer than n cores the requirement is unenforceable — warn and pass,
// so local runs on small machines stay usable — but when the cores are
// there, a GOMAXPROCS cap below n or a parallel-over-serial speedup that
// does not clear 1.0 is a hard failure instead of the buried
// warnSingleCPU line. speedup < 0 means the benchmark has no
// serial-vs-parallel arm; only the provisioning half is checked then.
// Returns a non-zero exit code on failure.
func checkRequireCores(n int, label string, speedup float64) int {
	if n <= 0 {
		return 0
	}
	if runtime.NumCPU() < n {
		fmt.Fprintf(os.Stderr,
			"imaxbench: warning: -require-cores %d on a %d-core host — requirement not enforceable here\n",
			n, runtime.NumCPU())
		return 0
	}
	if runtime.GOMAXPROCS(0) < n {
		fmt.Fprintf(os.Stderr,
			"imaxbench: %s: host has %d cores but GOMAXPROCS=%d < %d — parallel measurements are degenerate\n",
			label, runtime.NumCPU(), runtime.GOMAXPROCS(0), n)
		return 1
	}
	if speedup >= 0 && speedup <= 1 {
		fmt.Fprintf(os.Stderr,
			"imaxbench: %s: host delivers %d cores but parallel speedup is %.2fx — "+
				"the parallel backend did not beat serial (-require-cores %d)\n",
			label, runtime.GOMAXPROCS(0), speedup, n)
		return 1
	}
	return 0
}

func printPlain(r *experiments.Result) {
	status := "PASS"
	if !r.Pass {
		status = "FAIL"
	}
	fmt.Printf("\n=== %s: %s [%s]\n", r.ID, r.Title, status)
	fmt.Printf("claim   : %s\n", r.Claim)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(cols []string) {
		parts := make([]string, len(cols))
		for i, c := range cols {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			parts[i] = fmt.Sprintf("%-*s", w, c)
		}
		fmt.Println("  " + strings.Join(parts, "  "))
	}
	printRow(r.Header)
	for _, row := range r.Rows {
		printRow(row)
	}
	fmt.Printf("verdict : %s\n", r.Verdict)
	for _, n := range r.Notes {
		fmt.Printf("note    : %s\n", n)
	}
}

func printMarkdown(r *experiments.Result) {
	status := "✅"
	if !r.Pass {
		status = "❌"
	}
	fmt.Printf("\n### %s — %s %s\n\n", r.ID, r.Title, status)
	fmt.Printf("**Claim.** %s\n\n", r.Claim)
	fmt.Println("| " + strings.Join(r.Header, " | ") + " |")
	sep := make([]string, len(r.Header))
	for i := range sep {
		sep[i] = "---"
	}
	fmt.Println("| " + strings.Join(sep, " | ") + " |")
	for _, row := range r.Rows {
		fmt.Println("| " + strings.Join(row, " | ") + " |")
	}
	fmt.Printf("\n**Measured.** %s\n", r.Verdict)
	for _, n := range r.Notes {
		fmt.Printf("\n*%s*\n", n)
	}
}
