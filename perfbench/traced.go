package main

// The traced run (-trace 1): per-layer metrics. Each round runs the
// workload untraced as the reference, then traced — one span per call
// into a layer, kept in memory and written out at exit — then each
// knock-out arm. Host times are medians over the rounds; the counters
// are exact. Every run in every round passes the output checks, and the
// traced run's modelled machine (vcycles, job latencies, results) must
// equal the reference's.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/vtime"
)

// knockouts are the arms each batch workload is re-run at. The events
// arm attaches a kernel event log to count port traffic; it runs once,
// untimed.
var knockouts = map[string][]arm{
	"compute":      {{name: "notrace", noTrace: true}, {name: "events", events: true}},
	"ipc":          {{name: "notrace", noTrace: true}, {name: "events", events: true}},
	"parallel-mix": {{name: "serial", serial: true}, {name: "nopipe", noPipe: true}, {name: "nostruct", noStruct: true}},
}

// perLayer lists every per-layer metric with its unit. Each traced run
// reports all of them; a layer the workload never crosses reads 0.
var perLayer = []struct{ name, unit string }{
	{"setup.boot_s", "s"}, {"setup.build_s", "s"},
	{"gdp.steps", "count"}, {"gdp.step_s", "s"}, {"gdp.step_p50_us", "us"}, {"gdp.step_p99_us", "us"},
	{"gdp.ns_per_instr", "ns"}, {"gdp.instructions", "count"}, {"gdp.dispatches", "count"}, {"gdp.preemptions", "count"},
	{"gdp.trace.compiled", "count"}, {"gdp.trace.instr_share", "ratio"}, {"gdp.trace.deopts", "count"}, {"gdp.trace.gain", "ratio"},
	{"gdp.par.epochs", "count"}, {"gdp.par.commit_ratio", "ratio"}, {"gdp.par.conflicts", "count"},
	{"gdp.par.aborts_structural", "count"}, {"gdp.par.aborts_reservation", "count"}, {"gdp.par.aborts_other", "count"},
	{"gdp.par.cooldowns", "count"}, {"gdp.par.scoped_invalidations", "count"}, {"gdp.par.regroups", "count"},
	{"gdp.par.pipe_launches", "count"}, {"gdp.par.pipe_harvest_ratio", "ratio"}, {"gdp.par.pipe_drops", "count"},
	{"gdp.par.fork_creates", "count"},
	{"gdp.par.commit_step_s", "s"}, {"gdp.par.replay_step_s", "s"}, {"gdp.par.serial_step_s", "s"},
	{"gdp.par.over_serial", "ratio"}, {"gdp.par.pipeline_gain", "ratio"}, {"gdp.par.reserve_gain", "ratio"},
	{"obj.created", "count"}, {"obj.ad_stores", "count"}, {"obj.table_len", "count"}, {"sro.heap_used_mb", "MiB"},
	{"port.messages", "count"}, {"port.us_per_msg", "us"}, {"port.parks", "count"}, {"port.dispatches_per_msg", "ratio"},
	{"scenario.run_s", "s"}, {"scenario.completed", "count"}, {"scenario.deferred", "count"}, {"scenario.censored", "count"},
	{"trace.events", "count"},
	{"ledger.segments", "count"}, {"ledger.dropped", "count"}, {"ledger.bytes_per_event", "B"},
	{"ledger.close_s", "s"}, {"ledger.seal_s", "s"}, {"ledger.verify_s", "s"}, {"ledger.share", "ratio"},
	{"go.alloc_mb", "MiB"}, {"go.gc_cycles", "count"}, {"go.gc_pause_s", "s"},
	{"bench.trace_overhead", "ratio"},
	{"error_rate", "ratio"},
	{"lat_p999_vcycles", "cycles"},
}

// newLayerReport returns a report holding every per-layer metric at 0.
func newLayerReport() *report {
	rep := &report{}
	for _, m := range perLayer {
		rep.set(m.name, 0, m.unit)
	}
	return rep
}

// setLayer overwrites a per-layer metric, keeping its unit.
func (r *report) setLayer(name string, v float64) {
	m, ok := r.metrics[name]
	if !ok {
		panic("perfbench: unlisted per-layer metric " + name)
	}
	m.Value = v
	r.metrics[name] = m
}

// goCounters are the Go runtime's cumulative allocation and GC figures.
type goCounters struct {
	allocMB  float64
	gcCycles uint32
	pauseS   float64
}

func readGo() goCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return goCounters{float64(ms.TotalAlloc) / (1 << 20), ms.NumGC, float64(ms.PauseTotalNs) / 1e9}
}

func (g goCounters) minus(before goCounters) goCounters {
	return goCounters{g.allocMB - before.allocMB, g.gcCycles - before.gcCycles, g.pauseS - before.pauseS}
}

func (r *report) setGo(d goCounters) {
	r.setLayer("go.alloc_mb", d.allocMB)
	r.setLayer("go.gc_cycles", float64(d.gcCycles))
	r.setLayer("go.gc_pause_s", d.pauseS)
}

// spansDir is where traced runs write their spans, relative to the
// repository root: inside the build directory run.sh uses.
const spansDir = ".bench_build/perfbench"

// writeSpans writes the traced run's spans as JSON under spansDir.
func writeSpans(workload string, seed int64, spans any) error {
	if err := os.MkdirAll(spansDir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	path := filepath.Join(spansDir, fmt.Sprintf("spans-%s-seed%d.json", workload, seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Println("spans:", path)
	return nil
}

// spanSeconds sums the host time inside the spans.
func spanSeconds(spans []span) float64 {
	var ns int64
	for _, sp := range spans {
		ns += sp.End - sp.Start
	}
	return float64(ns) / 1e9
}

// stepClass names a parallel-backend step by its counter deltas.
func stepClass(sp span) string {
	switch {
	case sp.Par.Commits > 0:
		return "commit"
	case sp.Par.Replays > 0:
		return "replay"
	}
	return "serial"
}

// traceBatch is the traced run of a closed-batch workload.
func traceBatch(name string, seed int64, budget time.Duration) (*report, error) {
	spec, err := newBatchSpec(name, seed)
	if err != nil {
		return nil, err
	}
	rep := newLayerReport()
	arms := knockouts[name]
	var refS, trcS, stepS, bootS, buildS []float64
	armS := make(map[string][]float64)
	var kept runOut
	var refVcycles vtime.Cycles
	var refLats []float64

	// drive sets up and runs one arm after a collection, returning the
	// Go runtime's counter deltas over the set-up and run.
	drive := func(a arm, traced bool) (*batch, runOut, goCounters, error) {
		runtime.GC()
		g0 := readGo()
		b, err := spec.setup(a)
		if err != nil {
			return nil, runOut{}, goCounters{}, fmt.Errorf("arm %q: %w", a.name, err)
		}
		out, err := b.run(traced)
		if err != nil {
			return nil, runOut{}, goCounters{}, fmt.Errorf("arm %q: %w", a.name, err)
		}
		g := readGo().minus(g0)
		rep.add(b.check())
		return b, out, g, nil
	}

	err = loop(budget, minIters, func(i int) error {
		b, ref, _, err := drive(arm{}, false)
		if err != nil {
			return err
		}
		refS, bootS, buildS = append(refS, ref.runS), append(bootS, b.bootS), append(buildS, b.buildS)
		if i == 0 {
			refVcycles, refLats = ref.vcycles, b.latencies()
		}
		rep.expect(ref.vcycles == refVcycles, fmt.Sprintf("round %d: reference vcycles %d differ", i, ref.vcycles))

		b, out, g, err := drive(arm{}, true)
		if err != nil {
			return err
		}
		trcS, stepS = append(trcS, out.runS), append(stepS, spanSeconds(out.spans))
		rep.expect(out.vcycles == refVcycles && slices.Equal(b.latencies(), refLats),
			fmt.Sprintf("round %d: traced vcycles %d or job latencies differ from the untraced run", i, out.vcycles))
		// Layer counters and spans are kept from the last, warmest round.
		kept = out
		rep.setGo(g)
		created, _, adStores, _ := b.sys.Table.Stats()
		_, used, _, f := b.sys.SROs.Usage(b.sys.Heap)
		if f != nil {
			return faultErr("heap usage", f)
		}
		rep.setLayer("obj.created", float64(created-b.created))
		rep.setLayer("obj.ad_stores", float64(adStores-b.adStores))
		rep.setLayer("obj.table_len", float64(b.sys.Table.Len()))
		rep.setLayer("sro.heap_used_mb", float64(used)/(1<<20))

		for _, a := range arms {
			if a.events && i > 0 {
				continue
			}
			b, out, _, err := drive(a, false)
			if err != nil {
				return err
			}
			armS[a.name] = append(armS[a.name], out.runS)
			// NoStructuralCommit is a distinct canonical allocation
			// schedule: its results are checked, its vcycles are not.
			if !a.noStruct {
				rep.expect(out.vcycles == refVcycles,
					fmt.Sprintf("arm %q: vcycles %d differ from the default corner's", a.name, out.vcycles))
			}
			if a.events {
				msgs := b.workloadSends()
				rep.expect(msgs == b.msgs,
					fmt.Sprintf("kernel log counted %d sends to the workload's ports, want %d", msgs, b.msgs))
				rep.setLayer("trace.events", float64(b.sys.Tracer().Seq()))
				rep.setLayer("port.messages", float64(msgs))
				rep.setLayer("port.parks", float64(b.sends.parks))
				rep.setLayer("port.dispatches_per_msg", ratio(float64(out.stats.Dispatches), float64(msgs)))
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Step-time percentiles and the parallel split come from the kept
	// spans.
	durs := make([]float64, len(kept.spans))
	classS := map[string]float64{}
	for i, sp := range kept.spans {
		d := float64(sp.End-sp.Start) / 1e9
		durs[i] = d * 1e6
		if spec.cfg.HostParallel {
			classS[stepClass(sp)] += d
		}
	}
	ref, trc, steps := median(refS), median(trcS), median(stepS)
	st := kept
	rep.setLayer("setup.boot_s", median(bootS))
	rep.setLayer("setup.build_s", median(buildS))
	rep.setLayer("gdp.steps", float64(len(kept.spans)))
	rep.setLayer("gdp.step_s", steps)
	rep.setLayer("gdp.step_p50_us", nearestRank(durs, 0.50))
	rep.setLayer("gdp.step_p99_us", nearestRank(durs, 0.99))
	rep.setLayer("gdp.ns_per_instr", ratio(steps*1e9, float64(st.stats.Instructions)))
	rep.setLayer("gdp.instructions", float64(st.stats.Instructions))
	rep.setLayer("gdp.dispatches", float64(st.stats.Dispatches))
	rep.setLayer("gdp.preemptions", float64(st.stats.Preemptions))
	rep.setLayer("gdp.trace.compiled", float64(st.trace.Compiled))
	rep.setLayer("gdp.trace.instr_share", ratio(float64(st.trace.Instructions), float64(st.stats.Instructions)))
	rep.setLayer("gdp.trace.deopts", float64(st.trace.Deopts))
	rep.setLayer("gdp.par.epochs", float64(st.par.Epochs))
	rep.setLayer("gdp.par.commit_ratio", ratio(float64(st.par.Commits), float64(st.par.Epochs)))
	rep.setLayer("gdp.par.conflicts", float64(st.par.Conflicts))
	rep.setLayer("gdp.par.aborts_structural", float64(st.par.AbortsStructural))
	rep.setLayer("gdp.par.aborts_reservation", float64(st.par.AbortsReservation))
	rep.setLayer("gdp.par.aborts_other", float64(st.par.AbortsOther))
	rep.setLayer("gdp.par.cooldowns", float64(st.par.Cooldowns))
	rep.setLayer("gdp.par.scoped_invalidations", float64(st.par.ScopedInvalidations))
	rep.setLayer("gdp.par.regroups", float64(st.par.Regroups))
	rep.setLayer("gdp.par.pipe_launches", float64(st.par.PipeLaunches))
	rep.setLayer("gdp.par.pipe_harvest_ratio", ratio(float64(st.par.PipeCommits), float64(st.par.PipeLaunches)))
	rep.setLayer("gdp.par.pipe_drops", float64(st.par.PipeDrops))
	rep.setLayer("gdp.par.fork_creates", float64(st.par.ForkCreates))
	rep.setLayer("gdp.par.commit_step_s", classS["commit"])
	rep.setLayer("gdp.par.replay_step_s", classS["replay"])
	rep.setLayer("gdp.par.serial_step_s", classS["serial"])
	for metric, armName := range map[string]string{
		"gdp.trace.gain":        "notrace",
		"gdp.par.over_serial":   "serial",
		"gdp.par.pipeline_gain": "nopipe",
		"gdp.par.reserve_gain":  "nostruct",
	} {
		if s, ok := armS[armName]; ok {
			rep.setLayer(metric, ratio(median(s), ref))
		}
	}
	if msgs := rep.metrics["port.messages"].Value; msgs > 0 {
		rep.setLayer("port.us_per_msg", ref*1e6/msgs)
	}
	rep.setLayer("bench.trace_overhead", ratio(trc, ref))
	rep.setLayer("lat_p999_vcycles", nearestRank(refLats, 0.999))
	rep.setLayer("error_rate", ratio(float64(rep.failed), float64(rep.attempted)))
	return rep, writeSpans(name, seed, kept.spans)
}
