package main

// The sessions workload: scenario preset "baseline" (Poisson session
// arrivals, a 4:1 interactive:batch mix over 8+2 resident servers, the
// null policy, 4 CPUs) with the audit ledger attached, seeded from the
// benchmark's seed.

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/ledger"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// sessionsCount makes the p999 latency rest on 100 samples beyond it.
const sessionsCount = 100_000

// setupSamples is how many extra scenarios each iteration builds only to
// time scenario.New. A run takes over ten times as long as a set-up, so
// without them the set-up median would rest on a handful of samples.
const setupSamples = 4

func sessionsConfig(seed int64, withLedger bool) (scenario.Config, error) {
	cfg, err := scenario.Preset("baseline", sessionsCount, seed)
	if err != nil {
		return cfg, err
	}
	cfg.Ledger = withLedger
	return cfg, nil
}

// sessionsRun is one built-and-run scenario.
type sessionsRun struct {
	eng    *scenario.Engine
	res    *scenario.Result
	setupS float64
	runS   float64
	memMB  float64 // set when runScenario measures memory
}

// runScenario builds and runs the scenario after a collection. With
// measureMem set it also reads the live heap after the build and after
// the run, keeping the larger.
func runScenario(cfg scenario.Config, measureMem bool) (*sessionsRun, error) {
	runtime.GC()
	t0 := time.Now()
	eng, err := scenario.New(cfg)
	if err != nil {
		return nil, err
	}
	r := &sessionsRun{eng: eng, setupS: time.Since(t0).Seconds()}
	if measureMem {
		r.memMB = liveMB()
	}
	t1 := time.Now()
	if r.res, err = eng.Run(); err != nil {
		return nil, err
	}
	r.runS = time.Since(t1).Seconds()
	if measureMem {
		r.memMB = max(r.memMB, liveMB())
	}
	return r, nil
}

// checkRequests counts every request the preset should issue as one
// attempt, failing those that were censored, never issued or never
// completed.
func checkRequests(t *tally, cfg scenario.Config, res *scenario.Result) {
	want := uint64(cfg.Sessions) * uint64(max(cfg.RequestsPerSession, 1))
	t.attempted += int(want)
	if res.Completed < want {
		t.failed += int(want - res.Completed)
	}
	if res.Completed != res.Issued || res.Censored != 0 || res.Unissued != 0 {
		t.why = append(t.why, fmt.Sprintf("issued %d completed %d censored %d unissued %d of %d",
			res.Issued, res.Completed, res.Censored, res.Unissued, want))
	}
}

// ledgerTimes are the host seconds of the ledger checks.
type ledgerTimes struct {
	closeS, verifyS, sealS float64
	bytes                  int
}

// checkLedger verifies the sealed ledger of a finished run: Verify
// accepts it, its root is the Result's, its per-kind counts match the
// kernel trace log, and — when nothing was dropped — sealing the verified
// event stream again reproduces it byte for byte. It returns the check
// times and the verified stream (nil if Verify failed).
func checkLedger(t *tally, r *sessionsRun) (ledgerTimes, *ledger.Replay) {
	var lt ledgerTimes
	sink := r.eng.IM.Ledger
	t0 := time.Now()
	sink.Close() // idempotent: Run already sealed the final segment
	data := sink.Bytes()
	t1 := time.Now()
	replay, err := ledger.Verify(data)
	t2 := time.Now()
	lt.closeS, lt.verifyS, lt.bytes = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), len(data)
	t.expect(err == nil, fmt.Sprintf("ledger.Verify: %v", err))
	if err != nil {
		return lt, nil
	}
	t.expect(hex.EncodeToString(replay.Root[:]) == r.res.LedgerRoot, "verified ledger root differs from Result.LedgerRoot")
	_, counts := r.eng.IM.TraceLog.Snapshot()
	t.expect(slices.Equal(replay.Counts, counts) && uint64(len(replay.Events)) == r.res.LedgerEvents,
		"verified per-kind counts differ from the kernel trace log")
	if r.res.LedgerDropped == 0 {
		t3 := time.Now()
		resealed := ledger.Seal(replay.Events, ledger.Config{})
		lt.sealS = time.Since(t3).Seconds()
		t.expect(bytes.Equal(resealed, data), "re-sealing the verified stream changed the ledger bytes")
	}
	return lt, replay
}

// measureSessions is the untraced run: build and run the scenario until
// the budget is spent, verifying the ledger of the first iteration. Each
// iteration first builds setupSamples scenarios it throws away, timing
// each.
func measureSessions(seed int64, budget time.Duration) (*report, error) {
	cfg, err := sessionsConfig(seed, true)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	var host hostFigures
	var first *scenario.Result
	err = loop(budget, minIters, func(i int) error {
		for range setupSamples {
			runtime.GC()
			t0 := time.Now()
			if _, err := scenario.New(cfg); err != nil {
				return err
			}
			host.addSetup(i, time.Since(t0).Seconds())
		}
		r, err := runScenario(cfg, true)
		if err != nil {
			return err
		}
		host.addSetup(i, r.setupS)
		host.add(i, r.memMB, r.runS, float64(r.res.Instructions), float64(r.res.Completed))
		checkRequests(&rep.tally, cfg, r.res)
		if i == 0 {
			first = r.res
			checkLedger(&rep.tally, r)
			return nil
		}
		rep.expect(r.res.Fingerprint() == first.Fingerprint(),
			fmt.Sprintf("iteration %d: result fingerprint differs from iteration 0", i))
		return nil
	})
	if err != nil {
		return nil, err
	}
	host.report(rep)
	rep.set("vcycles", float64(first.VirtualCycles), "cycles")
	rep.set("lat_p50_vcycles", float64(first.Overall.P50Cycles), "cycles")
	return rep, nil
}

// sessionSpan is one call into a layer during the traced run.
type sessionSpan struct {
	Name       string
	Start, End int64 // nanoseconds since the traced run began
}

// sessionsTrace is the state of a traced sessions run.
type sessionsTrace struct {
	cfg, bare scenario.Config // with and without the ledger
	rep       *report
	begin     time.Time
	spans     []sessionSpan
	ref       *scenario.Result

	refS, trcS, bareS, setupS []float64
}

func (t *sessionsTrace) span(name string, t0 time.Time) {
	t.spans = append(t.spans, sessionSpan{name, t0.Sub(t.begin).Nanoseconds(), time.Since(t.begin).Nanoseconds()})
}

// reference runs the scenario untraced.
func (t *sessionsTrace) reference(i int) error {
	r, err := runScenario(t.cfg, false)
	if err != nil {
		return err
	}
	checkRequests(&t.rep.tally, t.cfg, r.res)
	t.refS = append(t.refS, r.runS)
	if i == 0 {
		t.ref = r.res
	}
	t.rep.expect(r.res.Fingerprint() == t.ref.Fingerprint(), fmt.Sprintf("round %d: reference result differs", i))
	return nil
}

// traced builds and runs the scenario inside spans. scenario.New boots
// the machine itself, so set-up is one span. In round 0 it also checks
// the ledger and records the layer counters.
func (t *sessionsTrace) traced(i int) error {
	rep := t.rep
	runtime.GC()
	g0 := readGo()
	t0 := time.Now()
	eng, err := scenario.New(t.cfg)
	if err != nil {
		return err
	}
	t.setupS = append(t.setupS, time.Since(t0).Seconds())
	t.span("scenario.New", t0)
	created0, _, adStores0, _ := eng.IM.Table.Stats()
	t0 = time.Now()
	res, err := eng.Run()
	if err != nil {
		return err
	}
	t.trcS = append(t.trcS, time.Since(t0).Seconds())
	t.span("Engine.Run", t0)
	g1 := readGo()
	checkRequests(&rep.tally, t.cfg, res)
	rep.expect(res.Fingerprint() == t.ref.Fingerprint(), fmt.Sprintf("round %d: traced result differs from the untraced run", i))
	if i > 0 {
		return nil
	}

	rep.setGo(g1.minus(g0))
	t0 = time.Now()
	lt, replay := checkLedger(&rep.tally, &sessionsRun{eng: eng, res: res})
	t.span("ledger checks", t0)
	rep.setLayer("ledger.close_s", lt.closeS)
	rep.setLayer("ledger.verify_s", lt.verifyS)
	rep.setLayer("ledger.seal_s", lt.sealS)
	rep.setLayer("ledger.bytes_per_event", ratio(float64(lt.bytes), float64(res.LedgerEvents)))
	rep.setLayer("ledger.segments", float64(res.LedgerSegments))
	rep.setLayer("ledger.dropped", float64(res.LedgerDropped))
	seq, counts := eng.IM.TraceLog.Snapshot()
	rep.setLayer("trace.events", float64(seq))
	// Port messages are the sends to the scenario's own ports, counted
	// from the verified ledger; sends to the dispatching port only make a
	// process ready. The ledger holds every event only when none was
	// dropped, so otherwise they read 0 beside a non-zero ledger.dropped.
	var msgs float64
	if replay != nil && res.LedgerDropped == 0 {
		dispatch := uint32(eng.IM.System.Dispatch.Index)
		for _, ev := range replay.Events {
			if ev.Kind == trace.EvSend && ev.Obj != dispatch {
				msgs++
			}
		}
	}
	rep.setLayer("port.messages", msgs)
	rep.setLayer("port.parks", float64(counts[trace.EvPark]))
	rep.setLayer("port.dispatches_per_msg", ratio(float64(res.Dispatches), msgs))
	created, _, adStores, _ := eng.IM.Table.Stats()
	_, used, _, f := eng.IM.SROs.Usage(eng.IM.Heap)
	if f != nil {
		return faultErr("heap usage", f)
	}
	rep.setLayer("obj.created", float64(created-created0))
	rep.setLayer("obj.ad_stores", float64(adStores-adStores0))
	rep.setLayer("obj.table_len", float64(eng.IM.Table.Len()))
	rep.setLayer("sro.heap_used_mb", float64(used)/(1<<20))
	rep.setLayer("gdp.instructions", float64(res.Instructions))
	rep.setLayer("gdp.dispatches", float64(res.Dispatches))
	rep.setLayer("gdp.preemptions", float64(res.Preemptions))
	rep.setLayer("scenario.completed", float64(res.Completed))
	rep.setLayer("scenario.deferred", float64(res.Deferred))
	rep.setLayer("scenario.censored", float64(res.Censored))
	return nil
}

// noLedger is the knock-out arm: the same machine without the ledger,
// whose result must equal the reference's apart from the ledger fields.
func (t *sessionsTrace) noLedger() error {
	r, err := runScenario(t.bare, false)
	if err != nil {
		return err
	}
	checkRequests(&t.rep.tally, t.bare, r.res)
	t.bareS = append(t.bareS, r.runS)
	got := *r.res
	got.LedgerRoot, got.LedgerSegments, got.LedgerEvents, got.LedgerDropped =
		t.ref.LedgerRoot, t.ref.LedgerSegments, t.ref.LedgerEvents, t.ref.LedgerDropped
	t.rep.expect(got.Fingerprint() == t.ref.Fingerprint(), "arm \"noledger\": result differs apart from the ledger")
	return nil
}

// traceSessions is the traced run of the sessions workload. Each round
// runs the reference, the traced run and the no-ledger arm.
func traceSessions(seed int64, budget time.Duration) (*report, error) {
	cfg, err := sessionsConfig(seed, true)
	if err != nil {
		return nil, err
	}
	bare, err := sessionsConfig(seed, false)
	if err != nil {
		return nil, err
	}
	t := &sessionsTrace{cfg: cfg, bare: bare, rep: newLayerReport(), begin: time.Now()}
	err = loop(budget, 1, func(i int) error {
		if err := t.reference(i); err != nil {
			return err
		}
		if err := t.traced(i); err != nil {
			return err
		}
		return t.noLedger()
	})
	if err != nil {
		return nil, err
	}
	rep := t.rep
	ref, trc := median(t.refS), median(t.trcS)
	rep.setLayer("setup.build_s", median(t.setupS))
	rep.setLayer("scenario.run_s", trc)
	rep.setLayer("lat_p999_vcycles", float64(t.ref.Overall.P999Cycles))
	rep.setLayer("gdp.ns_per_instr", ratio(trc*1e9, rep.metrics["gdp.instructions"].Value))
	if msgs := rep.metrics["port.messages"].Value; msgs > 0 {
		rep.setLayer("port.us_per_msg", trc*1e6/msgs)
	}
	rep.setLayer("ledger.share", 1-ratio(median(t.bareS), ref))
	rep.setLayer("bench.trace_overhead", ratio(trc, ref))
	rep.setLayer("error_rate", ratio(float64(rep.failed), float64(rep.attempted)))
	return rep, writeSpans("sessions", seed, t.spans)
}
