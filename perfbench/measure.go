package main

// Measurement helpers: live host memory, order statistics, and the
// iteration loop every workload's untraced run shares.

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// liveMB collects garbage and returns the heap the collector found live
// plus goroutine stacks, in MiB: what the program holds at this point,
// whatever garbage earlier iterations left and whenever the collector
// last ran.
func liveMB() float64 {
	runtime.GC()
	s := []metrics.Sample{
		{Name: "/gc/heap/live:bytes"},
		{Name: "/memory/classes/heap/stacks:bytes"},
	}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()+s[1].Value.Uint64()) / (1 << 20)
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nearestRank returns the q-quantile (0 < q ≤ 1) of xs by the
// nearest-rank rule, so the value is always one that was observed.
func nearestRank(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never crosses).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tally accumulates output checks.
type tally struct {
	attempted, failed int
	why               []string
}

func (t *tally) add(attempted, failed int, why []string) {
	t.attempted += attempted
	t.failed += failed
	t.why = append(t.why, why...)
}

// expect records one whole-run check.
func (t *tally) expect(ok bool, why string) {
	t.attempted++
	if !ok {
		t.failed++
		t.why = append(t.why, why)
	}
}

// hostFigures accumulates the host-side end-to-end figures of an untraced
// run. Iteration 0 is a warm-up: it is checked and its memory counted,
// but its times are not, since it alone runs on memory fresh from the
// OS. Throughput is total work over total run time, which under
// a host whose speed drifts between levels moves smoothly with the share
// of time spent at each, where a median of per-iteration rates jumps.
type hostFigures struct {
	setupS, memMB          []float64
	runS, instrs, requests float64
}

// addSetup records one set-up's host seconds in iteration i.
func (h *hostFigures) addSetup(i int, setupS float64) {
	if i > 0 {
		h.setupS = append(h.setupS, setupS)
	}
}

// add records iteration i's memory and run.
func (h *hostFigures) add(i int, memMB, runS, instrs, requests float64) {
	h.memMB = append(h.memMB, memMB)
	if i == 0 {
		return
	}
	h.runS += runS
	h.instrs += instrs
	h.requests += requests
}

func (h *hostFigures) report(rep *report) {
	rep.set("setup_s", median(h.setupS), "s")
	rep.set("sim_instr_per_s", h.instrs/h.runS, "1/s")
	rep.set("req_per_s", h.requests/h.runS, "1/s")
	rep.set("host_mem_mb", median(h.memMB), "MiB")
}

// minIters is the fewest iterations a run measures, however long they take.
const minIters = 3

// loop calls once until it has run at least min times and budget has
// elapsed since iteration 0, the warm-up, ended. It stops early at the
// first error.
func loop(budget time.Duration, min int, once func(i int) error) error {
	if err := once(0); err != nil {
		return err
	}
	begin := time.Now()
	for i := 1; i < min || time.Since(begin) < budget; i++ {
		if err := once(i); err != nil {
			return err
		}
	}
	return nil
}
