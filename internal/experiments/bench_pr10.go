package experiments

// BenchPR10 measures the in-fork structural commit path (internal/gdp
// parallel.go + internal/sro reserve.go): the e2-alloc shape — tight
// create loops with a bystander read, the workload the epoch engine paid
// the allocation tax on — runs at all six {serial, parallel} × {nocache,
// cache, cache+trace} corners, plus a parallel knock-out arm with
// reservations switched off (NoStructuralCommit).
//
// Headline metrics, all deterministic functions of the workload:
//
//   - structural_commit_rate: committed epochs over epochs on the
//     parallel trace corner. The hard gate demands ≥0.90 on e2-alloc
//     with ForkCreates > 0 — at least nine in ten allocation-heavy
//     epochs must commit their creates inside the fork instead of
//     aborting to a serial replay.
//   - alloc_throughput_virtual: creates per virtual megacycle on
//     e2-alloc — the end-to-end allocation throughput of the machine
//     being modelled, independent of the host.
//
// The six corners must agree exactly on virtual cycles and results.
// The NoStructuralCommit arm is a different canonical allocation
// schedule (reservations batch-pop free-list slots at refill time, so
// objects land in different, equally valid, descriptor slots) and is
// therefore compared on results only, not bytes.

import (
	"fmt"

	"repro/internal/gdp"
	"repro/internal/isa"
	"repro/internal/obj"
	"repro/internal/vtime"
)

// BenchPR10Run is one workload measured at the six corners plus the
// knock-out arm (best of `reps` host wall-clock each).
type BenchPR10Run struct {
	Workload   string `json:"workload"`
	Processors int    `json:"processors"`
	Workers    int    `json:"workers"`
	Creates    uint64 `json:"creates"`

	SerialNocacheNs   int64 `json:"serial_nocache_ns"`
	SerialCacheNs     int64 `json:"serial_cache_ns"`
	SerialTraceNs     int64 `json:"serial_trace_ns"`
	ParallelNocacheNs int64 `json:"parallel_nocache_ns"`
	ParallelCacheNs   int64 `json:"parallel_cache_ns"`
	ParallelTraceNs   int64 `json:"parallel_trace_ns"`

	// Knock-out arm: the parallel trace corner re-run with reservations
	// disabled. The ratio is informational (wall-clock, so
	// host-dependent); the gates ride on the deterministic counters.
	ParallelNoStructNs int64   `json:"parallel_nostruct_ns"`
	StructuralSpeedup  float64 `json:"structural_speedup"`

	VirtualCycles uint64 `json:"virtual_cycles"`
	ResultsEqual  bool   `json:"results_equal"`

	// Parallel-backend counters from the parallel trace corner.
	ParEpochs         uint64 `json:"par_epochs"`
	ParCommits        uint64 `json:"par_commits"`
	ParReplays        uint64 `json:"par_replays"`
	ParConflicts      uint64 `json:"par_conflicts"`
	ParAborts         uint64 `json:"par_aborts"`
	AbortsStructural  uint64 `json:"aborts_structural"`
	AbortsReservation uint64 `json:"aborts_reservation"`
	AbortsOther       uint64 `json:"aborts_other"`
	ForkCreates       uint64 `json:"fork_creates"`

	StructuralCommitRate   float64 `json:"structural_commit_rate"`
	AllocVirtualThroughput float64 `json:"alloc_throughput_virtual"`
}

// BenchPR10Report is the JSON artifact written by imaxbench -bench-pr10.
type BenchPR10Report struct {
	HostInfo
	Runs []BenchPR10Run `json:"runs"`
}

// benchPR10Corner is one cell of the measurement matrix.
type benchPR10Corner struct {
	hostpar, nocache, notrace, nostruct bool
}

// benchAlloc is the e2-alloc shape: workers running tight create loops
// off the global heap — one create, one initialising store, one
// bystander read of the worker's result object per iteration — sized so
// every quantum allocates. The returned sum folds the final store of
// every worker.
func benchAlloc(cpus, workers int, iters uint32, c benchPR10Corner) (vtime.Cycles, uint64, benchStats, error) {
	sys, err := gdp.New(gdp.Config{
		Processors:         cpus,
		MemoryBytes:        64 << 20,
		HostParallel:       c.hostpar,
		NoExecCache:        c.nocache,
		NoTraceJIT:         c.notrace,
		NoStructuralCommit: c.nostruct,
	})
	if err != nil {
		return 0, 0, benchStats{}, err
	}
	results := make([]obj.AD, workers)
	for i := range results {
		r, f := sys.SROs.Create(sys.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8})
		if f != nil {
			return 0, 0, benchStats{}, f
		}
		dom, f := makeDomain(sys, []isa.Instr{
			isa.MovI(1, iters),
			isa.MovI(2, 32),
			isa.Create(3, 2, 2), // loop head: a3 ← 32-byte object from a2
			isa.Store(1, 3, 0),  // initialise it in-fork
			isa.Load(4, 0, 0),   // bystander read of the result object
			isa.AddI(1, 1, ^uint32(0)),
			isa.BrNZ(1, 2),
			isa.Store(4, 0, 0),
			isa.Halt(),
		})
		if f != nil {
			return 0, 0, benchStats{}, f
		}
		if _, f := sys.Spawn(dom, gdp.SpawnSpec{AArgs: [4]obj.AD{r, obj.NilAD, sys.Heap}}); f != nil {
			return 0, 0, benchStats{}, f
		}
		results[i] = r
	}
	elapsed, runNs, f := timedRun(sys)
	if f != nil {
		return 0, 0, benchStats{}, f
	}
	var sum uint64
	for _, r := range results {
		v, f := sys.Table.ReadDWord(r, 0)
		if f != nil {
			return 0, 0, benchStats{}, f
		}
		sum += uint64(v)
	}
	st := statsOf(sys)
	st.RunNs = runNs
	return elapsed, sum, st, nil
}

// BenchPR10 runs the e2-alloc and e3-compute workloads across the six
// corners and the knock-out arm (best of `reps` host wall-clock),
// enforces the structural-commit gate, and writes the JSON report to
// path.
func BenchPR10(path string, reps int) (*BenchPR10Report, error) {
	if reps <= 0 {
		reps = 3
	}
	rep := &BenchPR10Report{HostInfo: hostInfo()}

	type workload struct {
		name       string
		processors int
		workers    int
		creates    uint64
		run        func(c benchPR10Corner) (vtime.Cycles, uint64, benchStats, error)
	}
	const (
		allocCPUs      = 4
		allocWorkers   = 8
		allocIters     = 2_000
		computeCPUs    = 4
		computeWorkers = 8
		computeIters   = 30_000
	)
	workloads := []workload{
		{"e2-alloc", allocCPUs, allocWorkers, allocWorkers * allocIters,
			func(c benchPR10Corner) (vtime.Cycles, uint64, benchStats, error) {
				return benchAlloc(allocCPUs, allocWorkers, allocIters, c)
			}},
		{"e3-compute", computeCPUs, computeWorkers, 0,
			func(c benchPR10Corner) (vtime.Cycles, uint64, benchStats, error) {
				if c.nostruct {
					// benchCompute has no knob plumbing; the knock-out
					// arm only matters on the allocate shape anyway, so
					// reuse the default parallel trace corner.
					c = benchPR10Corner{hostpar: true}
				}
				return benchCompute(computeCPUs, computeWorkers, computeIters, c.hostpar, c.nocache, c.notrace)
			}},
	}
	corners := []benchPR10Corner{
		{hostpar: false, nocache: true, notrace: true},  // serial uncached: reference semantics
		{hostpar: false, nocache: false, notrace: true}, // serial cached
		{hostpar: false}, // serial cached + trace
		{hostpar: true, nocache: true, notrace: true},  // parallel uncached
		{hostpar: true, nocache: false, notrace: true}, // parallel cached
		{hostpar: true},                 // parallel cached + trace
		{hostpar: true, nostruct: true}, // knock-out: every create aborts to serial replay
	}
	for _, w := range workloads {
		var ns [7]int64
		var cy [7]vtime.Cycles
		var sum [7]uint64
		var ps gdp.ParStats
		for i := 0; i < reps; i++ {
			for ci, c := range corners {
				ccy, csum, st, err := w.run(c)
				if err != nil {
					return nil, fmt.Errorf("%s corner %d: %w", w.name, ci, err)
				}
				if i == 0 || st.RunNs < ns[ci] {
					ns[ci] = st.RunNs
				}
				cy[ci], sum[ci] = ccy, csum
				if c.hostpar && !c.nocache && !c.notrace && !c.nostruct {
					ps = st.Par
				}
			}
		}
		equal := true
		for ci := 1; ci < len(corners); ci++ {
			// The NoStructuralCommit arm is a distinct canonical
			// allocation schedule: identical results, but descriptor
			// slots — and hence virtual allocation cycles — may differ.
			if !corners[ci].nostruct && cy[ci] != cy[0] {
				return nil, fmt.Errorf("%s: virtual time diverged: corner %d ran %d cycles vs reference %d",
					w.name, ci, cy[ci], cy[0])
			}
			if sum[ci] != sum[0] {
				equal = false
			}
		}
		r := BenchPR10Run{
			Workload:           w.name,
			Processors:         w.processors,
			Workers:            w.workers,
			Creates:            w.creates,
			SerialNocacheNs:    ns[0],
			SerialCacheNs:      ns[1],
			SerialTraceNs:      ns[2],
			ParallelNocacheNs:  ns[3],
			ParallelCacheNs:    ns[4],
			ParallelTraceNs:    ns[5],
			ParallelNoStructNs: ns[6],
			StructuralSpeedup:  float64(ns[6]) / float64(ns[5]),
			VirtualCycles:      uint64(cy[0]),
			ResultsEqual:       equal,
			ParEpochs:          ps.Epochs,
			ParCommits:         ps.Commits,
			ParReplays:         ps.Replays,
			ParConflicts:       ps.Conflicts,
			ParAborts:          ps.Aborts,
			AbortsStructural:   ps.AbortsStructural,
			AbortsReservation:  ps.AbortsReservation,
			AbortsOther:        ps.AbortsOther,
			ForkCreates:        ps.ForkCreates,
		}
		if ps.Epochs > 0 {
			r.StructuralCommitRate = float64(ps.Commits) / float64(ps.Epochs)
		}
		if w.creates > 0 && cy[0] > 0 {
			r.AllocVirtualThroughput = float64(w.creates) / (float64(cy[0]) / 1e6)
		}
		rep.Runs = append(rep.Runs, r)
	}

	// The tentpole gates, all on deterministic counters so they hold on
	// any host, degenerate included.
	for _, r := range rep.Runs {
		if !r.ResultsEqual {
			return nil, fmt.Errorf("bench-pr10: %s: corner results diverged", r.Workload)
		}
		if r.AbortsStructural+r.AbortsReservation+r.AbortsOther != r.ParAborts {
			return nil, fmt.Errorf("bench-pr10: %s: abort split %d+%d+%d does not sum to %d",
				r.Workload, r.AbortsStructural, r.AbortsReservation, r.AbortsOther, r.ParAborts)
		}
		if r.Workload != "e2-alloc" {
			continue
		}
		if r.ForkCreates == 0 {
			return nil, fmt.Errorf("bench-pr10: e2-alloc: no create committed in-fork — the commit rate is vacuous")
		}
		if r.StructuralCommitRate < 0.90 {
			return nil, fmt.Errorf("bench-pr10: e2-alloc: structural commit rate %.3f under the 0.90 gate "+
				"(epochs %d, commits %d, aborts %d/%d/%d)",
				r.StructuralCommitRate, r.ParEpochs, r.ParCommits,
				r.AbortsStructural, r.AbortsReservation, r.AbortsOther)
		}
	}

	if err := writeReport(path, rep); err != nil {
		return nil, err
	}
	return rep, nil
}
