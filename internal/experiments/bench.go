package experiments

// Bench is the simulator's one host-time benchmark matrix, behind
// `imaxbench -bench`: every workload in benchWorkloads runs at the six
// corners of {serial, parallel backend} × {no cache, exec cache, exec
// cache + trace compiler}, and the allocating workload additionally runs
// the parallel trace corner with in-fork structural commit knocked out
// (NoStructuralCommit). Corners are interleaved within each repetition
// and each keeps its best-of-reps host wall-clock of the run alone.
//
// The workloads bracket the mechanisms' envelopes:
//
//   - e3-compute: disjoint run-to-completion countdown loops — the exec
//     cache and trace compiler handle nearly every instruction, and
//     epochs are disjoint, so nearly every parallel epoch commits.
//   - e12-pingpong: blocking traffic over capacity-1 ports — almost no
//     instruction is a fast op and every epoch communicates; conflict
//     affinity co-schedules the pair onto one fork.
//   - reg-loop: long runs of reg-reg ALU ops between branches, the best
//     case for pinned register windows and fused traces.
//   - mixed-compute-pingpong: a ping-pong pair next to disjoint compute,
//     the shape affinity regrouping exists for.
//   - e2-alloc: tight create loops with a bystander read — every quantum
//     allocates, so every parallel epoch depends on in-fork structural
//     commit from per-CPU reservations.
//
// Every gate lives in checkBench, a pure function of the report, so the
// binary — not a CI script — decides pass or fail, and each gate has a
// test. The six corners must agree exactly on virtual cycles and
// results (the determinism contract); the knock-out arm is a different
// canonical allocation schedule (reservations batch-pop free-list slots
// at refill time, so objects land in different, equally valid,
// descriptor slots) and is compared on results only.

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/gdp"
	"repro/internal/isa"
	"repro/internal/obj"
)

// benchCorner is one cell of the matrix: the backend and interpreter
// knobs of a gdp.Config; the workload supplies the machine size.
type benchCorner struct {
	name string
	cfg  gdp.Config
}

// benchCorners lists the six byte-comparable corners in report order;
// the serial no-cache corner is the reference semantics.
var benchCorners = []benchCorner{
	{"serial_nocache", gdp.Config{NoExecCache: true, NoTraceJIT: true}},
	{"serial_cache", gdp.Config{NoTraceJIT: true}},
	{"serial_trace", gdp.Config{}},
	{"parallel_nocache", gdp.Config{HostParallel: true, NoExecCache: true, NoTraceJIT: true}},
	{"parallel_cache", gdp.Config{HostParallel: true, NoTraceJIT: true}},
	{"parallel_trace", gdp.Config{HostParallel: true}},
}

// benchArm is the knock-out arm: the parallel trace corner with every
// create aborting to serial replay instead of committing in-fork.
var benchArm = benchCorner{"parallel_nostruct", gdp.Config{HostParallel: true, NoStructuralCommit: true}}

// benchWorkload is one row of the matrix. A row spawns a ping-pong pair
// when msgs > 0, then `workers` processes running worker(iters, i); the
// result folds every worker's stored word plus, with a ping-pong pair,
// every processor's dispatch count — equal across corners iff they
// really computed the same thing.
type benchWorkload struct {
	name    string
	cpus    int
	workers int
	iters   uint32
	msgs    int
	worker  func(iters uint32, i int) []isa.Instr
	// alloc marks the allocating shape: a 64 MiB arena, the heap passed
	// to each worker in a2, creates counted, and the knock-out arm run.
	alloc bool
}

var benchWorkloads = []benchWorkload{
	{name: "e3-compute", cpus: 6, workers: 24, iters: 50_000, worker: computeLoop},
	{name: "e12-pingpong", cpus: 2, msgs: 3_000},
	{name: "reg-loop", cpus: 4, workers: 8, iters: 20_000, worker: regLoop},
	{name: "mixed-compute-pingpong", cpus: 4, workers: 6, iters: 30_000, msgs: 1_500, worker: computeLoop},
	{name: "e2-alloc", cpus: 4, workers: 8, iters: 2_000, worker: allocLoop, alloc: true},
}

// corners lists the corners the row runs, in report order.
func (w benchWorkload) corners() []benchCorner {
	if w.alloc {
		return append(benchCorners[:len(benchCorners):len(benchCorners)], benchArm)
	}
	return benchCorners
}

// computeLoop is the E3 countdown: iters+i additions, then the sum is
// stored to the worker's result object.
func computeLoop(iters uint32, i int) []isa.Instr {
	return []isa.Instr{
		isa.MovI(1, iters+uint32(i)),
		isa.MovI(0, 0),
		isa.Add(0, 0, 1),
		isa.AddI(1, 1, ^uint32(0)),
		isa.BrNZ(1, 2),
		isa.Store(0, 0, 0),
		isa.Halt(),
	}
}

// regLoop is the register-pressure shape: eight reg-reg ALU ops between
// branches, every one hitting the pinned register window.
func regLoop(iters uint32, i int) []isa.Instr {
	return []isa.Instr{
		isa.MovI(1, iters+uint32(i)), // countdown
		isa.MovI(0, 0),               // accumulator
		isa.MovI(2, 3),               // stride
		isa.Add(0, 0, 2),             // loop: 8 ALU ops, then the branch
		isa.Mul(3, 0, 2),
		isa.Sub(4, 3, 0),
		isa.Mov(5, 4),
		isa.Add(0, 0, 5),
		isa.Sub(6, 0, 2),
		isa.Mov(7, 6),
		isa.AddI(1, 1, ^uint32(0)),
		isa.BrNZ(1, 3),
		isa.Store(0, 0, 0),
		isa.Halt(),
	}
}

// allocLoop is the e2-alloc shape: one create, one initialising store and
// one bystander read of the result object per iteration.
func allocLoop(iters uint32, _ int) []isa.Instr {
	return []isa.Instr{
		isa.MovI(1, iters),
		isa.MovI(2, 32),
		isa.Create(3, 2, 2), // loop head: a3 ← 32-byte object from a2
		isa.Store(1, 3, 0),  // initialise it in-fork
		isa.Load(4, 0, 0),   // bystander read of the result object
		isa.AddI(1, 1, ^uint32(0)),
		isa.BrNZ(1, 2),
		isa.Store(4, 0, 0),
		isa.Halt(),
	}
}

// benchOutcome is one run of a workload at one corner.
type benchOutcome struct {
	cycles uint64
	result uint64
	runNs  int64
	par    gdp.ParStats
	trace  gdp.TraceStats
}

// run builds the workload's system at corner c, runs it to idle and
// folds its result. Only the run itself is timed: system construction —
// dominated by zeroing the arena — is a constant identical across
// corners and would dilute every ratio toward 1.
func (w benchWorkload) run(c benchCorner) (benchOutcome, error) {
	cfg := c.cfg
	cfg.Processors = w.cpus
	if w.alloc {
		cfg.MemoryBytes = 64 << 20
	}
	sys, err := gdp.New(cfg)
	if err != nil {
		return benchOutcome{}, err
	}
	if w.msgs > 0 {
		if f := spawnPingPong(sys, w.msgs); f != nil {
			return benchOutcome{}, f
		}
	}
	results := make([]obj.AD, w.workers)
	for i := range results {
		r, f := sys.SROs.Create(sys.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8})
		if f != nil {
			return benchOutcome{}, f
		}
		dom, f := makeDomain(sys, w.worker(w.iters, i))
		if f != nil {
			return benchOutcome{}, f
		}
		args := [4]obj.AD{r}
		if w.alloc {
			args[2] = sys.Heap
		}
		if _, f := sys.Spawn(dom, gdp.SpawnSpec{AArgs: args}); f != nil {
			return benchOutcome{}, f
		}
		results[i] = r
	}
	start := time.Now()
	cy, f := sys.Run(0)
	runNs := time.Since(start).Nanoseconds()
	if f != nil {
		return benchOutcome{}, f
	}
	var sum uint64
	for _, r := range results {
		v, f := sys.Table.ReadDWord(r, 0)
		if f != nil {
			return benchOutcome{}, f
		}
		sum += uint64(v)
	}
	if w.msgs > 0 {
		for _, cpu := range sys.CPUs {
			sum += cpu.Dispatches
		}
	}
	return benchOutcome{cycles: uint64(cy), result: sum, runNs: runNs, par: sys.ParStats(), trace: sys.TraceStats()}, nil
}

// spawnPingPong spawns the E12 pair: two players bouncing one carrier
// object msgs times over two capacity-1 ports.
func spawnPingPong(sys *gdp.System, msgs int) *obj.Fault {
	ping, f := sys.Ports.Create(sys.Heap, 1, 0)
	if f != nil {
		return f
	}
	pong, f := sys.Ports.Create(sys.Heap, 1, 0)
	if f != nil {
		return f
	}
	ball, f := sys.SROs.Create(sys.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8})
	if f != nil {
		return f
	}
	player := func(starts bool) []isa.Instr {
		prog := []isa.Instr{isa.MovI(4, uint32(msgs)), isa.MovI(5, 0)}
		loop := uint32(len(prog))
		if starts {
			prog = append(prog, isa.Send(1, 3, 5), isa.Recv(1, 2))
		} else {
			prog = append(prog, isa.Recv(1, 2), isa.Send(1, 3, 5))
		}
		return append(prog, isa.AddI(4, 4, ^uint32(0)), isa.BrNZ(4, loop), isa.Halt())
	}
	serveDom, f := makeDomain(sys, player(true))
	if f != nil {
		return f
	}
	returnDom, f := makeDomain(sys, player(false))
	if f != nil {
		return f
	}
	if _, f := sys.Spawn(serveDom, gdp.SpawnSpec{AArgs: [4]obj.AD{obj.NilAD, ball, pong, ping}}); f != nil {
		return f
	}
	_, f = sys.Spawn(returnDom, gdp.SpawnSpec{AArgs: [4]obj.AD{obj.NilAD, obj.NilAD, ping, pong}})
	return f
}

// BenchCorner is one workload at one corner.
type BenchCorner struct {
	Corner        string `json:"corner"`
	HostNs        int64  `json:"host_ns"` // best of reps, the run alone
	VirtualCycles uint64 `json:"virtual_cycles"`
	Result        uint64 `json:"result"`
}

// BenchRun is one row of the matrix.
type BenchRun struct {
	Workload   string `json:"workload"`
	Processors int    `json:"processors"`
	Workers    int    `json:"workers"`
	Creates    uint64 `json:"creates"`

	Corners []BenchCorner `json:"corners"`

	// Host wall-clock ratios, each within one process on one host:
	// cache = nocache over cache, trace = cache over trace, total =
	// nocache over trace; parallel_over_serial_* is serial over parallel
	// at the same interpreter corner; structural = the knock-out arm
	// over parallel trace (allocating row only).
	CacheSpeedupSerial      float64 `json:"cache_speedup_serial"`
	CacheSpeedupParallel    float64 `json:"cache_speedup_parallel"`
	TraceSpeedupSerial      float64 `json:"trace_speedup_serial"`
	TraceSpeedupParallel    float64 `json:"trace_speedup_parallel"`
	TotalSpeedupSerial      float64 `json:"total_speedup_serial"`
	ParallelOverSerialCache float64 `json:"parallel_over_serial_cache"`
	ParallelOverSerialTrace float64 `json:"parallel_over_serial_trace"`
	StructuralSpeedup       float64 `json:"structural_speedup,omitempty"`

	// VirtualCycles is the reference corner's simulated elapsed time.
	VirtualCycles uint64 `json:"virtual_cycles"`

	// Trace-compiler counters from the serial trace corner.
	TraceCompiled uint64 `json:"trace_compiled"`
	TraceFusedOps uint64 `json:"trace_fused_ops"`
	TraceEntries  uint64 `json:"trace_entries"`
	TraceInstrs   uint64 `json:"trace_instructions"`
	TraceDeopts   uint64 `json:"trace_deopts"`
	TraceExits    uint64 `json:"trace_exits"`

	// Parallel-backend counters from the parallel trace corner.
	ParEpochs           uint64 `json:"par_epochs"`
	ParCommits          uint64 `json:"par_commits"`
	ParReplays          uint64 `json:"par_replays"`
	ParConflicts        uint64 `json:"par_conflicts"`
	ParAborts           uint64 `json:"par_aborts"`
	AbortsStructural    uint64 `json:"aborts_structural"`
	AbortsReservation   uint64 `json:"aborts_reservation"`
	AbortsOther         uint64 `json:"aborts_other"`
	ParCooldowns        uint64 `json:"par_cooldowns"`
	ScopedInvalidations uint64 `json:"scoped_invalidations"`
	CacheSurvivals      uint64 `json:"cache_survivals"`
	Regroups            uint64 `json:"regroups"`
	ForkCreates         uint64 `json:"fork_creates"`

	// StructuralCommitRate is par_commits / par_epochs; allocation
	// throughput is creates per virtual megacycle (allocating row only).
	StructuralCommitRate   float64 `json:"structural_commit_rate"`
	AllocVirtualThroughput float64 `json:"alloc_throughput_virtual,omitempty"`
}

// BenchReport is the JSON artifact written by imaxbench -bench
// (BENCH_matrix.json).
type BenchReport struct {
	HostInfo

	// TraceProbeInstrs is the instruction count of the steady-state
	// allocation probe's measured window; TraceSteadyMallocs is the host
	// mallocs observed over it (the 0-allocs/op contract demands 0), and
	// TraceAllocsPerOp the quotient.
	TraceProbeInstrs   uint64  `json:"trace_probe_instructions"`
	TraceSteadyMallocs uint64  `json:"trace_steady_mallocs"`
	TraceAllocsPerOp   float64 `json:"trace_allocs_per_op"`

	Runs []BenchRun `json:"runs"`
}

// Bench runs the allocation probe and the whole matrix (best of `reps`
// host wall-clock per corner), writes the JSON report to path, and
// returns it with checkBench's verdict. The report is written even when
// a gate fails, so the failing numbers can be inspected.
func Bench(path string, reps int) (*BenchReport, error) {
	if reps <= 0 {
		reps = 3
	}
	rep := &BenchReport{HostInfo: hostInfo()}
	instrs, mallocs, err := benchTraceAllocProbe()
	if err != nil {
		return nil, fmt.Errorf("bench: alloc probe: %w", err)
	}
	rep.TraceProbeInstrs, rep.TraceSteadyMallocs = instrs, mallocs
	if instrs > 0 {
		rep.TraceAllocsPerOp = float64(mallocs) / float64(instrs)
	}
	for _, w := range benchWorkloads {
		r, err := benchRow(w, reps)
		if err != nil {
			return nil, fmt.Errorf("bench: %w", err)
		}
		rep.Runs = append(rep.Runs, r)
	}
	if err := writeReport(path, rep); err != nil {
		return nil, err
	}
	return rep, checkBench(rep)
}

// benchRow measures one workload at every corner, interleaving the
// corners within each repetition.
func benchRow(w benchWorkload, reps int) (BenchRun, error) {
	corners := w.corners()
	out := make([]benchOutcome, len(corners))
	for i := 0; i < reps; i++ {
		for ci, c := range corners {
			o, err := w.run(c)
			if err != nil {
				return BenchRun{}, fmt.Errorf("%s %s: %w", w.name, c.name, err)
			}
			if i > 0 && out[ci].runNs < o.runNs {
				o.runNs = out[ci].runNs
			}
			out[ci] = o
		}
	}
	r := BenchRun{Workload: w.name, Processors: w.cpus, Workers: w.workers, VirtualCycles: out[0].cycles}
	if w.msgs > 0 {
		r.Workers += 2
	}
	if w.alloc {
		r.Creates = uint64(w.workers) * uint64(w.iters)
	}
	for ci, c := range corners {
		r.Corners = append(r.Corners, BenchCorner{Corner: c.name, HostNs: out[ci].runNs,
			VirtualCycles: out[ci].cycles, Result: out[ci].result})
	}
	ratio := func(a, b int) float64 { return float64(out[a].runNs) / float64(out[b].runNs) }
	// Indices into corners: benchCorners order, then the arm.
	const serNo, serCache, serTrace, parNo, parCache, parTrace, arm = 0, 1, 2, 3, 4, 5, 6
	r.CacheSpeedupSerial = ratio(serNo, serCache)
	r.CacheSpeedupParallel = ratio(parNo, parCache)
	r.TraceSpeedupSerial = ratio(serCache, serTrace)
	r.TraceSpeedupParallel = ratio(parCache, parTrace)
	r.TotalSpeedupSerial = ratio(serNo, serTrace)
	r.ParallelOverSerialCache = ratio(serCache, parCache)
	r.ParallelOverSerialTrace = ratio(serTrace, parTrace)
	if w.alloc {
		r.StructuralSpeedup = ratio(arm, parTrace)
	}

	ts := out[serTrace].trace
	r.TraceCompiled, r.TraceFusedOps, r.TraceEntries = ts.Compiled, ts.FusedOps, ts.Entries
	r.TraceInstrs, r.TraceDeopts, r.TraceExits = ts.Instructions, ts.Deopts, ts.Exits

	ps := out[parTrace].par
	r.ParEpochs, r.ParCommits, r.ParReplays, r.ParConflicts = ps.Epochs, ps.Commits, ps.Replays, ps.Conflicts
	r.ParAborts, r.AbortsStructural, r.AbortsReservation, r.AbortsOther = ps.Aborts, ps.AbortsStructural, ps.AbortsReservation, ps.AbortsOther
	r.ParCooldowns, r.ScopedInvalidations, r.CacheSurvivals = ps.Cooldowns, ps.ScopedInvalidations, ps.CacheSurvivals
	r.Regroups, r.ForkCreates = ps.Regroups, ps.ForkCreates
	if ps.Epochs > 0 {
		r.StructuralCommitRate = float64(ps.Commits) / float64(ps.Epochs)
	}
	if r.Creates > 0 && r.VirtualCycles > 0 {
		r.AllocVirtualThroughput = float64(r.Creates) / (float64(r.VirtualCycles) / 1e6)
	}
	return r, nil
}

// checkBench applies every gate of the matrix to rep. All gates but the
// within-backend host ratios ride on deterministic counters, so they
// hold on any host, degenerate included; the ratio gates compare two
// corners timed in the same process.
func checkBench(rep *BenchReport) error {
	if rep.TraceProbeInstrs == 0 {
		return fmt.Errorf("bench: alloc probe retired no trace instructions")
	}
	if rep.TraceSteadyMallocs != 0 {
		return fmt.Errorf("bench: trace fast path allocated: %d mallocs over %d steady-state instructions",
			rep.TraceSteadyMallocs, rep.TraceProbeInstrs)
	}
	rows := make(map[string]*BenchRun, len(rep.Runs))
	for i := range rep.Runs {
		rows[rep.Runs[i].Workload] = &rep.Runs[i]
	}
	for _, w := range benchWorkloads {
		r := rows[w.name]
		if r == nil {
			return fmt.Errorf("bench: workload %s missing from the report", w.name)
		}
		want := w.corners()
		if len(r.Corners) != len(want) {
			return fmt.Errorf("bench: %s: %d corners, want %d", r.Workload, len(r.Corners), len(want))
		}
		for i, c := range r.Corners {
			if c.Corner != want[i].name {
				return fmt.Errorf("bench: %s: corner %d is %q, want %q", r.Workload, i, c.Corner, want[i].name)
			}
			// The knock-out arm is a different canonical allocation
			// schedule: same results, but descriptor slots — and hence
			// virtual allocation cycles — may differ.
			if c.Corner != benchArm.name && c.VirtualCycles != r.VirtualCycles {
				return fmt.Errorf("bench: %s: virtual time diverged: %s ran %d cycles vs reference %d",
					r.Workload, c.Corner, c.VirtualCycles, r.VirtualCycles)
			}
			if c.Result != r.Corners[0].Result {
				return fmt.Errorf("bench: %s: %s result %d differs from reference %d",
					r.Workload, c.Corner, c.Result, r.Corners[0].Result)
			}
		}
		if r.AbortsStructural+r.AbortsReservation+r.AbortsOther != r.ParAborts {
			return fmt.Errorf("bench: %s: abort split %d+%d+%d does not sum to %d",
				r.Workload, r.AbortsStructural, r.AbortsReservation, r.AbortsOther, r.ParAborts)
		}
	}

	// Trace fusion must pay ≥3x over the cached fast path on the compute
	// shapes, and the ratio is only meaningful if traces actually ran.
	for _, name := range []string{"e3-compute", "reg-loop"} {
		r := rows[name]
		if r.TraceCompiled == 0 || r.TraceEntries == 0 || r.TraceInstrs == 0 {
			return fmt.Errorf("bench: %s: traces idle (compiled %d, entries %d, instructions %d) — speedup ratio is vacuous",
				name, r.TraceCompiled, r.TraceEntries, r.TraceInstrs)
		}
		if r.TraceSpeedupSerial < 3 {
			return fmt.Errorf("bench: %s: serial trace speedup %.2fx under the 3x gate", name, r.TraceSpeedupSerial)
		}
	}
	// The exec cache must pay under the parallel backend too.
	if e3 := rows["e3-compute"]; e3.CacheSpeedupParallel <= 1 {
		return fmt.Errorf("bench: e3-compute: parallel cache not faster than parallel nocache (%.2fx)",
			e3.CacheSpeedupParallel)
	}
	// Affinity must let the ping-pong pair commit in one fork.
	if e12 := rows["e12-pingpong"]; e12.ParCommits == 0 {
		return fmt.Errorf("bench: e12-pingpong: no parallel epoch committed (epochs %d)", e12.ParEpochs)
	}
	// Nine in ten allocation-heavy epochs must commit their creates
	// inside the fork instead of aborting to a serial replay.
	alloc := rows["e2-alloc"]
	if alloc.ForkCreates == 0 {
		return fmt.Errorf("bench: e2-alloc: no create committed in-fork — the commit rate is vacuous")
	}
	if alloc.StructuralCommitRate < 0.90 {
		return fmt.Errorf("bench: e2-alloc: structural commit rate %.3f under the 0.90 gate "+
			"(epochs %d, commits %d, aborts %d/%d/%d)",
			alloc.StructuralCommitRate, alloc.ParEpochs, alloc.ParCommits,
			alloc.AbortsStructural, alloc.AbortsReservation, alloc.AbortsOther)
	}
	if alloc.AllocVirtualThroughput <= 0 {
		return fmt.Errorf("bench: e2-alloc: zero allocation throughput")
	}
	return nil
}

// benchTraceAllocProbe pins a single hot register loop in compiled
// traces, lets it reach steady state, and counts host allocations over a
// long measured window with GC disabled: any malloc on the trace fast
// path shows up as a nonzero delta. Returns (instructions executed in
// the window, mallocs observed in the window).
func benchTraceAllocProbe() (uint64, uint64, error) {
	sys, err := gdp.New(gdp.Config{Processors: 1})
	if err != nil {
		return 0, 0, err
	}
	// An endless register loop: everything after warm-up runs as one
	// compiled trace re-entered from its own back edge.
	dom, f := makeDomain(sys, []isa.Instr{
		isa.MovI(2, 3),
		isa.Add(0, 0, 2), // loop head
		isa.Sub(3, 0, 2),
		isa.Mul(4, 0, 2),
		isa.Mov(5, 4),
		isa.Add(0, 0, 5),
		isa.Br(1),
	})
	if f != nil {
		return 0, 0, f
	}
	if _, f := sys.Spawn(dom, gdp.SpawnSpec{}); f != nil {
		return 0, 0, f
	}
	// The loop never halts, so drive bounded quanta directly rather than
	// running to idle. Warm-up crosses the hotness threshold, compiles,
	// and enters the trace.
	step := func(quanta int) *obj.Fault {
		for i := 0; i < quanta; i++ {
			if _, f := sys.Step(5_000); f != nil {
				return f
			}
		}
		return nil
	}
	if f := step(20); f != nil {
		return 0, 0, f
	}
	if ts := sys.TraceStats(); ts.Entries == 0 {
		return 0, 0, fmt.Errorf("probe loop never entered a trace (compiled %d)", ts.Compiled)
	}

	prevGC := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(prevGC)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	instrBefore := sys.TraceStats().Instructions

	if f := step(4_000); f != nil {
		return 0, 0, f
	}

	runtime.ReadMemStats(&after)
	instrs := sys.TraceStats().Instructions - instrBefore
	return instrs, after.Mallocs - before.Mallocs, nil
}
