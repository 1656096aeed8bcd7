package main

// The three closed-batch workloads (compute, ipc, parallel-mix): each
// boots a fresh gdp.System, spawns a fixed population of simulated
// processes, and drives the system to idle with a Step loop of the same
// shape as gdp.Run(0). Every process ends by storing a closed-form value
// into its own result object, which is both the output check and the
// completion signal the loop observes between steps. The loop reads
// those values straight from memory: every obj.Table access counts as a
// mutation of the machine, and a mutation between steps would drop the
// parallel backend's pipelined continuations.

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"repro/internal/gdp"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/obj"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// stepQuantum is the quantum gdp.Run(0) steps with.
const stepQuantum = 5_000

// Workload sizes. The seed adds up to 1/jitterDiv of each base count per
// process, so a held-out seed is a different input of the same shape.
const (
	computeCPUs    = 6
	computeWorkers = 24
	computeIters   = 100_000

	ipcRoundTrips = 20_000

	mixCPUs    = 4
	mixWorkers = 8 // half alloc, half compute
	mixIters   = 20_000
	mixArena   = 64 << 20
	// mixComputeScale stretches the compute half's loops past the virtual
	// length of the alloc half's, so the two overlap throughout and the
	// compute groups' continuations are harvested.
	mixComputeScale = 20

	jitterDiv = 128
)

// batchSpec is one closed-batch workload: its machine configuration and
// the per-process iteration counts drawn from the seed.
type batchSpec struct {
	name  string
	cfg   gdp.Config
	iters []uint32
	// alloc marks the processes running the create loop (parallel-mix).
	alloc []bool
	// pingPong selects the two-player port exchange (ipc).
	pingPong bool
}

func jittered(rng *rand.Rand, n int, base uint32) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = base + uint32(rng.Intn(int(base/jitterDiv)+1))
	}
	return out
}

// newBatchSpec derives the named workload's inputs from seed.
func newBatchSpec(name string, seed int64) (*batchSpec, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "compute":
		return &batchSpec{
			name:  name,
			cfg:   gdp.Config{Processors: computeCPUs},
			iters: jittered(rng, computeWorkers, computeIters),
			alloc: make([]bool, computeWorkers),
		}, nil
	case "ipc":
		n := jittered(rng, 1, ipcRoundTrips)[0]
		return &batchSpec{
			name:     name,
			cfg:      gdp.Config{Processors: 2},
			iters:    []uint32{n, n},
			alloc:    make([]bool, 2),
			pingPong: true,
		}, nil
	case "parallel-mix":
		alloc := make([]bool, mixWorkers)
		iters := jittered(rng, mixWorkers, mixIters)
		for i := range alloc {
			alloc[i] = i%2 == 0 // interleaved, so both halves share every epoch
			if !alloc[i] {
				iters[i] *= mixComputeScale
			}
		}
		return &batchSpec{
			name:  name,
			cfg:   gdp.Config{Processors: mixCPUs, MemoryBytes: mixArena, HostParallel: true},
			iters: iters,
			alloc: alloc,
		}, nil
	}
	return nil, fmt.Errorf("unknown batch workload %q", name)
}

// job is one spawned process: the object it stores its final value into
// and that object's data part, the value a correct run stores, and the
// virtual time at which the Step loop first saw that value.
type job struct {
	result obj.AD
	data   mem.Extent
	want   uint32
	done   bool
	doneAt vtime.Cycles
}

// batch is one booted, ready-to-run instance of a batchSpec.
type batch struct {
	spec     *batchSpec
	sys      *gdp.System
	jobs     []job
	created  uint64 // obj.Table created count once set up
	adStores uint64 // obj.Table AD-store count once set up
	creates  uint64 // objects the alloc loops must create
	msgs     uint64 // port messages the ping-pong must exchange
	ports    []obj.AD
	sends    *sendCounter // the events arm's kernel log sink
	bootS    float64
	buildS   float64
}

// computeProg sums iters..1 into r0 and stores it: the e3-compute loop.
func computeProg(iters uint32) []isa.Instr {
	return []isa.Instr{
		isa.MovI(1, iters),
		isa.MovI(0, 0),
		isa.Add(0, 0, 1), // loop head
		isa.AddI(1, 1, ^uint32(0)),
		isa.BrNZ(1, 2),
		isa.Store(0, 0, 0),
		isa.Halt(),
	}
}

// allocProg is the e2-alloc loop: per iteration a 32-byte create from the
// heap in a2, an initialising store, a read-back that feeds the running
// sum (so the final store proves every initialising store landed), and a
// bystander load of the result object.
func allocProg(iters uint32) []isa.Instr {
	return []isa.Instr{
		isa.MovI(1, iters),
		isa.MovI(2, 32),
		isa.MovI(5, 0),
		isa.Create(3, 2, 2), // loop head: a3 ← 32-byte object, r3 = 0 access slots
		isa.Store(1, 3, 0),
		isa.Load(4, 3, 0),
		isa.Add(5, 5, 4),
		isa.Load(6, 0, 0),
		isa.AddI(1, 1, ^uint32(0)),
		isa.BrNZ(1, 3),
		isa.Store(5, 0, 0),
		isa.Halt(),
	}
}

// playerProg is one side of the e12 ping-pong: n round trips of the ball
// in a1 over the receive port a2 and the send port a3, counting them in
// r6 and storing the count at the end.
func playerProg(n uint32, serves bool) []isa.Instr {
	prog := []isa.Instr{isa.MovI(4, n), isa.MovI(5, 0), isa.MovI(6, 0)}
	if serves {
		prog = append(prog, isa.Send(1, 3, 5), isa.Recv(1, 2))
	} else {
		prog = append(prog, isa.Recv(1, 2), isa.Send(1, 3, 5))
	}
	return append(prog,
		isa.AddI(6, 6, 1),
		isa.AddI(4, 4, ^uint32(0)),
		isa.BrNZ(4, 3),
		isa.Store(6, 0, 0),
		isa.Halt(),
	)
}

// sumTo is iters+…+1 modulo 2³², the closed form of both loops' sums.
func sumTo(iters uint32) uint32 {
	n := uint64(iters)
	return uint32(n * (n + 1) / 2)
}

func faultErr(op string, f *obj.Fault) error {
	return fmt.Errorf("%s: %v", op, f)
}

// arm is a knock-out configuration: the workload's default corner with
// one mechanism switched off. The zero arm is the default corner.
type arm struct {
	name                      string
	serial                    bool // serial backend instead of HostParallel
	noTrace, noPipe, noStruct bool
	events                    bool // attach a kernel event log once built
}

// setup boots the system and spawns every process: the benchmark's
// set-up phase, timed as boot (gdp.New) and build (domains and spawns).
func (spec *batchSpec) setup(a arm) (*batch, error) {
	cfg := spec.cfg
	cfg.HostParallel = cfg.HostParallel && !a.serial
	cfg.NoTraceJIT = a.noTrace
	cfg.NoPipeline = a.noPipe
	cfg.NoStructuralCommit = a.noStruct
	t0 := time.Now()
	sys, err := gdp.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	t1 := time.Now()
	b := &batch{spec: spec, sys: sys, bootS: t1.Sub(t0).Seconds()}
	if spec.pingPong {
		err = b.buildPingPong()
	} else {
		err = b.buildWorkers()
	}
	if err != nil {
		return nil, err
	}
	if a.events {
		b.sends = &sendCounter{byPort: make(map[uint32]uint64)}
		log := trace.New(1)
		log.SetSink(b.sends)
		sys.SetTracer(log)
	}
	b.created, _, b.adStores, _ = sys.Table.Stats()
	b.buildS = time.Since(t1).Seconds()
	return b, nil
}

func (b *batch) newResult() (obj.AD, error) {
	r, f := b.sys.SROs.Create(b.sys.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8})
	if f != nil {
		return obj.NilAD, faultErr("create result object", f)
	}
	return r, nil
}

// newJob records a spawned process's result object. No collector or
// swapper runs in the batch workloads, so the data part stays put.
func (b *batch) newJob(r obj.AD, want uint32) {
	b.jobs = append(b.jobs, job{result: r, data: b.sys.Table.DescriptorAt(r.Index).Data, want: want})
}

func (b *batch) spawn(prog []isa.Instr, aargs [4]obj.AD) error {
	code, f := b.sys.Domains.CreateCode(b.sys.Heap, prog)
	if f != nil {
		return faultErr("create code", f)
	}
	dom, f := b.sys.Domains.Create(b.sys.Heap, code, []uint32{0})
	if f != nil {
		return faultErr("create domain", f)
	}
	if _, f := b.sys.Spawn(dom, gdp.SpawnSpec{AArgs: aargs}); f != nil {
		return faultErr("spawn", f)
	}
	return nil
}

func (b *batch) buildWorkers() error {
	for i, iters := range b.spec.iters {
		r, err := b.newResult()
		if err != nil {
			return err
		}
		prog, aargs := computeProg(iters), [4]obj.AD{r}
		if b.spec.alloc[i] {
			prog, aargs = allocProg(iters), [4]obj.AD{r, obj.NilAD, b.sys.Heap}
			b.creates += uint64(iters)
		}
		if err := b.spawn(prog, aargs); err != nil {
			return err
		}
		b.newJob(r, sumTo(iters))
	}
	return nil
}

func (b *batch) buildPingPong() error {
	sys := b.sys
	ping, f := sys.Ports.Create(sys.Heap, 1, 0)
	if f != nil {
		return faultErr("create port", f)
	}
	pong, f := sys.Ports.Create(sys.Heap, 1, 0)
	if f != nil {
		return faultErr("create port", f)
	}
	ball, err := b.newResult()
	if err != nil {
		return err
	}
	n := b.spec.iters[0]
	for _, serves := range []bool{true, false} {
		r, err := b.newResult()
		if err != nil {
			return err
		}
		aargs := [4]obj.AD{r, obj.NilAD, ping, pong}
		if serves {
			aargs = [4]obj.AD{r, ball, pong, ping}
		}
		if err := b.spawn(playerProg(n, serves), aargs); err != nil {
			return err
		}
		b.newJob(r, n)
	}
	b.msgs = 2 * uint64(n)
	b.ports = []obj.AD{ping, pong}
	return nil
}

// sendCounter is a kernel log sink counting parks and port sends per
// destination port.
type sendCounter struct {
	parks  uint64
	byPort map[uint32]uint64
}

func (c *sendCounter) Record(ev trace.Event) {
	switch ev.Kind {
	case trace.EvSend:
		c.byPort[ev.Obj]++
	case trace.EvPark:
		c.parks++
	}
}

// workloadSends counts the sends to the workload's own ports, leaving out
// the dispatching port's: making a process ready is a send of its process
// object there.
func (b *batch) workloadSends() uint64 {
	var n uint64
	for _, p := range b.ports {
		n += b.sends.byPort[uint32(p.Index)]
	}
	return n
}

// span is one Step call of a traced run: host start and end in
// nanoseconds since the run began, and the counter deltas it caused.
type span struct {
	Start, End int64
	Stats      gdp.Stats
	Par        gdp.ParStats
	Trace      gdp.TraceStats
}

// runOut is what one drive of a batch to idle produced: host seconds,
// virtual cycles, the counter deltas over the run, and its spans.
type runOut struct {
	runS    float64
	vcycles vtime.Cycles
	stats   gdp.Stats
	par     gdp.ParStats
	trace   gdp.TraceStats
	spans   []span // nil unless traced
}

// run drives the system to idle exactly as gdp.Run(0) does when no timer
// is armed, observing job completions between steps. With traced set it
// records one span per Step call.
func (b *batch) run(traced bool) (runOut, error) {
	sys := b.sys
	var out runOut
	pending := make([]int, len(b.jobs))
	for i := range pending {
		pending[i] = i
	}
	stats0, par0, trace0 := sys.Stats(), sys.ParStats(), sys.TraceStats()
	prevStats, prevPar, prevTrace := stats0, par0, trace0
	if traced {
		out.spans = make([]span, 0, 1024)
	}
	start := sys.Now()
	t0 := time.Now()
	for {
		var s0 int64
		if traced {
			s0 = time.Since(t0).Nanoseconds()
		}
		worked, f := sys.Step(stepQuantum)
		if traced {
			sp := span{Start: s0, End: time.Since(t0).Nanoseconds()}
			st, ps, ts := sys.Stats(), sys.ParStats(), sys.TraceStats()
			sp.Stats, sp.Par, sp.Trace = statsDelta(st, prevStats), parDelta(ps, prevPar), traceDelta(ts, prevTrace)
			prevStats, prevPar, prevTrace = st, ps, ts
			out.spans = append(out.spans, sp)
		}
		if f != nil {
			return out, faultErr("step", f)
		}
		now := sys.Now()
		for i := 0; i < len(pending); {
			j := &b.jobs[pending[i]]
			if v, err := sys.Table.Memory().ReadDWord(j.data, 0); err == nil && v == j.want {
				j.done, j.doneAt = true, now-start
				pending[i] = pending[len(pending)-1]
				pending = pending[:len(pending)-1]
				continue
			}
			i++
		}
		if !worked {
			if sys.NextTimer() != 0 {
				return out, fmt.Errorf("%s: idle with a timer armed", b.spec.name)
			}
			break
		}
	}
	out.runS = time.Since(t0).Seconds()
	out.vcycles = sys.Now() - start
	out.stats = statsDelta(sys.Stats(), stats0)
	out.par = parDelta(sys.ParStats(), par0)
	out.trace = traceDelta(sys.TraceStats(), trace0)
	return out, nil
}

// check makes the output checks of a finished run: every job's final
// store (a closed-form sum, or a player's N round trips) was seen by the
// loop and is still in place, and the object table grew by exactly the
// alloc loops' creates. It returns the checks made and failed.
func (b *batch) check() (attempted, failed int, why []string) {
	for i, j := range b.jobs {
		attempted++
		v, f := b.sys.Table.ReadDWord(j.result, 0)
		if f != nil || v != j.want || !j.done {
			failed++
			why = append(why, fmt.Sprintf("job %d stored %d, want %d (fault %v)", i, v, j.want, f))
		}
	}
	if b.creates == 0 {
		return attempted, failed, why
	}
	attempted++
	created, _, _, _ := b.sys.Table.Stats()
	if grew := created - b.created; grew != b.creates {
		failed++
		why = append(why, fmt.Sprintf("object table grew by %d, want %d creates", grew, b.creates))
	}
	return attempted, failed, why
}

// latencies returns the jobs' completion times in virtual cycles.
func (b *batch) latencies() []float64 {
	out := make([]float64, len(b.jobs))
	for i, j := range b.jobs {
		out[i] = float64(j.doneAt)
	}
	return out
}

func statsDelta(a, b gdp.Stats) gdp.Stats {
	return gdp.Stats{
		Dispatches:   a.Dispatches - b.Dispatches,
		Preemptions:  a.Preemptions - b.Preemptions,
		FaultsSent:   a.FaultsSent - b.FaultsSent,
		Instructions: a.Instructions - b.Instructions,
	}
}

func parDelta(a, b gdp.ParStats) gdp.ParStats {
	return gdp.ParStats{
		Epochs:              a.Epochs - b.Epochs,
		Commits:             a.Commits - b.Commits,
		Conflicts:           a.Conflicts - b.Conflicts,
		Aborts:              a.Aborts - b.Aborts,
		AbortsStructural:    a.AbortsStructural - b.AbortsStructural,
		AbortsReservation:   a.AbortsReservation - b.AbortsReservation,
		AbortsOther:         a.AbortsOther - b.AbortsOther,
		Replays:             a.Replays - b.Replays,
		Cooldowns:           a.Cooldowns - b.Cooldowns,
		ScopedInvalidations: a.ScopedInvalidations - b.ScopedInvalidations,
		CacheSurvivals:      a.CacheSurvivals - b.CacheSurvivals,
		Regroups:            a.Regroups - b.Regroups,
		PipeLaunches:        a.PipeLaunches - b.PipeLaunches,
		PipeCommits:         a.PipeCommits - b.PipeCommits,
		PipeDrops:           a.PipeDrops - b.PipeDrops,
		ForkCreates:         a.ForkCreates - b.ForkCreates,
	}
}

func traceDelta(a, b gdp.TraceStats) gdp.TraceStats {
	return gdp.TraceStats{
		Compiled:     a.Compiled - b.Compiled,
		FusedOps:     a.FusedOps - b.FusedOps,
		Entries:      a.Entries - b.Entries,
		Instructions: a.Instructions - b.Instructions,
		Deopts:       a.Deopts - b.Deopts,
		Exits:        a.Exits - b.Exits,
	}
}

// requests is the batch's unit of completed work for req_per_s: a round
// trip of the ping-pong, otherwise one process's job.
func (spec *batchSpec) requests() float64 {
	if spec.pingPong {
		return float64(spec.iters[0])
	}
	return float64(len(spec.iters))
}

// measureBatch is the untraced run of a closed-batch workload: a fresh
// set-up and run per iteration until the budget is spent. The modelled
// machine's figures (vcycles, job latencies) must repeat exactly.
func measureBatch(name string, seed int64, budget time.Duration) (*report, error) {
	spec, err := newBatchSpec(name, seed)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	var host hostFigures
	var lats []float64
	var vcycles vtime.Cycles
	err = loop(budget, minIters, func(i int) error {
		runtime.GC()
		t0 := time.Now()
		b, err := spec.setup(arm{})
		if err != nil {
			return err
		}
		setupS := time.Since(t0).Seconds()
		memMB := liveMB()
		out, err := b.run(false)
		if err != nil {
			return err
		}
		memMB = max(memMB, liveMB())
		rep.add(b.check())
		host.addSetup(i, setupS)
		host.add(i, memMB, out.runS, float64(out.stats.Instructions), spec.requests())
		l := b.latencies()
		if i == 0 {
			vcycles, lats = out.vcycles, l
			return nil
		}
		rep.expect(out.vcycles == vcycles && slices.Equal(l, lats),
			fmt.Sprintf("iteration %d: vcycles %d or job latencies differ from iteration 0 (%d)", i, out.vcycles, vcycles))
		return nil
	})
	if err != nil {
		return nil, err
	}
	host.report(rep)
	rep.set("vcycles", float64(vcycles), "cycles")
	rep.set("lat_p50_vcycles", nearestRank(lats, 0.50), "cycles")
	return rep, nil
}
