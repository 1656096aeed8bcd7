// Package gdp implements the simulated general data processor (GDP) and
// the lock-step multiprocessor driver that stands in for the 432's shared
// bus (see DESIGN.md, "Substitutions").
//
// The package supplies the *implicit* hardware operations of §2 and §5 of
// the paper: "ready processes are dispatched on processors automatically by
// the hardware via algorithms that involve processor, process, and
// dispatching port objects"; faulting processes are "sent back to software
// when various fault or scheduling conditions arise"; send/receive block
// and resume processes without software intervention.
//
// Each simulated processor owns a virtual cycle clock and executes bounded
// quanta in turn, so multiprocessor interleavings are real (all
// synchronisation in the layers above must be explicit, per §3) while runs
// stay deterministic and testable.
package gdp

import (
	"fmt"

	"repro/internal/domain"
	"repro/internal/obj"
	"repro/internal/port"
	"repro/internal/process"
	"repro/internal/sro"
	"repro/internal/trace"
	"repro/internal/typedef"
	"repro/internal/vtime"
)

// DispatchCapacity bounds the number of ready processes queued at one
// dispatching port.
const DispatchCapacity = 1024

// Processor object data layout (diagnostic identity only; the live state
// is in the CPU struct, as the real processor's was on-chip).
const (
	procObjData = 8
)

// Processor object access slots: the roots the collector scans to find
// everything a running processor can reach.
const (
	cpuSlotCurrent  = 0 // currently bound process
	cpuSlotDispatch = 1 // dispatching port this processor draws from
	cpuSlots        = 2
)

// BodyStatus is the result of one scheduling step of a native process.
type BodyStatus uint8

const (
	// BodyContinue: the body has more work; keep it in the dispatch mix.
	BodyContinue BodyStatus = iota
	// BodyYield: no work right now; requeue it (it will run again on a
	// later dispatch).
	BodyYield
	// BodyWaiting: the body blocks; whoever wakes it must requeue it.
	BodyWaiting
	// BodyDone: the process terminates.
	BodyDone
)

// Injector is the deterministic fault-injection hook (internal/inject).
// The interpreter consults it before every instruction on the serial
// backend: when the system-wide executed-instruction count reaches NextAt,
// Fire runs against the machine exactly as the serial interleaving sees it
// at that instant. The parallel backend refuses to speculate across an
// imminent injection (injectionImminent, parallel.go), and epoch forks are
// never handed the injector, so an injection always mutates real state and
// every {serial,parallel}×{cache on,off} corner observes the identical
// machine — injected runs stay byte-for-byte replayable.
type Injector interface {
	// NextAt reports the system-wide instruction count at which the next
	// injection is due, or ^uint64(0) when the plan is exhausted. It must
	// be cheap and pure: the driver calls it per instruction and at epoch
	// boundaries.
	NextAt() uint64
	// Fire performs every injection due at the current instruction count
	// and advances past it (a Fire that left NextAt in the past would
	// fire forever). cpu is the processor about to execute, with a VM
	// process bound. A non-nil fault is delivered to that process exactly
	// as an instruction fault would be.
	Fire(s *System, cpu *CPU) *obj.Fault
}

// SetInjector installs the fault injector, or removes it with nil. Install
// it before running the workload; swapping injectors mid-run breaks the
// determinism argument.
func (s *System) SetInjector(i Injector) { s.inj = i }

// NativeBody is the Go body of a native process (the GC daemon, device
// drivers, schedulers — the parts of iMAX that are software, scheduled
// exactly like any other process per §8.1's "daemon process"). Each call
// performs a bounded chunk of work and reports the cycles it consumed.
type NativeBody interface {
	Step(sys *System, proc obj.AD) (vtime.Cycles, BodyStatus, *obj.Fault)
}

// NativeBodyFunc adapts a function to NativeBody.
type NativeBodyFunc func(sys *System, proc obj.AD) (vtime.Cycles, BodyStatus, *obj.Fault)

// Step implements NativeBody.
func (f NativeBodyFunc) Step(sys *System, proc obj.AD) (vtime.Cycles, BodyStatus, *obj.Fault) {
	return f(sys, proc)
}

// System is one 432 node: shared memory, the object table, and 1..N
// processors drawing from a common dispatching port.
type System struct {
	Table   *obj.Table
	SROs    *sro.Manager
	Ports   *port.Manager
	Procs   *process.Manager
	Domains *domain.Manager
	TDOs    *typedef.Manager

	// Heap is the system global heap (level 0).
	Heap obj.AD
	// Dispatch is the default dispatching port: a priority-discipline
	// port whose messages are process objects.
	Dispatch obj.AD

	CPUs []*CPU

	// Trace, when non-nil, observes every instruction after it
	// executes: processor id, executing process, the instruction, and
	// the fault it raised (nil for none). Tracing is for diagnosis and
	// the imax CLI; it sees the machine exactly as it ran, but slows
	// the simulation.
	Trace func(cpu int, proc obj.AD, in TraceEvent)

	bodies       map[obj.Index]bodyReg
	timers       []timer
	contention   vtime.Cycles
	busyThisStep int
	deadline     bool
	deadlineBase vtime.Cycles

	// Parallel host backend (parallel.go). hostpar enables it; forks are
	// the per-processor epoch forks, built lazily (an epoch uses one per
	// affinity group); spec is non-nil only on the epoch-fork shadow
	// systems themselves. parCooldown is the resolved abort-backoff
	// length; parStreak counts consecutive discarded epochs and
	// parCoolLeft the serial steps still owed to the current backoff.
	// Conflict-detection scratch maps are pooled across epochs
	// (cfDescs/cfPages/cfIDs), as are the epoch's conflicting group pairs
	// (cfPairs) and committed descriptor write set (cfWrites).
	hostpar     bool
	forks       []*epochFork
	spec        *specCtl
	parCooldown int
	parStreak   int
	parCoolLeft int
	cfDescs     map[obj.Index]touchers
	cfPages     map[uint32]touchers
	cfIDs       []int
	cfPairs     [][2]int
	cfWrites    []obj.Index

	// structOff disables in-fork structural commit via reservations
	// (Config.NoStructuralCommit).
	structOff bool

	// Conflict-affinity scheduling state (parallel.go). affinity maps a
	// canonical processor-pair key to a decayed conflict score; groups is
	// the current epoch's partition (leader-ordered, members ascending),
	// groupOf the per-processor group index, prevGroupOf last epoch's for
	// the Regroups counter, ufScratch the pooled union-find array.
	affinity    map[int]int
	groups      [][]int
	groupOf     []int
	prevGroupOf []int
	ufScratch   []int

	// xcOff disables the execution cache (Config.NoExecCache), forcing
	// every instruction down the uncached reference path.
	xcOff bool

	// Trace-compiler state (trace.go). trOff disables the profile-guided
	// trace JIT (Config.NoTraceJIT); traceTabs holds one per-code-object
	// trace table, keyed by descriptor index and validated against the
	// descriptor generation, so slot reuse can never revive a stale trace.
	trOff     bool
	traceTabs map[obj.Index]*codeTraces

	// Trace-compiler stats (host-level diagnostics; never part of the
	// deterministic fingerprint — corners differ in how much they fuse).
	trCompiled uint64
	trFused    uint64
	trEntries  uint64
	trInstrs   uint64
	trDeopts   uint64
	trExits    uint64

	// inj is the installed fault injector, nil in production runs. Epoch
	// forks never receive it (buildForks), so injections only ever mutate
	// real state.
	inj Injector

	// Stats.
	dispatches   uint64
	preemptions  uint64
	faultsSent   uint64
	instructions uint64

	// Parallel-backend stats. parAborts splits by cause into
	// parAbortsStruct (unreservable structural operations), parAbortsRes
	// (reservation exhaustion mid-epoch), and parAbortsOther (faults,
	// trace-ring overflow). parForkCreates counts objects created from
	// reservations (committed or serial).
	// parWinDeclines holds the fork window declines of forks since
	// rebuilt; ParStats adds the live forks' own counts.
	parEpochs       uint64
	parCommits      uint64
	parConflicts    uint64
	parAborts       uint64
	parAbortsStruct uint64
	parAbortsRes    uint64
	parAbortsOther  uint64
	parReplays      uint64
	parCooldowns    uint64
	parScopedInv    uint64
	parSurvivals    uint64
	parRegroups     uint64
	parForkCreates  uint64
	parWinDeclines  uint64
}

type bodyReg struct {
	gen  uint32
	body NativeBody
}

// Config sizes a new system.
type Config struct {
	MemoryBytes uint32 // default 16 MB
	Processors  int    // default 1

	// BusContention, when non-zero, charges each executed instruction
	// this many extra cycles per *other* busy processor, modelling the
	// shared-memory bus every 432 processor arbitrated for. Zero (the
	// default) models the paper's idealised "factor of 10" regime; the
	// historical record of the 432 suggests the bus was the real
	// machine's bottleneck, and the E3 contention ablation shows the
	// scaling curve bending exactly as that would predict.
	BusContention vtime.Cycles

	// DeadlineDispatch selects deadline-ordered dispatching: each ready
	// process queues with deadline now + period/(priority+1), so high
	// priority still means quicker service but a starved low-priority
	// process's deadline eventually comes due — the aging behaviour of
	// the real 432's deadline-within-priority dispatching port. The
	// default is strict priority order (starvation possible by design;
	// resource control is a scheduler's job, §6.1).
	DeadlineDispatch bool
	// DeadlineBase is the period scaled by priority under deadline
	// dispatch; 0 means 100000 cycles.
	DeadlineBase vtime.Cycles

	// HostParallel opts into the parallel host backend: within each Step,
	// every simulated processor's quantum runs on its own host goroutine
	// against epoch-local forked state, committing in canonical processor
	// order at a barrier. Results are byte-identical to the serial
	// backend — any cross-processor conflict falls back to serial replay
	// of the epoch. See parallel.go.
	HostParallel bool

	// ParallelCooldown is the abort backoff of the parallel backend: after
	// parStreakLimit consecutive discarded epochs the system runs this many
	// steps on the serial backend before speculating again, so workloads
	// whose every epoch conflicts (the E12 ping-pong) stop paying fork
	// setup plus serial replay for each step. 0 means the default (32);
	// negative disables the backoff entirely.
	ParallelCooldown int

	// NoExecCache disables the per-CPU execution cache (xcache.go),
	// forcing the uncached reference interpreter. Results are identical
	// either way — the switch exists for benchmarking the cache and for
	// the differential determinism harnesses.
	NoExecCache bool

	// NoTraceJIT disables the profile-guided trace compiler (trace.go)
	// layered on the execution cache, leaving the per-instruction fast
	// path of PR 3/5. Results are identical either way — the switch
	// exists for benchmarking the compiler and for the six-corner
	// differential determinism harnesses. Implied by NoExecCache: traces
	// only ever run from a live execution cache.
	NoTraceJIT bool

	// Deprecated: no effect; the epoch pipeline was removed. Kept so
	// perfbench/ compiles; remove with the next benchmark change.
	NoPipeline bool

	// NoStructuralCommit disables per-CPU reservations, so every create
	// instruction takes the structural path — aborting the epoch when it
	// happens inside a fork, exactly the pre-reservation behaviour.
	// Serial and parallel backends stay byte-identical at either setting,
	// but the two settings are distinct canonical schedules: reservations
	// batch-pop free-list slots at refill time, so objects may land in
	// different (equally valid) descriptor slots than pop-at-create
	// assigns. The switch exists for measuring what in-fork structural
	// commit buys.
	NoStructuralCommit bool
}

// New boots a system: memory, object table, the system global heap, the
// dispatching port, and the processor objects.
func New(cfg Config) (*System, error) {
	if cfg.MemoryBytes == 0 {
		cfg.MemoryBytes = 16 << 20
	}
	if cfg.Processors <= 0 {
		cfg.Processors = 1
	}
	tab := obj.NewTable(cfg.MemoryBytes)
	sros := sro.NewManager(tab)
	heap, f := sros.NewGlobalHeap(0)
	if f != nil {
		return nil, fmt.Errorf("gdp: creating global heap: %w", error(f))
	}
	if f := tab.Pin(heap); f != nil {
		return nil, error(f)
	}
	ports := port.NewManager(tab, sros)
	procs := process.NewManager(tab, sros)
	doms := domain.NewManager(tab, sros)
	tdos := typedef.NewManager(tab)

	discipline := port.Priority
	if cfg.DeadlineDispatch {
		discipline = port.Deadline
	}
	dispatch, f := ports.Create(heap, DispatchCapacity, discipline)
	if f != nil {
		return nil, fmt.Errorf("gdp: creating dispatch port: %w", error(f))
	}
	if f := tab.Pin(dispatch); f != nil {
		return nil, error(f)
	}

	deadlineBase := cfg.DeadlineBase
	if deadlineBase == 0 {
		deadlineBase = 100_000
	}
	parCooldown := cfg.ParallelCooldown
	if parCooldown == 0 {
		parCooldown = 32
	} else if parCooldown < 0 {
		parCooldown = 0
	}
	s := &System{
		Table:        tab,
		SROs:         sros,
		Ports:        ports,
		Procs:        procs,
		Domains:      doms,
		TDOs:         tdos,
		Heap:         heap,
		Dispatch:     dispatch,
		contention:   cfg.BusContention,
		deadline:     cfg.DeadlineDispatch,
		deadlineBase: deadlineBase,
		hostpar:      cfg.HostParallel,
		parCooldown:  parCooldown,
		structOff:    cfg.NoStructuralCommit,
		xcOff:        cfg.NoExecCache,
		trOff:        cfg.NoTraceJIT,
		bodies:       make(map[obj.Index]bodyReg),
	}
	for i := 0; i < cfg.Processors; i++ {
		cpu, err := s.addCPU(i)
		if err != nil {
			return nil, err
		}
		s.CPUs = append(s.CPUs, cpu)
	}
	return s, nil
}

func (s *System) addCPU(id int) (*CPU, error) {
	pobj, f := s.SROs.Create(s.Heap, obj.CreateSpec{
		Type:        obj.TypeProcessor,
		DataLen:     procObjData,
		AccessSlots: cpuSlots,
		Pinned:      true,
	})
	if f != nil {
		return nil, fmt.Errorf("gdp: creating processor object: %w", error(f))
	}
	if f := s.Table.WriteDWord(pobj, 0, uint32(id)); f != nil {
		return nil, error(f)
	}
	if f := s.Table.StoreADSystem(pobj, cpuSlotDispatch, s.Dispatch); f != nil {
		return nil, error(f)
	}
	return &CPU{ID: id, Obj: pobj}, nil
}

// SpawnSpec describes a process to start.
type SpawnSpec struct {
	Priority  uint16
	TimeSlice uint32 // cycles; 0 = never preempted
	FaultPort obj.AD // where the process goes when it faults
	SchedPort obj.AD // process-manager notification port
	Parent    obj.AD
	Heap      obj.AD // SRO to allocate from; default system heap
	// Args preload data registers r0..r3 of the initial context.
	Args [4]uint32
	// AArgs preload access registers a0..a3.
	AArgs [4]obj.AD
}

// Spawn creates a process executing entry 0 of the given domain and queues
// it at the dispatching port.
func (s *System) Spawn(dom obj.AD, spec SpawnSpec) (obj.AD, *obj.Fault) {
	heap := spec.Heap
	if !heap.Valid() {
		heap = s.Heap
	}
	p, f := s.Procs.Create(heap, process.Spec{
		Priority:     spec.Priority,
		TimeSlice:    spec.TimeSlice,
		FaultPort:    spec.FaultPort,
		DispatchPort: s.Dispatch,
		SchedPort:    spec.SchedPort,
		Parent:       spec.Parent,
	})
	if f != nil {
		return obj.NilAD, f
	}
	ctx, f := s.Procs.PushContext(p, dom)
	if f != nil {
		return obj.NilAD, f
	}
	ip, f := s.Domains.EntryIP(dom, 0)
	if f != nil {
		return obj.NilAD, f
	}
	if f := s.Procs.SetIP(ctx, ip); f != nil {
		return obj.NilAD, f
	}
	for i, v := range spec.Args {
		if f := s.Procs.SetReg(ctx, uint8(i), v); f != nil {
			return obj.NilAD, f
		}
	}
	for i, ad := range spec.AArgs {
		if !ad.Valid() {
			continue
		}
		if f := s.Procs.SetAReg(ctx, uint8(i), ad); f != nil {
			return obj.NilAD, f
		}
	}
	if f := s.MakeReady(p); f != nil {
		return obj.NilAD, f
	}
	if l := s.Table.Tracer(); l != nil {
		l.Emit(trace.EvSpawn, uint32(p.Index), 0, 0)
	}
	return p, nil
}

// SpawnNative creates a process whose body is Go code, scheduled like any
// other process.
func (s *System) SpawnNative(body NativeBody, spec SpawnSpec) (obj.AD, *obj.Fault) {
	heap := spec.Heap
	if !heap.Valid() {
		heap = s.Heap
	}
	p, f := s.Procs.Create(heap, process.Spec{
		Priority:     spec.Priority,
		TimeSlice:    spec.TimeSlice,
		FaultPort:    spec.FaultPort,
		DispatchPort: s.Dispatch,
		SchedPort:    spec.SchedPort,
		Parent:       spec.Parent,
	})
	if f != nil {
		return obj.NilAD, f
	}
	d := s.Table.DescriptorAt(p.Index)
	s.bodies[p.Index] = bodyReg{gen: d.Gen, body: body}
	if f := s.MakeReady(p); f != nil {
		return obj.NilAD, f
	}
	if l := s.Table.Tracer(); l != nil {
		l.Emit(trace.EvSpawn, uint32(p.Index), 1, 0)
	}
	return p, nil
}

// nativeBodyOf returns the registered body for a process, if any.
func (s *System) nativeBodyOf(p obj.AD) NativeBody {
	reg, ok := s.bodies[p.Index]
	if !ok {
		return nil
	}
	d := s.Table.DescriptorAt(p.Index)
	if d == nil || d.Gen != reg.gen {
		return nil
	}
	return reg.body
}

// MakeReady queues the process at its dispatching port with its priority
// as the key. This is the single hardware path by which a process enters
// the dispatch mix — wakeups, time-slice end, and explicit starts all
// funnel through it.
func (s *System) MakeReady(p obj.AD) *obj.Fault {
	if _, f := s.Table.RequireType(p, obj.TypeProcess); f != nil {
		return f
	}
	if st, f := s.Procs.StateOf(p); f != nil {
		return f
	} else if st == process.StateTerminated {
		return nil
	}
	// A process with stops outstanding stays out of the mix (§6.1): it
	// is parked in the stopped state and the process manager requeues
	// it on the matching start. This is the hook that lets stop/start
	// apply cleanly even to processes that were blocked at a port when
	// stopped — the wakeup funnels through here and parks them.
	if sc, f := s.Procs.StopCount(p); f != nil {
		return f
	} else if sc > 0 {
		return s.Procs.SetState(p, process.StateStopped)
	}
	dport, f := s.Procs.Link(p, process.SlotDispatchPort)
	if f != nil {
		return f
	}
	if !dport.Valid() {
		dport = s.Dispatch
	}
	prio, f := s.Procs.Priority(p)
	if f != nil {
		return f
	}
	if f := s.Procs.SetState(p, process.StateReady); f != nil {
		return f
	}
	key := uint32(prio)
	if s.deadline {
		// Deadline-within-priority: higher priority means a nearer
		// deadline, but every ready process's turn eventually comes
		// due — aging instead of starvation.
		key = uint32(s.Now() + s.deadlineBase/vtime.Cycles(prio+1))
	}
	blocked, _, f := s.Ports.Send(dport, p, key, obj.NilAD)
	if f != nil {
		return f
	}
	if blocked {
		return obj.Faultf(obj.FaultBounds, dport, "dispatch port overflow")
	}
	return nil
}

// SetTracer installs the kernel event log on the system and its object
// table; every subsystem built over the table picks it up from there. Pass
// nil to disable tracing.
func (s *System) SetTracer(l *trace.Log) { s.Table.SetTracer(l) }

// Tracer reports the installed kernel event log, possibly nil.
func (s *System) Tracer() *trace.Log { return s.Table.Tracer() }

// Stats reports system-wide event counts.
type Stats struct {
	Dispatches   uint64
	Preemptions  uint64
	FaultsSent   uint64
	Instructions uint64
}

// Stats returns the current counters.
func (s *System) Stats() Stats {
	return Stats{
		Dispatches:   s.dispatches,
		Preemptions:  s.preemptions,
		FaultsSent:   s.faultsSent,
		Instructions: s.instructions,
	}
}

// Now reports the system-wide virtual time: the maximum over processor
// clocks (they run in parallel).
func (s *System) Now() vtime.Cycles {
	var t vtime.Cycles
	for _, c := range s.CPUs {
		t = vtime.Max(t, c.Clock.Now())
	}
	return t
}

// TotalCycles reports the sum of all processor clocks: consumed machine
// capacity, for utilisation measures.
func (s *System) TotalCycles() vtime.Cycles {
	var t vtime.Cycles
	for _, c := range s.CPUs {
		t += c.Clock.Now()
	}
	return t
}
