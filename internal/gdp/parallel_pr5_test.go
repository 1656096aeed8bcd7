package gdp

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/obj"
	"repro/internal/trace"
)

// pingpongWorkload spawns a blocking two-process ping-pong over capacity-1
// ports — the shape whose every epoch communicates across processors.
func pingpongWorkload(t testing.TB, s *System, msgs int) {
	t.Helper()
	ping, f := s.Ports.Create(s.Heap, 1, 0)
	if f != nil {
		t.Fatal(f)
	}
	pong, f := s.Ports.Create(s.Heap, 1, 0)
	if f != nil {
		t.Fatal(f)
	}
	ball, f := s.SROs.Create(s.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8})
	if f != nil {
		t.Fatal(f)
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
	serve := mustDomain(t, s, player(true))
	ret := mustDomain(t, s, player(false))
	if _, f := s.Spawn(serve, SpawnSpec{AArgs: [4]obj.AD{obj.NilAD, ball, pong, ping}}); f != nil {
		t.Fatal(f)
	}
	if _, f := s.Spawn(ret, SpawnSpec{AArgs: [4]obj.AD{obj.NilAD, obj.NilAD, ping, pong}}); f != nil {
		t.Fatal(f)
	}
}

// TestAffinityGroupsPingPong: conflict-affinity scheduling must learn that
// the two ping-pong processors keep conflicting, co-schedule them into one
// group (a regroup), and then commit the epochs whose traffic now
// serialises inside the group — the workload that previously never
// committed a single epoch. State must stay byte-identical to serial.
func TestAffinityGroupsPingPong(t *testing.T) {
	build := func(hostpar bool) *System {
		s, err := New(Config{Processors: 2, HostParallel: hostpar})
		if err != nil {
			t.Fatal(err)
		}
		s.SetTracer(trace.New(1 << 16))
		pingpongWorkload(t, s, 300)
		return s
	}
	ser, par := build(false), build(true)
	eSer, f := ser.Run(100_000_000)
	if f != nil {
		t.Fatal(f)
	}
	ePar, f := par.Run(100_000_000)
	if f != nil {
		t.Fatal(f)
	}
	if eSer != ePar {
		t.Fatalf("elapsed: serial %d vs parallel %d", eSer, ePar)
	}
	mustEqualSystems(t, ser, par)

	ps := par.ParStats()
	if ps.Commits == 0 {
		t.Fatalf("ping-pong never committed an epoch despite affinity grouping: %+v", ps)
	}
	if ps.Regroups == 0 {
		t.Fatalf("conflict pressure never regrouped the partition: %+v", ps)
	}
	if ps.Epochs != ps.Commits+ps.Replays || ps.Replays != ps.Conflicts+ps.Aborts {
		t.Fatalf("inconsistent counters: %+v", ps)
	}
}

// TestSurvivingCacheNeverMasksCommittedWrite is the scoped-invalidation
// regression: a mixed machine (blocking ping-pong next to disjoint compute)
// where execution caches are primed on serial replays, survive later
// committed epochs, and keep executing — every byte must still match the
// uncached serial reference. A survival that masked a committed write would
// diverge the clocks, the stats, the results, or the trace.
func TestSurvivingCacheNeverMasksCommittedWrite(t *testing.T) {
	type built struct {
		s       *System
		results []obj.AD
	}
	build := func(hostpar, nocache bool) built {
		s, err := New(Config{Processors: 3, HostParallel: hostpar, NoExecCache: nocache})
		if err != nil {
			t.Fatal(err)
		}
		s.SetTracer(trace.New(1 << 16))
		pingpongWorkload(t, s, 200)
		return built{s, computeWorkload(t, s, 4)}
	}
	ref, par := build(false, true), build(true, false)
	eRef, f := ref.s.Run(100_000_000)
	if f != nil {
		t.Fatal(f)
	}
	ePar, f := par.s.Run(100_000_000)
	if f != nil {
		t.Fatal(f)
	}
	if eRef != ePar {
		t.Fatalf("elapsed: reference %d vs parallel cached %d", eRef, ePar)
	}
	for i := range ref.results {
		vr, _ := ref.s.Table.ReadDWord(ref.results[i], 0)
		vp, _ := par.s.Table.ReadDWord(par.results[i], 0)
		if vr != vp || vr == 0 {
			t.Fatalf("result %d: reference %d vs parallel cached %d", i, vr, vp)
		}
	}
	mustEqualSystems(t, ref.s, par.s)

	ps := par.s.ParStats()
	if ps.Commits == 0 {
		t.Fatalf("mixed workload never committed: %+v", ps)
	}
	if ps.CacheSurvivals == 0 {
		t.Fatalf("no cache ever survived a commit — the regression has no teeth: %+v", ps)
	}
}

// TestCacheTouchesScope pins the kill criterion of scoped invalidation: a
// cache dies iff the committed write set lands on an object it pins — its
// process, context, domain, code object, or any filled resolve way — and
// survives everything else, including the empty write set.
func TestCacheTouchesScope(t *testing.T) {
	xc := &execCache{
		proc: obj.AD{Index: 10, Gen: 1, Rights: obj.RightsAll},
		ctx:  obj.AD{Index: 11, Gen: 1, Rights: obj.RightsAll},
		dom:  obj.AD{Index: 12, Gen: 1, Rights: obj.RightsAll},
		code: obj.AD{Index: 13, Gen: 1, Rights: obj.RightsAll},
	}
	way := obj.AD{Index: 20, Gen: 1, Rights: obj.RightsAll}
	xc.res[uint32(way.Index)%resolveWays] = resolveEntry{ad: way, win: make([]byte, 4)}

	if cacheTouches(xc, nil) {
		t.Fatal("empty write set must not touch")
	}
	if cacheTouches(xc, []obj.Index{5, 9, 14, 19, 21}) {
		t.Fatal("disjoint write set must not touch")
	}
	for _, idx := range []obj.Index{10, 11, 12, 13, 20} {
		if !cacheTouches(xc, []obj.Index{7, idx}) {
			t.Fatalf("write to pinned object %d must touch", idx)
		}
	}
	// An empty resolve way must not match writes to index 0.
	if cacheTouches(xc, []obj.Index{0}) {
		t.Fatal("empty way matched a write to index 0")
	}
}

// TestScopedInvalidationKillsHazardTargets: a committed epoch whose write
// set includes an object a live cache pins must invalidate that cache (and
// only that cache). Exercised directly against the driver's invalidation
// pass with hand-built cache states.
func TestScopedInvalidationKillsHazardTargets(t *testing.T) {
	s, err := New(Config{Processors: 2, HostParallel: true})
	if err != nil {
		t.Fatal(err)
	}
	computeWorkload(t, s, 2)
	// Run a bounded warmup so real caches prime; the budget timeout on a
	// still-busy system is the expected outcome, not a failure.
	if _, f := s.Run(20_000); f != nil && f.Code != obj.FaultTimeout {
		t.Fatal(f)
	}
	gen := s.Table.CacheGen()
	live := 0
	for _, cpu := range s.CPUs {
		if cpu.xc != nil && cpu.xc.gen == gen && cpu.xc.proc == cpu.proc && cpu.proc.Valid() {
			live++
		}
	}
	if live == 0 {
		t.Skip("no live caches after the warmup run; nothing to exercise")
	}
	before := s.ParStats()
	// A write set containing every bound process index must kill every
	// live cache.
	var writes []obj.Index
	for _, cpu := range s.CPUs {
		if cpu.proc.Valid() {
			writes = append(writes, cpu.proc.Index)
		}
	}
	s.scopedInvalidate(writes)
	after := s.ParStats()
	if got := after.ScopedInvalidations - before.ScopedInvalidations; got != uint64(live) {
		t.Fatalf("scoped invalidations = %d, want %d", got, live)
	}
	for _, cpu := range s.CPUs {
		if cpu.xc != nil && cpu.xc.gen == gen && cpu.xc.proc == cpu.proc && cpu.proc.Valid() {
			t.Fatalf("cpu %d cache survived a write to its own process", cpu.ID)
		}
	}
	// With the caches now stale, a disjoint write set counts no survivors
	// and kills nothing.
	before = after
	s.scopedInvalidate([]obj.Index{^obj.Index(0)})
	after = s.ParStats()
	if after.ScopedInvalidations != before.ScopedInvalidations ||
		after.CacheSurvivals != before.CacheSurvivals {
		t.Fatalf("stale caches were counted: %+v -> %+v", before, after)
	}
}
