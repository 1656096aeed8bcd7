package gdp

// Unit tests for the parallel backend's knobs and in-fork structural
// commit: the backend choice and NoStructuralCommit must be pure
// performance switches — byte-identical results — and the default
// configuration must actually commit creates in-fork on the allocation
// shape reservations exist for.

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/obj"
	"repro/internal/trace"
)

// allocWorkload spawns workers running the E2 allocate shape — a tight
// create loop off the global heap with a read and a store per iteration.
func allocWorkload(t *testing.T, s *System, workers int) []obj.AD {
	t.Helper()
	results := make([]obj.AD, workers)
	for i := range results {
		r, f := s.SROs.Create(s.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8})
		if f != nil {
			t.Fatal(f)
		}
		dom := mustDomain(t, s, []isa.Instr{
			isa.MovI(1, uint32(300+i*11)),
			isa.MovI(2, 32),
			isa.Create(3, 2, 2), // loop head: a3 ← new object from a2
			isa.Store(1, 3, 0),
			isa.Load(4, 0, 0),
			isa.AddI(1, 1, ^uint32(0)),
			isa.BrNZ(1, 2),
			isa.Store(4, 0, 0),
			isa.Halt(),
		})
		if _, f := s.Spawn(dom, SpawnSpec{AArgs: [4]obj.AD{r, obj.NilAD, s.Heap}}); f != nil {
			t.Fatal(f)
		}
		results[i] = r
	}
	return results
}

// TestParallelKnobsAreSemanticsFree: the same compute workload run on the
// serial backend, the parallel backend, and the parallel backend with
// structural commit off must end in identical machine states.
func TestParallelKnobsAreSemanticsFree(t *testing.T) {
	build := func(cfg Config) *System {
		cfg.Processors = 2
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.SetTracer(trace.New(1 << 16))
		computeWorkload(t, s, 2)
		return s
	}
	def := build(Config{HostParallel: true})
	noStruct := build(Config{HostParallel: true, NoStructuralCommit: true})
	serial := build(Config{})
	for _, s := range []*System{def, noStruct, serial} {
		if _, f := s.Run(100_000_000); f != nil {
			t.Fatal(f)
		}
	}
	mustEqualSystems(t, serial, def)
	mustEqualSystems(t, serial, noStruct)
}

// TestInForkCreateCommits: the allocate shape must commit its creates
// inside epoch forks by default, and degrade to structural aborts — with
// identical bytes — when reservations are disabled.
func TestInForkCreateCommits(t *testing.T) {
	build := func(cfg Config) *System {
		cfg.Processors = 2
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.SetTracer(trace.New(1 << 16))
		allocWorkload(t, s, 2)
		return s
	}
	def := build(Config{HostParallel: true})
	noStruct := build(Config{HostParallel: true, NoStructuralCommit: true})
	serial := build(Config{})
	// Reservations change which free-list slots a create consumes (batch
	// pre-pop at refill vs pop-at-create), so NoStructuralCommit is only
	// byte-comparable against a serial run with the same setting — the
	// backend axis is semantics-free, the reservation axis is a different
	// (equally canonical) allocation schedule.
	serialNoStruct := build(Config{NoStructuralCommit: true})
	for _, s := range []*System{def, noStruct, serial, serialNoStruct} {
		if _, f := s.Run(100_000_000); f != nil {
			t.Fatal(f)
		}
	}
	mustEqualSystems(t, serial, def)
	mustEqualSystems(t, serialNoStruct, noStruct)

	ps := def.ParStats()
	if ps.ForkCreates == 0 {
		t.Fatalf("allocate shape committed no creates in-fork: %+v", ps)
	}
	if ps.Commits == 0 || float64(ps.Commits)/float64(ps.Epochs) < 0.5 {
		t.Fatalf("allocate shape mostly aborted despite reservations: %+v", ps)
	}
	nps := noStruct.ParStats()
	if nps.ForkCreates != 0 {
		t.Fatalf("NoStructuralCommit run committed creates in-fork: %+v", nps)
	}
	if nps.AbortsStructural == 0 {
		t.Fatalf("NoStructuralCommit run recorded no structural aborts: %+v", nps)
	}
	if ps.AbortsStructural+ps.AbortsReservation+ps.AbortsOther != ps.Aborts {
		t.Fatalf("abort split does not sum to total: %+v", ps)
	}
	if nps.AbortsStructural+nps.AbortsReservation+nps.AbortsOther != nps.Aborts {
		t.Fatalf("abort split does not sum to total (NoStructuralCommit): %+v", nps)
	}
}
