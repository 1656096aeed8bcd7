package gdp_test

// Property test for reservation hygiene: however an epoch ends — commit,
// abort with serial replay, cooldown — the descriptor
// slots and arena bytes a reservation holds are conserved. The test drives
// allocation-heavy workloads into every termination path (claim
// exhaustion, mid-run heap destruction making reservations stale, abort
// storms from structural fallbacks) and asserts, at every step boundary:
//
//   - slot conservation: the table's reserved-slot count equals the sum
//     over CPU reservations (a leaked or double-returned slot breaks it);
//   - the full audit (which folds unconsumed reservation arenas into SRO
//     accounting and checks the same slot equality) stays clean;
//   - the serial and parallel backends produce identical fingerprints, so
//     replays and cooldowns consumed exactly the capacity commits would.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/audit"
	"repro/internal/gdp"
	"repro/internal/isa"
	"repro/internal/ledger"
	"repro/internal/obj"
	"repro/internal/port"
	"repro/internal/trace"
)

// buildReservationWorld constructs an allocation-heavy mix: big-heap
// allocators (reservations engage and stay healthy), tight-claim local
// heap allocators (reservations engage, then the claim exhausts and every
// create falls back structurally — abort, replay, cooldown), and compute
// bystanders. It returns the local heaps so the driver can destroy one
// mid-run and strand its reservations stale.
func buildReservationWorld(t *testing.T, seed int64, hostpar bool) (*gdp.System, []obj.AD) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s, err := gdp.New(gdp.Config{
		Processors:   2 + rng.Intn(3),
		MemoryBytes:  8 << 20,
		HostParallel: hostpar,
	})
	if err != nil {
		t.Fatal(err)
	}
	lg := trace.New(1 << 17)
	lg.SetSink(ledger.NewSink(ledger.Config{}))
	s.SetTracer(lg)

	shared, f := s.Ports.Create(s.Heap, 256, port.FIFO)
	if f != nil {
		t.Fatal(f)
	}
	var heaps []obj.AD
	nproc := 4 + rng.Intn(3)
	for i := 0; i < nproc; i++ {
		result, f := s.SROs.Create(s.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8})
		if f != nil {
			t.Fatal(f)
		}
		aargs := [4]obj.AD{result, shared}
		var prog []isa.Instr
		switch rng.Intn(3) {
		case 0: // healthy allocator on the global heap
			aargs[2] = s.Heap
			prog = []isa.Instr{
				isa.MovI(1, uint32(200+rng.Intn(400))),
				isa.MovI(2, uint32(16+8*rng.Intn(6))),
				isa.Create(3, 2, 2),
				isa.Store(1, 3, 0),
				isa.AddI(1, 1, ^uint32(0)),
				isa.BrNZ(1, 2),
				isa.Halt(),
			}
		case 1: // allocator on a tight local heap: the claim covers the
			// reservation arena plus a few hundred creates, then every
			// create faults — the canonical claim fault, reached through
			// abort and serial replay under the parallel backend.
			claim := uint32(24<<10 + rng.Intn(16)<<10)
			heap, f := s.SROs.NewLocalHeap(s.Heap, 1, claim)
			if f != nil {
				t.Fatal(f)
			}
			heaps = append(heaps, heap)
			aargs[2] = heap
			prog = []isa.Instr{
				isa.MovI(1, uint32(400+rng.Intn(400))),
				isa.MovI(2, 48),
				isa.Create(3, 2, 2),
				isa.Store(1, 3, 0),
				isa.AddI(1, 1, ^uint32(0)),
				isa.BrNZ(1, 2),
				isa.Halt(),
			}
		case 2: // compute bystander with port traffic
			prog = []isa.Instr{
				isa.MovI(1, uint32(500+rng.Intn(2000))),
				isa.Add(0, 0, 1),
				isa.CSend(0, 1, 3),
				isa.AddI(1, 1, ^uint32(0)),
				isa.BrNZ(1, 1),
				isa.Store(0, 0, 0),
				isa.Halt(),
			}
		}
		dom, f := s.Domains.CreateCode(s.Heap, prog)
		if f != nil {
			t.Fatal(f)
		}
		d, f := s.Domains.Create(s.Heap, dom, []uint32{0})
		if f != nil {
			t.Fatal(f)
		}
		slices := []uint32{0, 0, 1_500, 4_000}
		if _, f := s.Spawn(d, gdp.SpawnSpec{
			Priority:  uint16(rng.Intn(4)),
			TimeSlice: slices[rng.Intn(len(slices))],
			AArgs:     aargs,
		}); f != nil {
			t.Fatal(f)
		}
	}
	return s, heaps
}

// checkSlotConservation is the per-step invariant: reserved slots in the
// table and reserved slots on CPUs are the same multiset (the audit proves
// the count; CreateFromReservation and UnreserveSlots are the only ways a
// slot changes hands, both count-preserving).
func checkSlotConservation(t *testing.T, s *gdp.System, step int) {
	t.Helper()
	if tr, cr := s.Table.ReservedSlots(), s.ReservedSlotCount(); tr != cr {
		t.Fatalf("step %d: table holds %d reserved slots, CPU reservations hold %d — a slot leaked",
			step, tr, cr)
	}
}

func TestReservationHygieneProperty(t *testing.T) {
	for _, seed := range []int64{3, 17, 1009, 20260807, 424243} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			fps := make(map[bool]string)
			for _, hostpar := range []bool{false, true} {
				s, heaps := buildReservationWorld(t, seed, hostpar)
				for i := 0; i < 150; i++ {
					if i == 60 && len(heaps) > 0 {
						// Destroy a local heap mid-run: its allocator's
						// reservation goes stale (generation mismatch) and
						// must be fully released at the next refill, its
						// process faults on the dangling AD canonically.
						if _, f := s.SROs.DestroyHeap(heaps[0]); f != nil {
							t.Fatal(f)
						}
					}
					if _, f := s.Step(3_000); f != nil {
						t.Fatal(f)
					}
					checkSlotConservation(t, s, i)
					if i%25 == 24 {
						if vs := audit.New(s).CheckAll(); len(vs) > 0 {
							t.Fatalf("step %d: audit violation: %s %v %s",
								i, vs[0].Subsystem, vs[0].Obj, vs[0].Msg)
						}
					}
				}
				if _, f := s.Run(0); f != nil {
					t.Fatal(f)
				}
				checkSlotConservation(t, s, 150)
				if vs := audit.New(s).CheckAll(); len(vs) > 0 {
					t.Fatalf("final audit violation: %s %v %s",
						vs[0].Subsystem, vs[0].Obj, vs[0].Msg)
				}
				if hostpar {
					ps := s.ParStats()
					if ps.Epochs == 0 {
						t.Fatalf("parallel backend never engaged: %+v", ps)
					}
					if ps.ForkCreates == 0 {
						t.Fatalf("no create committed in-fork — the reserved path went unexercised: %+v", ps)
					}
					if ps.AbortsStructural+ps.AbortsReservation+ps.AbortsOther == 0 {
						t.Logf("note: no aborts for seed %d — replay/cooldown arm idle", seed)
					}
				}
				fps[hostpar] = fuzzFingerprint(t, s)
			}
			if fps[false] != fps[true] {
				t.Fatalf("serial and parallel diverged for seed %d", seed)
			}
		})
	}
}
