package gdp_test

// Differential fuzzing of the parallel host backend (external test package
// so the cross-subsystem invariant auditor can join the comparison): the
// same seeded workload is run to completion under the serial and the
// parallel backend, and any divergence — in the kernel event log bytes,
// per-processor clocks, system stats, live-object census, or the audit
// report — is a bug in the speculation/commit machinery.

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/audit"
	"repro/internal/gdp"
	"repro/internal/isa"
	"repro/internal/ledger"
	"repro/internal/obj"
	"repro/internal/port"
	"repro/internal/trace"
)

// buildFuzzSystem constructs a system plus a seed-determined workload mix:
// pure compute loops, port spammers and drainers on a shared port, and a
// spread of time slices (preemption traffic) across 2..4 processors.
// Identical seeds produce identical construction sequences, so builds with
// different backend/cache settings are twins.
func buildFuzzSystem(t *testing.T, seed int64, hostpar, nocache, notrace bool) *gdp.System {
	return buildFuzzSystemLedger(t, seed, hostpar, nocache, notrace, ledger.Config{})
}

// buildFuzzSystemLedger is buildFuzzSystem with an explicit audit-ledger
// configuration behind the tracer — the overload-determinism test uses a
// deliberately starved pipeline.
func buildFuzzSystemLedger(t *testing.T, seed int64, hostpar, nocache, notrace bool, lcfg ledger.Config) *gdp.System {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s, err := gdp.New(gdp.Config{
		Processors:   2 + rng.Intn(3),
		MemoryBytes:  8 << 20,
		HostParallel: hostpar,
		NoExecCache:  nocache,
		NoTraceJIT:   notrace,
	})
	if err != nil {
		t.Fatal(err)
	}
	lg := trace.New(1 << 17)
	lg.SetSink(ledger.NewSink(lcfg))
	s.SetTracer(lg)

	shared, f := s.Ports.Create(s.Heap, 512, port.FIFO)
	if f != nil {
		t.Fatal(f)
	}
	nproc := 3 + rng.Intn(5)
	for i := 0; i < nproc; i++ {
		result, f := s.SROs.Create(s.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8})
		if f != nil {
			t.Fatal(f)
		}
		iters := uint32(300 + rng.Intn(2500))
		aargs := [4]obj.AD{result, shared}
		var prog []isa.Instr
		switch rng.Intn(5) {
		case 0: // pure compute: sum the countdown
			prog = []isa.Instr{
				isa.MovI(1, iters),
				isa.MovI(0, 0),
				isa.Add(0, 0, 1),
				isa.AddI(1, 1, ^uint32(0)),
				isa.BrNZ(1, 2),
				isa.Store(0, 0, 0),
				isa.Halt(),
			}
		case 1: // compute, then offer the result object at the shared port
			prog = []isa.Instr{
				isa.MovI(1, iters),
				isa.AddI(1, 1, ^uint32(0)),
				isa.BrNZ(1, 1),
				isa.CSend(0, 1, 2), // full port drops the offer
				isa.Halt(),
			}
		case 2: // drain the shared port between compute bursts
			prog = []isa.Instr{
				isa.MovI(1, iters),
				isa.CRecv(2, 1, 3), // whatever is there, if anything
				isa.AddI(1, 1, ^uint32(0)),
				isa.BrNZ(1, 1),
				isa.Halt(),
			}
		case 3: // a hot loop that self-modifies its own invalidation
			// triggers: the per-iteration CSend's carrier traffic keeps
			// bumping the cache generation under the loop's compiled
			// trace, and the epilogue nils the a-reg the loop loads
			// through, then jumps back in — the re-entered trace must
			// deopt mid-run and land on the canonical dangling-AD fault.
			prog = []isa.Instr{
				isa.MovI(1, iters),
				isa.MovI(2, 3),
				isa.Add(4, 4, 2), // loop head
				isa.Sub(5, 4, 2),
				isa.Mul(6, 4, 2),
				isa.AddI(1, 1, ^uint32(0)),
				isa.Load(3, 0, 0),  // result[0]; deopts once a0 is nil
				isa.CSend(0, 1, 7), // offer result; full port drops it
				isa.BrNZ(1, 2),
				isa.MovA(0, 2), // a0 ← nil (a2 was never filled)
				isa.MovI(1, 60),
				isa.Br(2), // back into the hot loop
				isa.Halt(),
			}
		case 4: // the paper's E2 allocate shape: a tight create loop with a
			// bystander read each iteration. Creates are structural twice
			// over (free-list pop, first-fit allocation), so this shape is
			// what reservations exist for: under the parallel backend these
			// creates must commit in-fork from reserved capacity, and the
			// differential corners prove the reserved path, the structural
			// path, and the serial replays all produce identical bytes.
			aargs[2] = s.Heap
			prog = []isa.Instr{
				isa.MovI(1, 200+iters/8),
				isa.MovI(2, 24),
				isa.Create(3, 2, 2), // loop head: a3 ← new object from a2
				isa.Store(1, 3, 0),  // initialise it (in-fork write)
				isa.Load(4, 0, 0),   // bystander read of the result object
				isa.AddI(1, 1, ^uint32(0)),
				isa.BrNZ(1, 2),
				isa.Store(4, 0, 0),
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
	return s
}

// runFuzz drives the system through a mixed cadence of short steps (to
// exercise epoch boundaries at odd offsets) and a final drain to idle.
func runFuzz(t *testing.T, s *gdp.System) {
	t.Helper()
	for i := 0; i < 200; i++ {
		if _, f := s.Step(3_000); f != nil {
			t.Fatal(f)
		}
	}
	if _, f := s.Run(0); f != nil {
		t.Fatal(f)
	}
}

func fuzzFingerprint(t *testing.T, s *gdp.System) string {
	t.Helper()
	var b bytes.Buffer
	for _, cpu := range s.CPUs {
		fmt.Fprintf(&b, "cpu%d clock=%d idle=%d disp=%d instr=%d\n",
			cpu.ID, cpu.Clock.Now(), cpu.IdleCycles, cpu.Dispatches, cpu.Instructions)
	}
	fmt.Fprintf(&b, "stats=%+v live=%d now=%d total=%d\n",
		s.Stats(), s.Table.Live(), s.Now(), s.TotalCycles())
	for _, v := range audit.New(s).CheckAll() {
		fmt.Fprintf(&b, "violation: %s %v %s\n", v.Subsystem, v.Obj, v.Msg)
	}
	if sk := fuzzLedger(t, s); sk != nil {
		fmt.Fprintf(&b, "ledger root=%s segments=%d recorded=%d dropped=%d\n",
			sk.RootHex(), sk.Segments(), sk.Recorded(), sk.Dropped())
	}
	if err := s.Tracer().Dump(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// fuzzLedger seals and returns the system's audit-ledger sink (nil when
// the tracer has none). Close is idempotent, so fingerprinting and byte
// extraction can both call this.
func fuzzLedger(t *testing.T, s *gdp.System) *ledger.Sink {
	t.Helper()
	sk, ok := s.Tracer().Sink().(*ledger.Sink)
	if !ok {
		return nil
	}
	sk.Close()
	return sk
}

// corpusSeeds loads the differential-fuzz seed corpus. Any defect in the
// corpus — missing file, unparsable line, duplicate seed, zero usable
// seeds — is a loud failure, never a skip: a fuzz that silently runs
// nothing is worse than one that fails, because it keeps reporting green
// while covering no configuration at all.
func corpusSeeds(t *testing.T) []int64 {
	t.Helper()
	const path = "testdata/parallel_corpus.txt"
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("differential-fuzz corpus unreadable (it is checked in at internal/gdp/%s): %v", path, err)
	}
	defer f.Close()
	var seeds []int64
	seen := make(map[int64]int)
	sc := bufio.NewScanner(f)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		n, err := strconv.ParseInt(line, 10, 64)
		if err != nil {
			t.Fatalf("%s:%d: malformed seed %q (one decimal int64 per line): %v", path, lineNo, line, err)
		}
		if first, dup := seen[n]; dup {
			t.Fatalf("%s:%d: duplicate seed %d (first on line %d) — duplicates inflate apparent coverage", path, lineNo, n, first)
		}
		seen[n] = lineNo
		seeds = append(seeds, n)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("%s: read error: %v", path, err)
	}
	if len(seeds) == 0 {
		t.Fatalf("%s: no seeds — the differential fuzz would be a no-op", path)
	}
	return seeds
}

func TestParallelDifferentialFuzz(t *testing.T) {
	// Three axes, six corners: {serial, parallel} × {cache off, cache on,
	// cache+trace}. The uncached serial run is the reference semantics;
	// every other configuration must reproduce its fingerprint byte for
	// byte — including both trace corners, where hot loops execute as
	// compiled superinstructions (trace.go).
	variants := []struct {
		name                      string
		hostpar, nocache, notrace bool
	}{
		{"serial-nocache", false, true, true},
		{"serial-cache", false, false, true},
		{"serial-trace", false, false, false},
		{"parallel-nocache", true, true, true},
		{"parallel-cache", true, false, true},
		{"parallel-trace", true, false, false},
	}
	var forkCreates, commits, replays uint64
	for _, seed := range corpusSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			var ref string
			var refLedger []byte
			for _, v := range variants {
				s := buildFuzzSystem(t, seed, v.hostpar, v.nocache, v.notrace)
				runFuzz(t, s)
				fp := fuzzFingerprint(t, s)
				lb := fuzzLedger(t, s).Bytes()
				if v.name == "serial-nocache" {
					ref = fp
					refLedger = lb
				} else if fp != ref {
					t.Fatalf("%s diverged from serial-nocache for seed %d:\n--- reference ---\n%.2000s\n--- %s ---\n%.2000s",
						v.name, seed, ref, v.name, fp)
				} else if !bytes.Equal(lb, refLedger) {
					// The fingerprint already commits the ledger root, so
					// reaching here would mean a root collision; the raw
					// comparison keeps the byte-identity claim literal.
					t.Fatalf("%s: ledger bytes diverged from serial-nocache for seed %d", v.name, seed)
				}
				if v.hostpar {
					ps := s.ParStats()
					if ps.Epochs == 0 {
						t.Fatalf("parallel backend never engaged (%s): %+v", v.name, ps)
					}
					forkCreates += ps.ForkCreates
					commits += ps.Commits
					replays += ps.Replays
				}
			}
		})
	}
	// The corpus contains allocation-heavy seeds selected to exercise the
	// reserved-create path, and both ends of an epoch: a commit and a
	// serial replay. A corpus where any of them never fires would be green
	// while covering nothing.
	if forkCreates == 0 {
		t.Error("no fuzz seed committed a create in-fork — the reserved-create path went unexercised")
	}
	if commits == 0 {
		t.Error("no fuzz seed committed an epoch — the commit path went unexercised")
	}
	if replays == 0 {
		t.Error("no fuzz seed replayed an epoch serially — the discard path went unexercised")
	}
}

// TestLedgerOverloadDeterminism starves the audit ledger's pipeline (a
// queue smaller than a pump interval, a consumer draining a fraction of
// what arrives) under the two extreme corners of every corpus seed. The
// point of the pump discipline is that backpressure drops are a function
// of the event stream, never of host timing — so even a ledger that is
// dropping most of its input must come out byte-identical, drop counters
// included, between the serial-uncached and parallel-traced backends.
func TestLedgerOverloadDeterminism(t *testing.T) {
	starved := ledger.Config{SegmentEvents: 32, QueueCap: 48, PumpEvery: 96, DrainPerPump: 8}
	for _, seed := range corpusSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			var refBytes []byte
			var refSeq uint64
			for _, v := range []struct {
				name                      string
				hostpar, nocache, notrace bool
			}{
				{"serial-nocache", false, true, true},
				{"parallel-trace", true, false, false},
			} {
				s := buildFuzzSystemLedger(t, seed, v.hostpar, v.nocache, v.notrace, starved)
				runFuzz(t, s)
				sk := fuzzLedger(t, s)
				seq, _ := s.Tracer().Snapshot()
				if sk.Recorded()+sk.Dropped() != seq {
					t.Fatalf("%s: recorded %d + dropped %d != emitted %d",
						v.name, sk.Recorded(), sk.Dropped(), seq)
				}
				if sk.Dropped() == 0 {
					t.Fatalf("%s: starved pipeline dropped nothing (seq=%d) — overload arm not exercised",
						v.name, seq)
				}
				b := sk.Bytes()
				if v.name == "serial-nocache" {
					refBytes, refSeq = b, seq
					rep, err := ledger.Verify(b)
					if err != nil {
						t.Fatalf("overloaded ledger failed verification: %v", err)
					}
					if rep.DroppedTotal() != sk.Dropped() {
						t.Fatalf("replayed drop count %d != sink drop count %d",
							rep.DroppedTotal(), sk.Dropped())
					}
				} else {
					if seq != refSeq {
						t.Fatalf("%s emitted %d events, reference %d", v.name, seq, refSeq)
					}
					if !bytes.Equal(b, refBytes) {
						t.Fatalf("%s: overloaded ledger bytes diverged from serial-nocache", v.name)
					}
				}
			}
		})
	}
}
