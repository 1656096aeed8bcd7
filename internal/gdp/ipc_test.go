package gdp

import (
	"fmt"
	"testing"

	"repro/internal/isa"
	"repro/internal/obj"
	"repro/internal/process"
	"repro/internal/trace"
)

// The IPC fast lane's contracts: a steady-state ping-pong round trip
// resolves each object about once per port instruction, never re-primes
// an execution cache, and allocates nothing.

// pingPongRoundTrip is the instruction count of one round trip of
// pingpongWorkload: each player runs send, receive, decrement and branch.
const pingPongRoundTrip = 8

// pingPongResolveBudget is the achieved number of capability resolutions
// per warmed round trip. A rise is a regression; a fall should lower it.
const pingPongResolveBudget = 72

// pingPongWarm builds a serial two-processor system running a long
// blocking ping-pong with the execution cache on, and steps it past
// start-up so every carrier is pooled and every cache primed.
func pingPongWarm(tb testing.TB, cfg Config) *System {
	tb.Helper()
	s, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	pingpongWorkload(tb, s, 1_000_000)
	pingPongSteps(tb, s, 64)
	return s
}

func pingPongSteps(tb testing.TB, s *System, n int) {
	tb.Helper()
	for i := 0; i < n; i++ {
		if _, f := s.Step(5_000); f != nil {
			tb.Fatal(f)
		}
	}
}

// TestPingPongResolveBudget pins the work of one round trip in a unit a
// shared host cannot perturb: descriptor resolutions, counted by the
// table.
func TestPingPongResolveBudget(t *testing.T) {
	s := pingPongWarm(t, Config{Processors: 2})
	r0, i0 := s.Table.Resolutions(), s.instructions
	pingPongSteps(t, s, 200)
	instrs := s.instructions - i0
	if instrs == 0 || instrs%pingPongRoundTrip != 0 {
		t.Fatalf("%d instructions is not a whole number of round trips", instrs)
	}
	trips := instrs / pingPongRoundTrip
	per := (s.Table.Resolutions() - r0) / trips
	if per > pingPongResolveBudget {
		t.Fatalf("%d resolutions per round trip, budget %d", per, pingPongResolveBudget)
	}
	if per < pingPongResolveBudget {
		t.Logf("%d resolutions per round trip, under the budget of %d: lower it", per, pingPongResolveBudget)
	}
}

// TestPingPongKeepsExecCaches: handing a message over — the carry-slot
// store on wake-up and the resume that empties it — leaves the cache
// generation alone, so steady-state round trips never re-prime, and every
// live cache audits clean after every step.
func TestPingPongKeepsExecCaches(t *testing.T) {
	s := pingPongWarm(t, Config{Processors: 2})
	gen, primes, i0 := s.Table.CacheGen(), s.xcPrimes, s.instructions
	for i := 0; i < 200; i++ {
		pingPongSteps(t, s, 1)
		for _, rec := range s.AuditExecCaches() {
			if len(rec.Problems) > 0 {
				t.Fatalf("step %d, cpu %d: %v", i, rec.CPU, rec.Problems)
			}
		}
	}
	if s.instructions == i0 {
		t.Fatal("the ping-pong made no progress")
	}
	if g := s.Table.CacheGen(); g != gen {
		t.Errorf("cache generation moved %d -> %d during steady-state round trips", gen, g)
	}
	if n := s.xcPrimes - primes; n != 0 {
		t.Errorf("%d execution-cache primes in steady state, want 0", n)
	}
}

// TestPingPongAllocFree pins the allocation contract of the port path:
// once warmed, a step — one round trip of sends, receives, wake-ups and
// dispatches — allocates nothing.
func TestPingPongAllocFree(t *testing.T) {
	s := pingPongWarm(t, Config{Processors: 2})
	i0 := s.instructions
	avg := testing.AllocsPerRun(200, func() {
		if _, f := s.Step(5_000); f != nil {
			t.Fatal(f)
		}
	})
	if s.instructions == i0 {
		t.Fatal("the ping-pong made no progress")
	}
	if avg != 0 {
		t.Fatalf("a ping-pong step allocates %.2f times; want 0", avg)
	}
}

// BenchmarkPingPongStep measures one warmed ping-pong round trip.
func BenchmarkPingPongStep(b *testing.B) {
	s := pingPongWarm(b, Config{Processors: 2})
	b.ReportAllocs()
	b.ResetTimer()
	pingPongSteps(b, s, b.N)
}

// TestExecCacheInvalidationRule: of the system AD stores into a process,
// only the context slot invalidates execution caches. The carry slot a
// message rides in leaves the bound process's cache live.
func TestExecCacheInvalidationRule(t *testing.T) {
	s := benchBound(t, false, true)
	cpu := s.CPUs[0]
	proc := cpu.Current()
	live := func() bool {
		return cpu.xc != nil && cpu.xc.gen == s.Table.CacheGen() && cpu.xc.proc == proc
	}
	if _, f := s.execOne(cpu, 1); f != nil || !live() {
		t.Fatalf("cache not live after a fast instruction (fault %v)", f)
	}
	msg, f := s.SROs.Create(s.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8})
	if f != nil {
		t.Fatal(f)
	}
	gen, primes := s.Table.CacheGen(), s.xcPrimes
	for _, ad := range []obj.AD{msg, obj.NilAD} {
		if f := s.Procs.SetLink(proc, process.SlotCarry, ad); f != nil {
			t.Fatal(f)
		}
	}
	if g := s.Table.CacheGen(); g != gen || !live() {
		t.Fatalf("carry-slot stores moved the generation %d -> %d", gen, g)
	}
	if _, f := s.execOne(cpu, 1); f != nil {
		t.Fatal(f)
	}
	if s.xcPrimes != primes {
		t.Fatal("the next instruction re-primed after a carry-slot store")
	}

	// The context slot is what the cache pins: pushing, re-linking and
	// popping a context each invalidate.
	ctx, f := s.Procs.Context(proc)
	if f != nil {
		t.Fatal(f)
	}
	dom, f := s.Table.LoadAD(ctx, process.CtxSlotDomain)
	if f != nil {
		t.Fatal(f)
	}
	bumps := func(what string, op func() *obj.Fault) {
		t.Helper()
		before := s.Table.CacheGen()
		if f := op(); f != nil {
			t.Fatalf("%s: %v", what, f)
		}
		if s.Table.CacheGen() == before || live() {
			t.Fatalf("%s left the cache generation at %d", what, before)
		}
	}
	bumps("PushContext", func() *obj.Fault { _, f := s.Procs.PushContext(proc, dom); return f })
	bumps("context-slot store", func() *obj.Fault { return s.Procs.SetLink(proc, process.SlotContext, ctx) })
	bumps("PopContext", func() *obj.Fault {
		if _, f := s.Procs.PushContext(proc, dom); f != nil {
			return f
		}
		_, f := s.Procs.PopContext(proc)
		return f
	})
}

// TestResumeFaultSameWithoutCache: a receiver woken with a message that is
// destroyed before the receiver runs faults in its resume action — the
// carried capability dangles. The fast path applies resumes through the
// slow path's helper, so the fault, the process state and the whole kernel
// event log are identical with the execution cache on and off.
func TestResumeFaultSameWithoutCache(t *testing.T) {
	run := func(nocache bool) string {
		s, err := New(Config{Processors: 1, NoExecCache: nocache})
		if err != nil {
			t.Fatal(err)
		}
		log := trace.New(1 << 12)
		s.SetTracer(log)
		prt, f := s.Ports.Create(s.Heap, 1, 0)
		if f != nil {
			t.Fatal(f)
		}
		dom := mustDomain(t, s, []isa.Instr{isa.Recv(1, 2), isa.Halt()})
		proc, f := s.Spawn(dom, SpawnSpec{AArgs: [4]obj.AD{obj.NilAD, obj.NilAD, prt}})
		if f != nil {
			t.Fatal(f)
		}
		pingPongSteps(t, s, 2) // the receiver blocks at the empty port
		if st, _ := s.Procs.StateOf(proc); st != process.StateBlocked {
			t.Fatalf("receiver state %v, want blocked", st)
		}
		msg, f := s.SROs.Create(s.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8})
		if f != nil {
			t.Fatal(f)
		}
		if ok, f := s.SendMessage(prt, msg, 0); f != nil || !ok {
			t.Fatalf("send: ok=%v fault=%v", ok, f)
		}
		if f := s.Table.Destroy(msg); f != nil {
			t.Fatal(f)
		}
		pingPongSteps(t, s, 2)
		st, _ := s.Procs.StateOf(proc)
		code, _ := s.Procs.FaultCode(proc)
		if code != obj.FaultInvalidAD {
			t.Fatalf("resume fault %v, want %v", code, obj.FaultInvalidAD)
		}
		out := fmt.Sprintf("state %v code %v\n", st, code)
		for _, e := range log.Events() {
			out += fmt.Sprintf("%v\n", e)
		}
		return out
	}
	if cached, uncached := run(false), run(true); cached != uncached {
		t.Fatalf("resume fault diverges:\ncache on:\n%s\ncache off:\n%s", cached, uncached)
	}
}
