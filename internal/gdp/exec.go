package gdp

import (
	"fmt"

	"repro/internal/domain"
	"repro/internal/isa"
	"repro/internal/obj"
	"repro/internal/process"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// Step advances every processor by at most quantum cycles of work and
// reports whether any processor did non-idle work. Processors run in a
// fixed order within a step, but because quanta are bounded and clocks are
// per-processor, all the interleavings that matter to the layers above
// (port races, collector/mutator overlap) actually occur.
func (s *System) Step(quantum vtime.Cycles) (bool, *obj.Fault) {
	if s.contention > 0 {
		// Bus contention is computed per step round: processors that
		// are bound, plus idle ones that will draw from the dispatch
		// backlog, all arbitrate for the bus this round. (The driver
		// runs processors sequentially, so instantaneous "who else is
		// executing" is meaningless; the round population is the
		// faithful proxy.)
		busy := 0
		for _, cpu := range s.CPUs {
			if cpu.Online() && cpu.proc.Valid() {
				busy++
			}
		}
		if backlog, f := s.Ports.Count(s.Dispatch); f == nil {
			idle := 0
			for _, cpu := range s.CPUs {
				if cpu.Online() && !cpu.proc.Valid() {
					idle++
				}
			}
			if backlog < idle {
				idle = backlog
			}
			busy += idle
		}
		s.busyThisStep = busy
	}
	// Reservations are topped up identically in every corner, so the
	// grants are part of the common serial prefix of each step rather than
	// of any one backend.
	s.refillReservations()
	if s.parallelEligible() && !s.injectionImminent(quantum) {
		if s.parCoolLeft > 0 {
			// Abort backoff: recent epochs kept discarding, so run
			// serially for a while before paying for speculation again.
			s.parCoolLeft--
			return s.stepSerial(quantum)
		}
		return s.stepParallel(quantum)
	}
	return s.stepSerial(quantum)
}

// stepSerial is the reference backend: processors run their quanta one
// after another in processor order. The parallel backend defines itself
// against this — whatever it commits must be byte-identical to what
// stepSerial would have produced.
func (s *System) stepSerial(quantum vtime.Cycles) (bool, *obj.Fault) {
	worked := false
	for _, cpu := range s.CPUs {
		w, f := s.stepCPU(cpu, quantum)
		if f != nil {
			return worked, f
		}
		worked = worked || w
	}
	if len(s.timers) > 0 {
		if f := s.fireTimers(s.Now()); f != nil {
			return worked, f
		}
	}
	return worked, nil
}

// Run steps the system until no processor can find work or maxCycles of
// virtual time elapse. It reports the elapsed virtual time, which with a
// non-zero budget never exceeds maxCycles: the final quantum is clamped to
// what remains of the budget, and any instruction-granularity spill past
// the boundary is capped back.
func (s *System) Run(maxCycles vtime.Cycles) (vtime.Cycles, *obj.Fault) {
	start := s.Now()
	const quantum = 5_000
	limit := start + maxCycles
	for {
		q := vtime.Cycles(quantum)
		if maxCycles > 0 {
			if rem := limit - s.Now(); rem < q {
				q = rem
			}
		}
		worked, f := s.Step(q)
		if maxCycles > 0 {
			// Instructions are atomic, so the last one of a quantum can
			// carry a clock past the budget; pull it back to the line.
			for _, cpu := range s.CPUs {
				cpu.Clock.CapAt(limit)
			}
		}
		if f != nil {
			return s.Now() - start, f
		}
		if !worked {
			if len(s.timers) == 0 {
				return s.Now() - start, nil
			}
			// Nothing runnable but timers are armed: idle time passes,
			// on every processor alike, until the earliest expiry —
			// clocks converge on the post-idle instant even when some
			// were already past it.
			next := vtime.Max(s.NextTimer(), s.Now())
			if maxCycles > 0 && next > limit {
				next = limit
			}
			for _, cpu := range s.CPUs {
				if now := cpu.Clock.Now(); next > now {
					cpu.Clock.AdvanceTo(next)
					cpu.IdleCycles += next - now
				}
			}
			if f := s.fireTimers(s.Now()); f != nil {
				return s.Now() - start, f
			}
		}
		if maxCycles > 0 && s.Now()-start >= maxCycles {
			return s.Now() - start, obj.Faultf(obj.FaultTimeout, obj.NilAD,
				"system still busy after %v", maxCycles)
		}
	}
}

// RunUntil steps the system until pred reports true or maxCycles of
// virtual time elapse. Use it instead of Run when the configuration
// includes perpetual daemons (a polling fault handler, the collector):
// such systems are never idle, so "run to idle" never returns. Like Run,
// a non-zero budget bounds the reported elapsed time exactly.
func (s *System) RunUntil(pred func() bool, maxCycles vtime.Cycles) (vtime.Cycles, *obj.Fault) {
	start := s.Now()
	const quantum = 5_000
	limit := start + maxCycles
	for !pred() {
		q := vtime.Cycles(quantum)
		if maxCycles > 0 {
			if rem := limit - s.Now(); rem < q {
				q = rem
			}
		}
		_, f := s.Step(q)
		if maxCycles > 0 {
			for _, cpu := range s.CPUs {
				cpu.Clock.CapAt(limit)
			}
		}
		if f != nil {
			return s.Now() - start, f
		}
		if maxCycles > 0 && s.Now()-start >= maxCycles {
			return s.Now() - start, obj.Faultf(obj.FaultTimeout, obj.NilAD,
				"condition not reached after %v", maxCycles)
		}
	}
	return s.Now() - start, nil
}

func (s *System) stepCPU(cpu *CPU, quantum vtime.Cycles) (bool, *obj.Fault) {
	// A dead speculation does no further work; the real epoch driver will
	// replay everything serially.
	if s.spec != nil && s.specDead() {
		return false, nil
	}
	// An offline processor burns idle time only; its clock keeps pace
	// so system-wide time stays meaningful.
	if cpu.offline {
		cpu.Clock.Charge(quantum)
		cpu.IdleCycles += quantum
		return false, nil
	}
	// A bound process the process manager has since stopped leaves the
	// processor here — the "next scheduling event" its stop waits for.
	if !cpu.Idle() {
		st, f := s.Procs.StateOf(cpu.proc)
		if f != nil || st != process.StateRunning {
			if f := cpu.unbind(s); f != nil {
				return false, f
			}
		}
	}
	if cpu.Idle() {
		got, f := cpu.tryDispatch(s)
		if f != nil {
			return false, f
		}
		if !got {
			// Idle processors burn real time too; keeping clocks
			// advancing together is what makes per-CPU time a
			// fair utilisation measure.
			cpu.Clock.Charge(quantum)
			cpu.IdleCycles += quantum
			return false, nil
		}
	}

	// Consumed-cycle accounting (§6.1 scheduler bookkeeping) happens at
	// step granularity so that even a never-preempted process shows its
	// consumption.
	proc := cpu.proc
	before := cpu.Clock.Now()
	var f *obj.Fault
	if body := s.nativeBodyOf(proc); body != nil {
		if s.spec != nil {
			// Native bodies mutate host Go state (the collector's mark
			// stack, the memory manager) that forks cannot shadow; the
			// epoch aborts and replays serially.
			s.spec.dead = true
			return true, nil
		}
		f = s.stepNative(cpu, body, quantum)
	} else {
		f = s.stepVM(cpu, quantum)
	}
	if spent := cpu.Clock.Now() - before; spent > 0 {
		// The process may have terminated and been collected within
		// the step; uncredited cycles then vanish with it.
		_ = s.Procs.AddCPUCycles(proc, uint32(spent))
	}
	return true, f
}

// stepNative runs one bounded chunk of a native process body.
func (s *System) stepNative(cpu *CPU, body NativeBody, quantum vtime.Cycles) *obj.Fault {
	proc := cpu.proc
	spent, status, f := body.Step(s, proc)
	cpu.Clock.Charge(spent)
	if f != nil {
		return s.deliverFault(cpu, proc, f)
	}
	switch status {
	case BodyContinue:
		// Keep running until the quantum model preempts it like any
		// process: requeue if it has a finite slice, otherwise stay
		// bound.
		if cpu.sliceLeft > 0 {
			if spent >= cpu.sliceLeft {
				s.preemptions++
				if l := s.Table.Tracer(); l != nil {
					l.Emit(trace.EvPreempt, uint32(proc.Index), uint32(cpu.ID), 0)
				}
				if f := cpu.unbind(s); f != nil {
					return f
				}
				return s.MakeReady(proc)
			}
			cpu.sliceLeft -= spent
		}
		return nil
	case BodyYield:
		if f := cpu.unbind(s); f != nil {
			return f
		}
		return s.MakeReady(proc)
	case BodyWaiting:
		if f := s.Procs.SetState(proc, process.StateBlocked); f != nil {
			return f
		}
		return cpu.unbind(s)
	case BodyDone:
		return s.terminate(cpu, proc)
	}
	return obj.Faultf(obj.FaultOddity, proc, "native body returned status %d", status)
}

// stepVM executes instructions of the bound process until the quantum is
// consumed or the process leaves the processor.
func (s *System) stepVM(cpu *CPU, quantum vtime.Cycles) *obj.Fault {
	budget := quantum
	for budget > 0 && cpu.proc.Valid() {
		if s.spec != nil && s.specDead() {
			return nil
		}
		// The cycle allowance for this call: a compiled trace may retire
		// many instructions in one execOne and must stop after the
		// instruction that crosses the quantum budget or the time slice —
		// the same crossing this loop detects per instruction.
		limit := budget
		if cpu.sliceLeft > 0 && cpu.sliceLeft < limit {
			limit = cpu.sliceLeft
		}
		spent, f := s.execOne(cpu, limit)
		if f != nil {
			if df := s.deliverFault(cpu, cpu.proc, f); df != nil {
				return df
			}
			return nil
		}
		if spent > budget {
			spent = budget
		}
		budget -= spent
		if cpu.sliceLeft > 0 && cpu.proc.Valid() {
			if spent >= cpu.sliceLeft {
				// Time-slice end: back to the dispatch mix
				// (§5: "such events as time-slice end").
				proc := cpu.proc
				s.preemptions++
				if l := s.Table.Tracer(); l != nil {
					l.Emit(trace.EvPreempt, uint32(proc.Index), uint32(cpu.ID), 0)
				}
				if f := cpu.unbind(s); f != nil {
					return f
				}
				return s.MakeReady(proc)
			}
			cpu.sliceLeft -= spent
		}
	}
	return nil
}

// execOne fetches, decodes and executes at least one instruction of the
// bound process, charging its cost to the processor clock. A returned
// fault is the process's, not the system's. The cached fast path
// (xcache.go) runs whenever the per-CPU execution cache is current;
// anything it cannot prove safe falls through — with machine state
// untouched — to the slow path, which re-derives the full resolution
// chain. When a compiled trace (trace.go) is entered, one call retires a
// whole run of fused instructions, stopping after the instruction that
// crosses limit — the caller's remaining cycle allowance — exactly where
// the per-instruction loop would have stopped.
func (s *System) execOne(cpu *CPU, limit vtime.Cycles) (vtime.Cycles, *obj.Fault) {
	if s.inj != nil && s.instructions >= s.inj.NextAt() {
		// Fault injection fires between instructions: the due event acts
		// on the machine before the next instruction executes, and a
		// returned fault takes the ordinary deliverFault path against the
		// process bound here. Only the real system carries an injector
		// (buildForks strips it), so this cannot run under speculation.
		if f := s.inj.Fire(s, cpu); f != nil {
			return 0, f
		}
		if !cpu.proc.Valid() {
			// The injection unbound this processor (offline event); the
			// stepVM loop condition ends the quantum.
			return 0, nil
		}
	}
	if spent, f, ok := s.execOneFast(cpu, limit); ok {
		return spent, f
	}
	return s.execOneSlow(cpu)
}

// execOneSlow is the uncached reference interpreter: every capability is
// resolved afresh, every access is bounds- and rights-checked through
// obj.Table. The fast path defines itself against this — whatever it does
// must be byte-identical to what execOneSlow would have done.
func (s *System) execOneSlow(cpu *CPU) (vtime.Cycles, *obj.Fault) {
	proc := cpu.proc
	ctx, f := s.Procs.Context(proc)
	if f != nil {
		return 0, f
	}
	if !ctx.Valid() {
		return 0, obj.Faultf(obj.FaultOddity, proc, "running process has no context")
	}

	// Apply any pending resume action (message carried to a woken
	// receiver).
	action, f := s.Procs.Resume(ctx)
	if f != nil {
		return 0, f
	}
	if action&0xFF == process.ResumeRecv {
		dst := uint8(action >> 8)
		carry, f := s.Procs.Link(proc, process.SlotCarry)
		if f != nil {
			return 0, f
		}
		if f := s.Procs.SetAReg(ctx, dst, carry); f != nil {
			return 0, f
		}
		if f := s.Procs.SetLink(proc, process.SlotCarry, obj.NilAD); f != nil {
			return 0, f
		}
	}

	dom, f := s.Table.LoadAD(ctx, process.CtxSlotDomain)
	if f != nil {
		return 0, f
	}
	code, f := s.Domains.Code(dom)
	if f != nil {
		return 0, f
	}
	prog, f := s.Domains.Program(code)
	if f != nil {
		return 0, f
	}
	ip, f := s.Procs.IP(ctx)
	if f != nil {
		return 0, f
	}
	if ip >= uint32(len(prog)) {
		return 0, obj.Faultf(obj.FaultBounds, ctx, "IP %d outside program of %d", ip, len(prog))
	}
	in := prog[ip]
	if f := s.Procs.SetIP(ctx, ip+1); f != nil {
		return 0, f
	}
	cpu.Instructions++
	s.instructions++

	spent, f := s.execInstr(cpu, proc, ctx, in)
	return s.execFinish(cpu, proc, ip, in, spent, f), f
}

// execFinish is the shared per-instruction epilogue of both interpreter
// paths: bus-contention surcharge, clock charge, and the Trace callback.
// Keeping it in one place is what keeps the two paths cycle-identical.
func (s *System) execFinish(cpu *CPU, proc obj.AD, ip uint32, in isa.Instr, spent vtime.Cycles, f *obj.Fault) vtime.Cycles {
	if s.contention > 0 && s.busyThisStep > 1 {
		// Shared-bus arbitration: every other busy processor in this
		// step round adds a wait per instruction.
		spent += s.contention * vtime.Cycles(s.busyThisStep-1)
	}
	cpu.Clock.Charge(spent)
	if s.Trace != nil {
		s.Trace(cpu.ID, proc, TraceEvent{IP: ip, Instr: in, Cost: spent, Fault: f})
	}
	return spent
}

// TraceEvent describes one executed instruction to a Trace observer.
type TraceEvent struct {
	IP    uint32
	Instr isa.Instr
	Cost  vtime.Cycles
	Fault *obj.Fault
}

func (s *System) execInstr(cpu *CPU, proc, ctx obj.AD, in isa.Instr) (vtime.Cycles, *obj.Fault) {
	P := s.Procs
	switch in.Op {
	case isa.OpNop:
		return vtime.CostALU, nil

	case isa.OpHalt:
		return vtime.CostALU, s.terminate(cpu, proc)

	case isa.OpMovI:
		return vtime.CostALU, P.SetReg(ctx, in.A, in.C)

	case isa.OpMov:
		v, f := P.Reg(ctx, in.B)
		if f != nil {
			return vtime.CostALU, f
		}
		return vtime.CostALU, P.SetReg(ctx, in.A, v)

	case isa.OpAdd, isa.OpSub, isa.OpMul:
		b, f := P.Reg(ctx, in.B)
		if f != nil {
			return vtime.CostALU, f
		}
		c, f := P.Reg(ctx, uint8(in.C))
		if f != nil {
			return vtime.CostALU, f
		}
		var v uint32
		switch in.Op {
		case isa.OpAdd:
			v = b + c
		case isa.OpSub:
			v = b - c
		case isa.OpMul:
			v = b * c
		}
		return vtime.CostALU, P.SetReg(ctx, in.A, v)

	case isa.OpAddI:
		b, f := P.Reg(ctx, in.B)
		if f != nil {
			return vtime.CostALU, f
		}
		return vtime.CostALU, P.SetReg(ctx, in.A, b+in.C)

	case isa.OpBr:
		return vtime.CostBranch, P.SetIP(ctx, in.C)

	case isa.OpBrZ, isa.OpBrNZ:
		v, f := P.Reg(ctx, in.A)
		if f != nil {
			return vtime.CostBranch, f
		}
		if (in.Op == isa.OpBrZ) == (v == 0) {
			return vtime.CostBranch, P.SetIP(ctx, in.C)
		}
		return vtime.CostBranch, nil

	case isa.OpBrLT:
		a, f := P.Reg(ctx, in.A)
		if f != nil {
			return vtime.CostBranch, f
		}
		b, f := P.Reg(ctx, in.B)
		if f != nil {
			return vtime.CostBranch, f
		}
		if a < b {
			return vtime.CostBranch, P.SetIP(ctx, in.C)
		}
		return vtime.CostBranch, nil

	case isa.OpLoad:
		ad, f := P.AReg(ctx, in.B)
		if f != nil {
			return vtime.CostMove, f
		}
		v, f := s.Table.ReadDWord(ad, in.C)
		if f != nil {
			return vtime.CostMove, f
		}
		return vtime.CostMove, P.SetReg(ctx, in.A, v)

	case isa.OpStore:
		ad, f := P.AReg(ctx, in.B)
		if f != nil {
			return vtime.CostMove, f
		}
		v, f := P.Reg(ctx, in.A)
		if f != nil {
			return vtime.CostMove, f
		}
		return vtime.CostMove, s.Table.WriteDWord(ad, in.C, v)

	case isa.OpLoadA:
		src, f := P.AReg(ctx, in.B)
		if f != nil {
			return vtime.CostMoveAD, f
		}
		ad, f := s.Table.LoadAD(src, in.C)
		if f != nil {
			return vtime.CostMoveAD, f
		}
		return vtime.CostMoveAD, P.SetAReg(ctx, in.A, ad)

	case isa.OpStoreA:
		dst, f := P.AReg(ctx, in.B)
		if f != nil {
			return vtime.CostMoveAD, f
		}
		ad, f := P.AReg(ctx, in.A)
		if f != nil {
			return vtime.CostMoveAD, f
		}
		// The user-visible AD store: level rule and gray bit apply.
		return vtime.CostMoveAD, s.Table.StoreAD(dst, in.C, ad)

	case isa.OpMovA:
		ad, f := P.AReg(ctx, in.B)
		if f != nil {
			return vtime.CostMoveAD, f
		}
		return vtime.CostMoveAD, P.SetAReg(ctx, in.A, ad)

	case isa.OpCreate:
		sroAD, f := P.AReg(ctx, in.B)
		if f != nil {
			return vtime.CostCreateObject, f
		}
		size, f := P.Reg(ctx, uint8(in.C))
		if f != nil {
			return vtime.CostCreateObject, f
		}
		slots, f := P.Reg(ctx, uint8(in.C)+1)
		if f != nil {
			return vtime.CostCreateObject, f
		}
		ad, f := s.createObject(cpu, sroAD, obj.CreateSpec{
			Type:        obj.TypeGeneric,
			DataLen:     size,
			AccessSlots: slots,
		})
		if f != nil {
			return vtime.CostCreateObject, f
		}
		return vtime.CostCreateObject, P.SetAReg(ctx, in.A, ad)

	case isa.OpSend, isa.OpCSend:
		return s.execSend(cpu, proc, ctx, in)

	case isa.OpRecv, isa.OpCRecv:
		return s.execRecv(cpu, proc, ctx, in)

	case isa.OpCall:
		dom, f := P.AReg(ctx, in.B)
		if f != nil {
			return vtime.CostDomainCall, f
		}
		return s.execCall(proc, ctx, dom, in.C, true)

	case isa.OpCallLocal:
		dom, f := s.Table.LoadAD(ctx, process.CtxSlotDomain)
		if f != nil {
			return vtime.CostIntraCall, f
		}
		return s.execCall(proc, ctx, dom, in.C, false)

	case isa.OpRet:
		return s.execRet(cpu, proc, ctx)

	case isa.OpTypeOf:
		ad, f := P.AReg(ctx, in.B)
		if f != nil {
			return vtime.CostALU, f
		}
		typ, f := s.Table.TypeOf(ad)
		if f != nil {
			return vtime.CostALU, f
		}
		return vtime.CostALU, P.SetReg(ctx, in.A, uint32(typ))

	case isa.OpAmplify:
		inst, f := P.AReg(ctx, in.A)
		if f != nil {
			return vtime.CostAmplify, f
		}
		tdo, f := P.AReg(ctx, in.B)
		if f != nil {
			return vtime.CostAmplify, f
		}
		strong, f := s.TDOs.Amplify(tdo, inst, obj.Rights(in.C)&obj.RightsAll)
		if f != nil {
			return vtime.CostAmplify, f
		}
		return vtime.CostAmplify, P.SetAReg(ctx, in.A, strong)

	case isa.OpIsType:
		inst, f := P.AReg(ctx, in.B)
		if f != nil {
			return vtime.CostAmplify, f
		}
		tdo, f := P.AReg(ctx, uint8(in.C))
		if f != nil {
			return vtime.CostAmplify, f
		}
		ok, f := s.TDOs.Is(tdo, inst)
		if f != nil {
			return vtime.CostAmplify, f
		}
		v := uint32(0)
		if ok {
			v = 1
		}
		return vtime.CostAmplify, P.SetReg(ctx, in.A, v)

	case isa.OpFault:
		return vtime.CostALU, obj.Faultf(obj.FaultCode(in.C), proc, "injected fault")
	}
	return vtime.CostALU, obj.Faultf(obj.FaultOddity, proc, "unimplemented op %v", in.Op)
}

// execSend performs the send instruction. The message is in access
// register A, the port in B, the key in data register C. For OpCSend,
// data register C instead receives the success flag and the key is 0.
func (s *System) execSend(cpu *CPU, proc, ctx obj.AD, in isa.Instr) (vtime.Cycles, *obj.Fault) {
	P := s.Procs
	msg, f := P.AReg(ctx, in.A)
	if f != nil {
		return vtime.CostSend, f
	}
	prt, f := P.AReg(ctx, in.B)
	if f != nil {
		return vtime.CostSend, f
	}
	conditional := in.Op == isa.OpCSend
	var key uint32
	if !conditional {
		if key, f = P.Reg(ctx, uint8(in.C)); f != nil {
			return vtime.CostSend, f
		}
	}
	blockOn := proc
	if conditional {
		blockOn = obj.NilAD
	}
	blocked, wake, f := s.Ports.Send(prt, msg, key, blockOn)
	if f != nil {
		return vtime.CostSend, f
	}
	if conditional {
		flag := uint32(1)
		if blocked {
			flag = 0
		}
		return vtime.CostSend, P.SetReg(ctx, uint8(in.C), flag)
	}
	if blocked {
		if f := P.SetState(proc, process.StateBlocked); f != nil {
			return vtime.CostSend, f
		}
		return vtime.CostSend, cpu.unbind(s)
	}
	if wake != nil {
		// A blocked receiver was handed the message directly.
		if f := s.wakeProcessWithMsg(wake.Process, wake.Msg); f != nil {
			return vtime.CostSend, f
		}
	}
	return vtime.CostSend, nil
}

// execRecv performs the receive instruction: destination access register
// A, port in B. For OpCRecv, data register C receives the success flag.
func (s *System) execRecv(cpu *CPU, proc, ctx obj.AD, in isa.Instr) (vtime.Cycles, *obj.Fault) {
	P := s.Procs
	prt, f := P.AReg(ctx, in.B)
	if f != nil {
		return vtime.CostReceive, f
	}
	conditional := in.Op == isa.OpCRecv
	blockOn := proc
	if conditional {
		blockOn = obj.NilAD
	}
	msg, blocked, wake, f := s.Ports.Receive(prt, blockOn)
	if f != nil {
		return vtime.CostReceive, f
	}
	if conditional {
		flag := uint32(1)
		if blocked {
			flag = 0
		}
		if !blocked {
			if f := P.SetAReg(ctx, in.A, msg); f != nil {
				return vtime.CostReceive, f
			}
		}
		return vtime.CostReceive, P.SetReg(ctx, uint8(in.C), flag)
	}
	if blocked {
		// Record where the message must land when we are woken.
		if f := P.SetResume(ctx, process.ResumeRecv|uint16(in.A)<<8); f != nil {
			return vtime.CostReceive, f
		}
		if f := P.SetState(proc, process.StateBlocked); f != nil {
			return vtime.CostReceive, f
		}
		return vtime.CostReceive, cpu.unbind(s)
	}
	if f := P.SetAReg(ctx, in.A, msg); f != nil {
		return vtime.CostReceive, f
	}
	if wake != nil {
		// A parked sender's message was deposited; the sender just
		// becomes ready.
		if f := s.wakeProcess(wake.Process); f != nil {
			return vtime.CostReceive, f
		}
	}
	return vtime.CostReceive, nil
}

// execCall performs the inter- or intra-domain call instruction: a new
// context at depth+1, arguments copied from the caller's registers, control
// at the entry's IP. The protection switch is the cost difference §2
// quantifies (65 µs versus an ordinary activation).
func (s *System) execCall(proc, caller obj.AD, dom obj.AD, entry uint32, crossDomain bool) (vtime.Cycles, *obj.Fault) {
	cost := vtime.CostIntraCall
	if crossDomain {
		cost = vtime.CostDomainCall
		if !dom.Rights.Has(domain.RightCall) {
			return cost, obj.Faultf(obj.FaultRights, dom, "need call right on domain")
		}
	}
	if _, f := s.Table.RequireType(dom, obj.TypeDomain); f != nil {
		return cost, f
	}
	P := s.Procs
	ctx, f := P.PushContext(proc, dom)
	if f != nil {
		return cost, f
	}
	// Arguments: r0..r3 and a0..a3 copy across.
	for r := uint8(0); r < 4; r++ {
		v, f := P.Reg(caller, r)
		if f != nil {
			return cost, f
		}
		if f := P.SetReg(ctx, r, v); f != nil {
			return cost, f
		}
		ad, f := P.AReg(caller, r)
		if f != nil {
			return cost, f
		}
		if ad.Valid() {
			if f := P.SetAReg(ctx, r, ad); f != nil {
				return cost, f
			}
		}
	}
	native, f := s.Domains.IsNative(dom)
	if f != nil {
		return cost, f
	}
	if native {
		return s.execNativeCall(proc, caller, ctx, dom, entry, cost)
	}
	ip, f := s.Domains.EntryIP(dom, entry)
	if f != nil {
		return cost, f
	}
	return cost, P.SetIP(ctx, ip)
}

// execNativeCall runs a native domain body to completion within the call
// instruction and performs the return sequence. To the caller it is
// indistinguishable from a VM domain (§4).
func (s *System) execNativeCall(proc, caller, ctx, dom obj.AD, entry uint32, cost vtime.Cycles) (vtime.Cycles, *obj.Fault) {
	h, f := s.Domains.HandlerOf(dom)
	if f != nil {
		return cost, f
	}
	var clk vtime.Clock
	env := &domain.Env{
		Table: s.Table,
		Procs: s.Procs,
		Proc:  proc,
		Ctx:   ctx,
		Clock: &clk,
	}
	hf := h(env, entry)
	cost += clk.Now() + vtime.CostDomainReturn
	if hf != nil {
		// The callee faulted; unwind the frame and deliver to the
		// caller.
		_, _ = s.Procs.PopContext(proc)
		return cost, hf
	}
	// Results: r0 and a0 copy back; then the frame unwinds.
	if f := s.copyResults(ctx, caller); f != nil {
		return cost, f
	}
	if _, f := s.Procs.PopContext(proc); f != nil {
		return cost, f
	}
	return cost, nil
}

// execRet returns from the current context, copying r0/a0 to the caller.
// Returning from the outermost context terminates the process.
func (s *System) execRet(cpu *CPU, proc, ctx obj.AD) (vtime.Cycles, *obj.Fault) {
	caller, f := s.Table.LoadAD(ctx, process.CtxSlotCaller)
	if f != nil {
		return vtime.CostDomainReturn, f
	}
	if !caller.Valid() {
		if _, f := s.Procs.PopContext(proc); f != nil {
			return vtime.CostDomainReturn, f
		}
		return vtime.CostDomainReturn, s.terminate(cpu, proc)
	}
	if f := s.copyResults(ctx, caller); f != nil {
		return vtime.CostDomainReturn, f
	}
	if _, f := s.Procs.PopContext(proc); f != nil {
		return vtime.CostDomainReturn, f
	}
	return vtime.CostDomainReturn, nil
}

func (s *System) copyResults(callee, caller obj.AD) *obj.Fault {
	v, f := s.Procs.Reg(callee, 0)
	if f != nil {
		return f
	}
	if f := s.Procs.SetReg(caller, 0, v); f != nil {
		return f
	}
	ad, f := s.Procs.AReg(callee, 0)
	if f != nil {
		return f
	}
	if ad.Valid() {
		return s.Procs.SetAReg(caller, 0, ad)
	}
	return nil
}

// terminate ends the process: state change, scheduler notification, and
// release of the processor.
func (s *System) terminate(cpu *CPU, proc obj.AD) *obj.Fault {
	if f := s.Procs.SetState(proc, process.StateTerminated); f != nil {
		return f
	}
	if l := s.Table.Tracer(); l != nil {
		l.Emit(trace.EvTerminate, uint32(proc.Index), 0, 0)
	}
	s.notifyScheduler(proc)
	if cpu != nil && cpu.proc == proc {
		return cpu.unbind(s)
	}
	return nil
}

// deliverFault implements "sending them back to software": the faulting
// process is recorded, unbound, and sent as a message to its fault port.
// A process with no fault port just terminates with the code recorded —
// and per §7.3 the system levels configuration decides which processes are
// allowed to reach here at all.
func (s *System) deliverFault(cpu *CPU, proc obj.AD, cause *obj.Fault) *obj.Fault {
	cpu.Clock.Charge(vtime.CostFault)
	if l := s.Table.Tracer(); l != nil {
		l.Emit(trace.EvFault, uint32(proc.Index), uint32(cause.Code), uint64(cause.AD.Index))
	}
	if f := s.Procs.SetFaultCode(proc, cause.Code); f != nil {
		return f
	}
	if f := s.Procs.SetFaultObject(proc, cause.AD.Index); f != nil {
		return f
	}
	// A segment fault is transparent to the process (§7.3: user-level
	// processes are unaware a segment might be temporarily inaccessible):
	// rewind the instruction so it re-executes after the memory manager
	// restores residency. Port and register state is untouched because
	// the access check precedes every side effect.
	if cause.Code == obj.FaultSegmentMoved {
		if ctx, f := s.Procs.Context(proc); f == nil && ctx.Valid() {
			if ip, f := s.Procs.IP(ctx); f == nil && ip > 0 {
				if f := s.Procs.SetIP(ctx, ip-1); f != nil {
					return f
				}
			}
		}
	}
	if f := s.Procs.SetState(proc, process.StateFaulted); f != nil {
		return f
	}
	if cpu.proc == proc {
		if f := cpu.unbind(s); f != nil {
			return f
		}
	}
	fport, f := s.Procs.Link(proc, process.SlotFaultPort)
	if f != nil {
		return f
	}
	if !fport.Valid() {
		s.notifyScheduler(proc)
		return s.Procs.SetState(proc, process.StateTerminated)
	}
	blocked, wake, f := s.Ports.Send(fport, proc, uint32(cause.Code), obj.NilAD)
	if f != nil || blocked {
		// Fault port gone or full: the process is lost to software;
		// terminate it rather than wedge the processor.
		s.notifyScheduler(proc)
		return s.Procs.SetState(proc, process.StateTerminated)
	}
	s.faultsSent++
	if wake != nil {
		return s.wakeProcessWithMsg(wake.Process, wake.Msg)
	}
	return nil
}

// notifyScheduler sends the process to its scheduler port, if it has one,
// so the process manager learns of termination (§6.1: a process is "sent
// to its process scheduler" when it would leave the dispatching mix).
func (s *System) notifyScheduler(proc obj.AD) {
	sport, f := s.Procs.Link(proc, process.SlotSchedPort)
	if f != nil || !sport.Valid() {
		return
	}
	_, wake, f := s.Ports.Send(sport, proc, 0, obj.NilAD)
	if f == nil && wake != nil {
		_ = s.wakeProcessWithMsg(wake.Process, wake.Msg)
	}
}

// wakeProcess returns a blocked process to the dispatch mix.
func (s *System) wakeProcess(p obj.AD) *obj.Fault {
	return s.MakeReady(p)
}

// wakeProcessWithMsg resumes a process that was blocked receiving: the
// message rides in the carry slot until the process next runs, when the
// resume action moves it into the destination register.
func (s *System) wakeProcessWithMsg(p obj.AD, msg obj.AD) *obj.Fault {
	if msg.Valid() {
		if f := s.Procs.SetLink(p, process.SlotCarry, msg); f != nil {
			return f
		}
	}
	return s.MakeReady(p)
}

var _ = fmt.Sprintf // reserved for diagnostics
