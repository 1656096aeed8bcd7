package gdp

import (
	"repro/internal/obj"
	"repro/internal/process"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// CPU is one simulated general data processor. The struct holds the
// on-chip state of the real machine: the bound process, the remaining time
// slice, and the cycle clock. Everything architectural lives in objects.
type CPU struct {
	ID    int
	Obj   obj.AD // the hardware processor object (pinned GC root)
	Clock vtime.Clock

	proc      obj.AD       // bound process (NilAD when idle)
	sliceLeft vtime.Cycles // remaining quantum; 0 means unlimited
	offline   bool         // taken out of service; dispatches nothing

	// xc is the execution cache (xcache.go): pinned windows over the
	// bound process's hot state, validated per instruction against the
	// table's cache generation. Lazily allocated, reused across primes.
	xc *execCache

	// xst is the trace runner's scratch state (trace.go), pooled here so
	// a trace run allocates nothing. Every field is re-initialised at run
	// entry, so the copies the epoch driver makes of CPU structs are
	// harmless.
	xst xstate

	// rsv is this processor's structural-capacity reservation: pre-granted
	// descriptor slots and pre-charged arena bytes that let the create
	// instruction commit inside an epoch fork (obj.Reservation). The value
	// is copied with the CPU struct during speculation and copied back at
	// commit; refills run only between steps, on the real CPU
	// (refillReservations), so no fork ever holds a stale copy.
	// rsvWant records the SRO a create most recently fell back on, so the
	// next inter-epoch refill binds the reservation there.
	rsv     obj.Reservation
	rsvWant obj.AD

	// Per-CPU stats.
	Dispatches   uint64
	Instructions uint64
	IdleCycles   vtime.Cycles
}

// Online reports whether the processor participates in dispatching.
func (c *CPU) Online() bool { return !c.offline }

// Idle reports whether the processor has no bound process.
func (c *CPU) Idle() bool { return !c.proc.Valid() }

// Current reports the bound process.
func (c *CPU) Current() obj.AD { return c.proc }

// CurrentSlot reports the process recorded in the processor object's
// current-process root slot. The collector scans this slot; the invariant
// auditor compares it against the on-chip binding (Current).
func (c *CPU) CurrentSlot(s *System) (obj.AD, *obj.Fault) {
	return s.Table.LoadAD(c.Obj, cpuSlotCurrent)
}

// bind attaches a ready process to the processor: the implicit hardware
// dispatch of §5 ("ready processes are dispatched on processors
// automatically").
func (c *CPU) bind(s *System, p obj.AD) *obj.Fault {
	c.Clock.Charge(vtime.CostDispatch)
	if f := s.Procs.SetState(p, process.StateRunning); f != nil {
		return f
	}
	ts, f := s.Procs.TimeSlice(p)
	if f != nil {
		return f
	}
	c.proc = p
	c.sliceLeft = vtime.Cycles(ts)
	c.Dispatches++
	s.dispatches++
	if l := s.Table.Tracer(); l != nil {
		l.Emit(trace.EvDispatch, uint32(p.Index), uint32(c.ID), 0)
	}
	// The processor object names its current process so the collector
	// sees running processes as roots.
	return s.Table.StoreADSystem(c.Obj, cpuSlotCurrent, p)
}

// unbind detaches the current process (which has blocked, terminated,
// faulted, been preempted, or been stopped); consumed-cycle accounting
// happens per step in the driver.
func (c *CPU) unbind(s *System) *obj.Fault {
	c.proc = obj.NilAD
	c.sliceLeft = 0
	return s.Table.StoreADSystem(c.Obj, cpuSlotCurrent, obj.NilAD)
}

// tryDispatch draws the highest-priority ready process from the
// dispatching port. It reports whether a process was bound.
func (c *CPU) tryDispatch(s *System) (bool, *obj.Fault) {
	msg, blocked, _, f := s.Ports.Receive(s.Dispatch, obj.NilAD)
	if f != nil {
		return false, f
	}
	if blocked { // empty: stay idle
		return false, nil
	}
	if _, f := s.Table.RequireType(msg, obj.TypeProcess); f != nil {
		// A non-process at the dispatch port is system damage; drop
		// it rather than wedge the processor.
		return false, f
	}
	// A process stopped while queued is skipped; the process manager
	// requeues it on start (§6.1).
	st, f := s.Procs.StateOf(msg)
	if f != nil {
		return false, f
	}
	if st != process.StateReady {
		return false, nil
	}
	if f := c.bind(s, msg); f != nil {
		return false, f
	}
	return true, nil
}
