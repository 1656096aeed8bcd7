package gdp

import (
	"repro/internal/mem"
	"repro/internal/obj"
	"repro/internal/sro"
)

// Structural commit inside epoch forks.
//
// The create-object instruction used to be unconditionally structural —
// free-list pop plus first-fit allocation — so one create aborted the
// whole epoch and allocation-heavy workloads (the paper's E2 ~80 µs
// allocate shape) degraded to serial. Each CPU now carries an
// obj.Reservation of pre-granted slots and pre-charged arena bytes;
// createObject consumes it with pure descriptor/byte writes that land in
// the fork shadow and commit with the epoch's write set. The refill half
// runs between epochs on the real system, in canonical CPU order, so it
// is identical in every corner (serial, parallel, cache on/off).

// createObject executes the create instruction for cpu: the reserved path
// when it applies, else the structural path (which aborts the epoch on a
// fork and produces the canonical faults serially).
func (s *System) createObject(cpu *CPU, sroAD obj.AD, spec obj.CreateSpec) (obj.AD, *obj.Fault) {
	if !s.structOff {
		if ad, ok := s.tryReservedCreate(cpu, sroAD, spec); ok {
			return ad, nil
		}
	}
	return s.SROs.Create(sroAD, spec)
}

// tryReservedCreate creates from the CPU's reservation when the spec is a
// shape the reservation pre-paid for and the reservation is bound to this
// SRO with capacity left. Every refusal falls back to the structural path
// so faults stay canonical; refusals that a future refill could satisfy
// also record the wanted SRO and mark the fork abort (if any) as
// reservation-kind rather than structural.
func (s *System) tryReservedCreate(cpu *CPU, sroAD obj.AD, spec obj.CreateSpec) (obj.AD, bool) {
	if spec.Type != obj.TypeGeneric || spec.UserType != obj.NilIndex || spec.Pinned ||
		spec.DataLen > mem.MaxPart || spec.AccessSlots*obj.ADSlotSize > mem.MaxPart {
		return obj.NilAD, false // unreservable shape
	}
	d, f := s.Table.RequireType(sroAD, obj.TypeSRO)
	if f != nil || !sroAD.Rights.Has(sro.RightAllocate) {
		return obj.NilAD, false // structural path raises the canonical fault
	}
	r := &cpu.rsv
	if r.SRO != sroAD.Index || r.Gen != d.Gen {
		cpu.rsvWant = sroAD // bind here at the next refill
		s.reservationBar()
		return obj.NilAD, false
	}
	spec.Level = r.Level
	spec.SRO = r.SRO
	ad, ok := s.Table.CreateFromReservation(r, spec)
	if !ok { // slots or arena exhausted mid-epoch
		cpu.rsvWant = sroAD
		s.reservationBar()
		return obj.NilAD, false
	}
	s.parForkCreates++
	return ad, true
}

// reservationBar marks the current epoch abort (if we are speculating) as
// reservation-kind: the structural fallback below it will abort the fork
// anyway, but the cause is missing reserved capacity, not an inherently
// unreservable operation.
func (s *System) reservationBar() {
	if s.Table.IsFork() {
		s.Table.ForkBarReservation()
	}
}

// refillReservations reconciles and tops up every CPU's reservation, in
// CPU order, on the real system between steps. It runs identically in
// every corner — backend choice happens after it — which is what keeps
// reservation grants (ordinary serial structural operations) out of the
// determinism argument.
func (s *System) refillReservations() {
	if s.structOff {
		return
	}
	for _, cpu := range s.CPUs {
		if cpu.rsv.SRO == obj.NilIndex && !cpu.rsvWant.Valid() {
			continue // never allocates: zero cost
		}
		s.SROs.RefillReservation(&cpu.rsv, cpu.rsvWant)
		cpu.rsvWant = obj.NilAD
	}
}

// ReservedBytes reports the outstanding (granted but unconsumed) arena
// bytes per SRO, for live generation-matching reservations. The audit
// layer adds these to live-object footprints when checking SRO accounting:
// the whole arena is charged at grant time, and consumed bytes become
// object footprints one-for-one.
func (s *System) ReservedBytes() map[obj.Index]uint64 {
	out := make(map[obj.Index]uint64)
	for _, cpu := range s.CPUs {
		r := &cpu.rsv
		if r.SRO == obj.NilIndex {
			continue
		}
		d := s.Table.DescriptorAt(r.SRO)
		if d == nil || d.Type != obj.TypeSRO || d.Gen != r.Gen {
			continue // stale binding: released at the next refill
		}
		out[r.SRO] += uint64(r.ArenaLeft())
	}
	return out
}

// ReservedSlotCount reports the descriptor slots held by CPU reservations,
// for the leak check Table.ReservedSlots() == ReservedSlotCount().
func (s *System) ReservedSlotCount() int {
	n := 0
	for _, cpu := range s.CPUs {
		n += cpu.rsv.SlotsLeft()
	}
	return n
}
