package sro

import (
	"repro/internal/mem"
	"repro/internal/obj"
)

// Reservation refill: the serial half of fork-committable creation.
//
// The driver tops up each simulated CPU's obj.Reservation between epochs,
// on the real (non-fork) system, in canonical CPU order — so the grants
// themselves are ordinary serial structural operations, identical in the
// serial and parallel corners. The in-fork half (obj.CreateFromReservation)
// then consumes the pre-granted slots and arena bytes without touching
// any shared allocator state.
//
// Accounting invariant (checked by audit.CheckSROs): an SRO's used field
// equals the footprints of its live objects plus the unconsumed arena
// bytes of live reservations bound to it. The whole arena is charged at
// grant time; consumed bytes become object footprints one-for-one (bump
// allocation wastes nothing), and Reclaim credits footprints back exactly
// as for ordinary creation, so the invariant holds at every step.
const (
	// ReserveSlotTarget is the slot batch granted per refill;
	// ReserveSlotLow triggers a top-up. Slot top-ups are append-only —
	// they extend the reservation's tail without moving the cursor — and
	// the batch size only sets how much of each top-up the free list must
	// cover. ReserveSlotFresh caps the *fresh* slots
	// minted per refill: fresh slots extend the descriptor table, the
	// collector's passes scan the table linearly, and an uncapped grant
	// would tax every GC cycle with slots that reclamation churn feeds
	// back through the free list anyway. A quantum bounds creates per
	// processor at roughly quantum/CostCreateObject (~8 at the default 5k
	// quantum), so the low mark covers one quantum of the tightest
	// possible create loop; an epoch that out-allocates the tail falls
	// back structurally (abort, refill, serial replay) without losing
	// determinism. The constants are deliberately small: the hoard
	// inflates the live descriptor table, and E6's stall separation is a
	// direct measure of that tax.
	ReserveSlotTarget = 12
	ReserveSlotLow    = 8
	ReserveSlotFresh  = 8
	// ReserveArenaBytes is the storage granted per refill, halved down
	// to ReserveArenaLow when the claim or free memory cannot cover it.
	ReserveArenaBytes = 48 << 10
	ReserveArenaLow   = 8 << 10
)

// reservationAD synthesises the full-rights capability the manager uses
// to reach a bound reservation's SRO. r.Gen holds the full descriptor
// generation, so the AD dangles detectably if the SRO died.
func reservationAD(r *obj.Reservation) obj.AD {
	return obj.AD{Index: r.SRO, Gen: r.Gen, Rights: obj.RightsAll}
}

// reservationAlive reports whether the bound SRO still exists with the
// generation the reservation was granted against.
func (m *Manager) reservationAlive(r *obj.Reservation) bool {
	d := m.Table.DescriptorAt(r.SRO)
	return d != nil && d.Type == obj.TypeSRO && d.Gen == r.Gen
}

// RefillReservation reconciles and tops up one CPU's reservation, binding
// (or rebinding) it to want when valid. Its choices — when to reconcile,
// compact, and top up — fix which slots and bytes every later create
// consumes, so they are part of the canonical allocation schedule. Must
// be called on the real (non-fork) system only.
func (m *Manager) RefillReservation(r *obj.Reservation, want obj.AD) {
	// A dead or superseded binding releases first: remainder bytes back
	// to memory (and to the SRO's claim if it still exists), unconsumed
	// slots back to the free list.
	if r.SRO != obj.NilIndex {
		stale := !m.reservationAlive(r)
		superseded := want.Valid() && want.Index != r.SRO
		if stale || superseded {
			m.ReleaseReservation(r)
		}
	}

	// Bind to the wanted SRO. Validation mirrors Create's checks; a want
	// that would fault there simply leaves the reservation unbound and
	// the structural path produces the canonical fault.
	if r.SRO == obj.NilIndex {
		if !want.Valid() {
			return
		}
		d, f := m.Table.RequireType(want, obj.TypeSRO)
		if f != nil || !want.Rights.Has(RightAllocate) {
			return
		}
		level, f := m.Table.ReadWord(want, offLevel)
		if f != nil {
			return
		}
		r.SRO = want.Index
		r.Gen = d.Gen
		r.Level = obj.Level(level)
	}

	ad := reservationAD(r)

	// Reconcile the SRO's cumulative allocation counter with the creates
	// consumed from this reservation — but only when an arena top-up is
	// due anyway, so a steady-state refill leaves the SRO's bytes alone.
	// Consumed rides until the next arena turnover (ReleaseReservation
	// also reconciles, so nothing is lost). The lag is deterministic:
	// refills run identically in every corner.
	needArena := r.ArenaLeft() < ReserveArenaLow
	if needArena && r.Consumed > 0 {
		allocs, f := m.Table.ReadDWord(ad, offAllocs)
		if f == nil {
			_ = m.Table.WriteDWord(ad, offAllocs, allocs+r.Consumed)
		}
		r.Consumed = 0
	}

	// Compact the consumed slot prefix away — this moves the cursor, so
	// it only happens at an arena turnover, or when the append-only tail
	// has grown past bound (objects with empty parts consume slots
	// without ever depleting the arena).
	if r.Next > 0 && (needArena || len(r.Slots) >= 4*ReserveSlotTarget) {
		n := copy(r.Slots, r.Slots[r.Next:])
		r.Slots = r.Slots[:n]
		r.Next = 0
	}

	// Slot top-up: append to the tail up to target. Slots carry no
	// storage claim; existing entries and the Next cursor are untouched.
	if r.SlotsLeft() < ReserveSlotLow {
		r.Slots = m.Table.ReserveSlots(r.Slots, ReserveSlotTarget-r.SlotsLeft(), ReserveSlotFresh)
	}

	// Arena top-up: return the unconsumed remainder, then charge and
	// allocate a fresh arena, halving the request when the claim or free
	// memory cannot cover it. All-fail leaves the arena empty (creates
	// fall back to the structural path and its canonical faults).
	if needArena {
		if rem := r.ArenaLeft(); rem > 0 {
			_ = m.Table.Memory().Free(mem.Extent{Base: r.Arena.Base + mem.Addr(r.ArenaOff), Len: rem})
			m.credit(r.SRO, rem)
		}
		r.Arena, r.ArenaOff = mem.Extent{}, 0
		for req := uint32(ReserveArenaBytes); req >= ReserveArenaLow; req >>= 1 {
			if f := m.charge(ad, req); f != nil {
				continue // claim cannot cover req; try smaller
			}
			ext, err := m.Table.Memory().Alloc(req)
			if err != nil {
				m.credit(r.SRO, req)
				continue // fragmentation; try smaller
			}
			r.Arena = ext
			break
		}
	}
}

// ReleaseReservation returns everything unconsumed — arena remainder to
// physical memory (credited to the SRO's claim if it is still alive),
// slots to the table's free list — and unbinds. Consumed capacity stays
// where it is: those bytes are live objects' footprints and those slots
// are live objects' descriptors. Must be called on the real system only.
func (m *Manager) ReleaseReservation(r *obj.Reservation) {
	if r.SRO == obj.NilIndex {
		return
	}
	alive := m.reservationAlive(r)
	if rem := r.ArenaLeft(); rem > 0 {
		_ = m.Table.Memory().Free(mem.Extent{Base: r.Arena.Base + mem.Addr(r.ArenaOff), Len: rem})
		if alive {
			m.credit(r.SRO, rem)
		}
	}
	if alive && r.Consumed > 0 {
		ad := reservationAD(r)
		allocs, f := m.Table.ReadDWord(ad, offAllocs)
		if f == nil {
			_ = m.Table.WriteDWord(ad, offAllocs, allocs+r.Consumed)
		}
	}
	m.Table.UnreserveSlots(r.Slots[r.Next:])
	*r = obj.Reservation{}
}
