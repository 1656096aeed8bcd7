package obj

import (
	"repro/internal/mem"
	"repro/internal/trace"
)

// Reservations: pre-granted structural capacity that makes object
// creation legal inside an epoch fork.
//
// The create-object instruction is structural twice over — it pops a slot
// off the table's free LIFO and first-fits an extent out of the shared
// free list — so a speculating fork cannot replay it and historically
// aborted the whole epoch, degrading allocation-heavy workloads (the
// paper's ~80 µs E2 allocate shape) to serial. A Reservation removes both
// structural steps from the instruction: the driver grants each simulated
// CPU a batch of descriptor slots (popped from the free list up front, so
// they are out of circulation) and one arena extent (allocated and
// zeroed up front, with the storage claim charged to the SRO at grant
// time). Creating an object then only writes a descriptor at the next
// reserved slot and bump-allocates both parts from the arena — pure
// descriptor/byte writes that land in the fork shadow and commit with the
// epoch's write set.
//
// The reservation itself is a value: the fork speculates on the CPU
// struct's copy of the cursor, and the cursor advance is published by the
// same CPU copy-back that publishes the clock. An aborted epoch discards
// the copy, and the serial replay re-consumes the identical slots and
// bytes — no unwind step exists because nothing was consumed until a
// commit or a serial execution said so.
type Reservation struct {
	// SRO is the storage resource object the reservation draws from; Gen
	// is its full descriptor generation at grant time, so the reservation
	// goes stale (and is never consumed) if the SRO dies or its slot is
	// recycled.
	SRO Index
	Gen uint32
	// Level is the SRO's lifetime level, cached at grant time so in-fork
	// creation never reads SRO data bytes (which would put the shared SRO
	// page into the fork's footprint).
	Level Level
	// Slots[Next:] are the unconsumed reserved descriptor slots.
	Slots []Index
	Next  int
	// Arena[ArenaOff:] is the unconsumed pre-charged, pre-zeroed storage.
	Arena    mem.Extent
	ArenaOff uint32
	// Consumed counts creates since the last reconcile with the SRO's
	// allocation counter (see sro.RefillReservation).
	Consumed uint32
}

// SlotsLeft reports the unconsumed reserved slots.
func (r *Reservation) SlotsLeft() int { return len(r.Slots) - r.Next }

// ArenaLeft reports the unconsumed arena bytes.
func (r *Reservation) ArenaLeft() uint32 {
	if r.Arena.Len < r.ArenaOff {
		return 0
	}
	return r.Arena.Len - r.ArenaOff
}

// ReserveSlots pops up to n descriptor slots out of circulation and
// appends them to dst: freed slots first (matching Create's reuse order),
// then at most freshCap fresh ones. The cap throttles table growth —
// fresh slots extend the descriptor table, and the collector's passes
// scan the table linearly, so an uncapped batch grant would tax every GC
// cycle with slots the free list could have supplied later. Reserved
// slots hold their old invalid descriptors — no AD can name them — until
// CreateFromReservation materialises objects there or UnreserveSlots
// returns them. Not legal on a fork.
func (t *Table) ReserveSlots(dst []Index, n, freshCap int) []Index {
	granted := 0
	for i := 0; i < n; i++ {
		var idx Index
		if k := len(t.free); k > 0 {
			idx = t.free[k-1]
			t.free = t.free[:k-1]
		} else if freshCap > 0 {
			freshCap--
			t.descs = append(t.descs, Descriptor{})
			idx = Index(len(t.descs) - 1)
		} else {
			break
		}
		dst = append(dst, idx)
		granted++
	}
	t.reserved += granted
	return dst
}

// UnreserveSlots returns unconsumed reserved slots to the free list, in
// reverse reservation order so the free LIFO is restored exactly as if
// the slots had never been reserved.
func (t *Table) UnreserveSlots(slots []Index) {
	for i := len(slots) - 1; i >= 0; i-- {
		t.free = append(t.free, slots[i])
	}
	t.reserved -= len(slots)
}

// ReservedSlots reports how many descriptor slots are currently held out
// of circulation by reservations, for the audit layer's leak check.
func (t *Table) ReservedSlots() int {
	if fk := t.fk; fk != nil {
		return fk.parent.reserved
	}
	return t.reserved
}

// CreateFromReservation materialises an object at the reservation's next
// slot, bump-allocating both parts from its arena. No free-list or
// allocator state moves, so this is legal on an epoch fork: the
// descriptor write lands in the shadow and commits with the epoch.
//
// It handles only the plain shapes the reservation pre-paid for —
// TypeGeneric, unpinned, parts within the remaining arena. Anything else
// reports ok=false and the caller falls back to the structural path
// (which aborts the epoch on a fork and produces the canonical faults
// serially). The caller has already validated the SRO and rights and set
// spec.SRO/spec.Level from the reservation.
func (t *Table) CreateFromReservation(r *Reservation, spec CreateSpec) (AD, bool) {
	if spec.Type != TypeGeneric || spec.UserType != NilIndex || spec.Pinned {
		return NilAD, false
	}
	if spec.DataLen > mem.MaxPart || spec.AccessSlots*ADSlotSize > mem.MaxPart {
		return NilAD, false
	}
	if r.SlotsLeft() == 0 {
		return NilAD, false
	}
	need := spec.DataLen + spec.AccessSlots*ADSlotSize
	if need > r.ArenaLeft() {
		return NilAD, false
	}
	idx := r.Slots[r.Next]
	var data, access mem.Extent
	off := r.Arena.Base + mem.Addr(r.ArenaOff)
	if spec.DataLen > 0 {
		data = mem.Extent{Base: off, Len: spec.DataLen}
		off += mem.Addr(spec.DataLen)
	}
	if spec.AccessSlots > 0 {
		access = mem.Extent{Base: off, Len: spec.AccessSlots * ADSlotSize}
	}

	d := t.slot(idx)
	gen := d.Gen + 1 // bump on reuse so stale ADs dangle detectably
	*d = Descriptor{
		Valid:       true,
		Type:        spec.Type,
		UserType:    spec.UserType,
		Gen:         gen,
		Level:       spec.Level,
		SRO:         spec.SRO,
		Data:        data,
		DataLen:     spec.DataLen,
		Access:      access,
		AccessSlots: spec.AccessSlots,
		Color:       Gray, // born gray, same as Create
	}
	r.Next++
	r.ArenaOff += need
	r.Consumed++
	if fk := t.fk; fk != nil {
		// Parent live/created/reserved bookkeeping is published at commit
		// via the fork's created count; see ForkCommit/ForkCommitPending.
		fk.created++
	} else {
		t.live++
		t.created++
		t.reserved--
	}
	if l := t.tr; l != nil {
		l.Emit(trace.EvObjCreate, uint32(idx), uint32(spec.Type), uint64(spec.Level))
	}
	return AD{Index: idx, Gen: gen & adGenMask, Rights: RightsAll}, true
}
