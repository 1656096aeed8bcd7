package obj

// Checked access paths. Every read and write in the system — by user
// processes, iMAX packages, and the collector alike — goes through these
// methods, so a capability's rights and its object's bounds are enforced on
// every reference, exactly the per-reference hardware checking of §7.1.
//
// Ref is the one implementation of each checked access. Table.Open
// qualifies a capability once — the way a 432 instruction qualifies its
// operand ADs before working on the objects behind them — and every Ref
// method then demands its own right, residency and bounds against the
// descriptor Open found. The AD-taking accessors on Table are Open
// followed by one Ref method.

import "repro/internal/trace"

// Ref is a resolved object handle: a capability together with the
// descriptor Table.Open validated it against.
//
// Validity rule: a Ref stays valid until the next structural operation on
// its table — create (including reservation grants), destroy, swap-out or
// swap-in, or a compaction move. Creation may grow the descriptor slice
// under the Ref's descriptor pointer, and the others may retire the object
// or rewrite its extents; a holder re-opens after any of them. Everything
// else — data writes, AD stores, gray-bit shading of other objects — goes
// through the same descriptor the Ref points at, so it stays coherent.
// Epoch-fork shadows are address-stable, so on a fork the same rule holds
// within one epoch.
//
// A Ref reads and writes through the mem accessors, never through a
// mem.Window: on an epoch fork a window touches its whole extent into the
// read footprint, while an accessor touches exactly the bytes it moves, so
// the handle leaves conflict footprints as narrow as per-access resolution
// did.
type Ref struct {
	t  *Table
	ad AD
	d  *Descriptor
}

// Open resolves a once — validity, generation, and the rights in want —
// and returns a handle for repeated checked access. A missing right faults
// FaultRights naming the lowest missing right, which is the fault the
// first failing per-access check would raise. Residency is not demanded
// here: each access faults FaultSegmentMoved on a swapped-out object, as
// the per-access path always has.
func (t *Table) Open(a AD, want Rights) (Ref, *Fault) {
	d, f := t.Resolve(a)
	if f != nil {
		return Ref{}, f
	}
	r := Ref{t: t, ad: a, d: d}
	if f := r.Require(want); f != nil {
		return Ref{}, f
	}
	return r, nil
}

// OpenType is Open without rights demands plus a hardware type check —
// the handle form of RequireType.
func (t *Table) OpenType(a AD, want Type) (Ref, *Fault) {
	r, f := t.Open(a, RightsNone)
	if f != nil {
		return Ref{}, f
	}
	if r.d.Type != want {
		return Ref{}, Faultf(FaultType, a, "have %s, need %s", r.d.Type, want)
	}
	return r, nil
}

// Require faults FaultRights unless the handle's capability holds every
// right in want, naming the lowest missing one.
func (r Ref) Require(want Rights) *Fault {
	if want&^r.ad.Rights != 0 {
		missing := want &^ r.ad.Rights
		return rightsFault(r.ad, missing&-missing)
	}
	return nil
}

func rightsFault(a AD, want Rights) *Fault {
	return Faultf(FaultRights, a, "need %s", want)
}

// AD reports the capability the handle was opened with.
func (r Ref) AD() AD { return r.ad }

// Desc reports the object's descriptor, for inspection only.
func (r Ref) Desc() *Descriptor { return r.d }

// Table reports the table the handle resolves against.
func (r Ref) Table() *Table { return r.t }

// present demands want and residency: the per-access half of the check
// the table's accessors have always made.
// The check inlines; the fault is built out of line.
func (r Ref) present(want Rights) *Fault {
	if !r.ad.Rights.Has(want) || r.d.SwappedOut {
		return r.absent(want)
	}
	return nil
}

func (r Ref) absent(want Rights) *Fault {
	if !r.ad.Rights.Has(want) {
		return rightsFault(r.ad, want)
	}
	return Faultf(FaultSegmentMoved, r.ad, "swapped out (token %d)", r.d.SwapToken)
}

// ReadByteAt reads the byte at displacement off in the data part.
func (r Ref) ReadByteAt(off uint32) (byte, *Fault) {
	if f := r.present(RightRead); f != nil {
		return 0, f
	}
	v, err := r.t.mem.ReadByteAt(r.d.Data, off)
	if err != nil {
		return 0, Faultf(FaultBounds, r.ad, "%v", err)
	}
	return v, nil
}

// WriteByteAt writes the byte at displacement off in the data part.
func (r Ref) WriteByteAt(off uint32, v byte) *Fault {
	if f := r.present(RightWrite); f != nil {
		return f
	}
	if err := r.t.mem.WriteByteAt(r.d.Data, off, v); err != nil {
		return Faultf(FaultBounds, r.ad, "%v", err)
	}
	return nil
}

// ReadWord reads the 16-bit ordinal at displacement off in the data part.
func (r Ref) ReadWord(off uint32) (uint16, *Fault) {
	if f := r.present(RightRead); f != nil {
		return 0, f
	}
	v, err := r.t.mem.ReadWord(r.d.Data, off)
	if err != nil {
		return 0, Faultf(FaultBounds, r.ad, "%v", err)
	}
	return v, nil
}

// WriteWord writes the 16-bit ordinal at displacement off in the data part.
func (r Ref) WriteWord(off uint32, v uint16) *Fault {
	if f := r.present(RightWrite); f != nil {
		return f
	}
	if err := r.t.mem.WriteWord(r.d.Data, off, v); err != nil {
		return Faultf(FaultBounds, r.ad, "%v", err)
	}
	return nil
}

// ReadDWord reads the 32-bit value at displacement off in the data part.
func (r Ref) ReadDWord(off uint32) (uint32, *Fault) {
	if f := r.present(RightRead); f != nil {
		return 0, f
	}
	v, err := r.t.mem.ReadDWord(r.d.Data, off)
	if err != nil {
		return 0, Faultf(FaultBounds, r.ad, "%v", err)
	}
	return v, nil
}

// WriteDWord writes the 32-bit value at displacement off in the data part.
func (r Ref) WriteDWord(off uint32, v uint32) *Fault {
	if f := r.present(RightWrite); f != nil {
		return f
	}
	if err := r.t.mem.WriteDWord(r.d.Data, off, v); err != nil {
		return Faultf(FaultBounds, r.ad, "%v", err)
	}
	return nil
}

// ReadBytes reads n bytes at displacement off in the data part.
func (r Ref) ReadBytes(off, n uint32) ([]byte, *Fault) {
	if f := r.present(RightRead); f != nil {
		return nil, f
	}
	p, err := r.t.mem.ReadBytes(r.d.Data, off, n)
	if err != nil {
		return nil, Faultf(FaultBounds, r.ad, "%v", err)
	}
	return p, nil
}

// WriteBytes writes p at displacement off in the data part.
func (r Ref) WriteBytes(off uint32, p []byte) *Fault {
	if f := r.present(RightWrite); f != nil {
		return f
	}
	if err := r.t.mem.WriteBytes(r.d.Data, off, p); err != nil {
		return Faultf(FaultBounds, r.ad, "%v", err)
	}
	return nil
}

// LoadAD loads the access descriptor in the given slot of the access part.
// Reading an AD requires the Read right on the container.
func (r Ref) LoadAD(slot uint32) (AD, *Fault) {
	if f := r.present(RightRead); f != nil {
		return NilAD, f
	}
	if slot >= r.d.AccessSlots {
		return NilAD, Faultf(FaultBounds, r.ad, "access slot %d of %d", slot, r.d.AccessSlots)
	}
	v, err := r.t.mem.ReadQWord(r.d.Access, slot*ADSlotSize)
	if err != nil {
		return NilAD, Faultf(FaultOddity, r.ad, "%v", err)
	}
	return DecodeAD(v), nil
}

// StoreAD stores capability src into the given slot of the access part.
// This is the AD-move microcode and carries the two duties §5 and §8.1
// assign to it:
//
//   - the lifetime level check: "an access for an object may never be
//     stored into an object with a lower (more global) level number" — a
//     reference to a short-lived object must not outlive it by hiding in a
//     longer-lived object;
//   - the collector's gray bit: "the 432 hardware implements the gray bit
//     of that algorithm, setting it whenever access descriptors are moved"
//     (Dijkstra's shade-the-target write barrier).
//
// Storing NilAD clears the slot and needs no checks beyond Write.
func (r Ref) StoreAD(slot uint32, src AD) *Fault { return r.storeAD(slot, src, true) }

// StoreADSystem is the microcode-internal AD store: it performs validity,
// rights-on-container and gray-bit duties but skips the lifetime level
// check. The hardware's own transient queues need it — a process blocking
// at a more global port is briefly linked below it (via a carrier object)
// even though the process is shorter-lived; the microcode unlinks the
// carrier before the process can die, so no dangling reference is ever
// user-visible. Only the port and dispatching machinery may use this path;
// everything user-reachable goes through StoreAD.
func (r Ref) StoreADSystem(slot uint32, src AD) *Fault { return r.storeAD(slot, src, false) }

func (r Ref) storeAD(slot uint32, src AD, levelCheck bool) *Fault {
	if f := r.present(RightWrite); f != nil {
		return f
	}
	d, t := r.d, r.t
	if slot >= d.AccessSlots {
		return Faultf(FaultBounds, r.ad, "access slot %d of %d", slot, d.AccessSlots)
	}
	if src.Valid() {
		sd, f := t.Resolve(src)
		if f != nil {
			return f
		}
		if levelCheck && sd.Level > d.Level {
			return Faultf(FaultLevel, src,
				"cannot store level-%d object into level-%d object", sd.Level, d.Level)
		}
		// Shade the target of the moved AD for the on-the-fly
		// collector.
		if sd.Color == White {
			sd.Color = Gray
			t.grayings++
			if l := t.tr; l != nil {
				l.Emit(trace.EvGray, uint32(src.Index), 0, 0)
			}
		}
		// A freshly stored reference re-adopts the object: it gets a
		// new destruction-filter life (§8.2). The collector's own
		// filter delivery sets the latch after its deposit, so a
		// delivered-then-dropped object still reclaims quietly.
		sd.Finalized = false
	}
	if err := t.mem.WriteQWord(d.Access, slot*ADSlotSize, src.Encode()); err != nil {
		return Faultf(FaultOddity, r.ad, "%v", err)
	}
	if cacheHazard(d.Type, slot, levelCheck) {
		t.xgen++
		t.noteCacheHazard(r.ad.Index)
	}
	t.adStores++
	if l := t.tr; l != nil {
		l.Emit(trace.EvADStore, uint32(r.ad.Index), uint32(src.Index), uint64(slot))
	}
	return nil
}

// cacheHazard reports whether an AD store into the given slot of an object
// of type typ can redirect execution structure the interpreter's execution
// cache pins, and so must bump the cache generation.
//
//   - A process: only its current-context slot (ProcSlotContext). That is
//     the one process slot the cache derives anything from; the carry slot
//     a message rides in to a woken receiver, the port links and the
//     scheduler links are read through the checked path.
//   - A context, by a user-reachable store: the domain and caller slots
//     the cache pins live there. System stores into contexts are the
//     access registers (SetAReg), which the cache reads through its live
//     access window — no bump, or every AD-handling instruction would
//     thrash the cache. The trace compiler leans on the same discipline:
//     a fused load/store re-reads its a-reg from the live access window
//     on every execution, so a SetAReg under a compiled trace is observed
//     without invalidation (and a vanished operand deopts).
func cacheHazard(typ Type, slot uint32, user bool) bool {
	switch typ {
	case TypeProcess:
		return slot == ProcSlotContext
	case TypeContext:
		return user
	}
	return false
}

// ReadByteAt reads the byte at displacement off in a's data part.
func (t *Table) ReadByteAt(a AD, off uint32) (byte, *Fault) {
	r, f := t.Open(a, RightRead)
	if f != nil {
		return 0, f
	}
	return r.ReadByteAt(off)
}

// WriteByteAt writes the byte at displacement off in a's data part.
func (t *Table) WriteByteAt(a AD, off uint32, v byte) *Fault {
	r, f := t.Open(a, RightWrite)
	if f != nil {
		return f
	}
	return r.WriteByteAt(off, v)
}

// ReadWord reads the 16-bit ordinal at displacement off in a's data part.
func (t *Table) ReadWord(a AD, off uint32) (uint16, *Fault) {
	r, f := t.Open(a, RightRead)
	if f != nil {
		return 0, f
	}
	return r.ReadWord(off)
}

// WriteWord writes the 16-bit ordinal at displacement off in a's data part.
func (t *Table) WriteWord(a AD, off uint32, v uint16) *Fault {
	r, f := t.Open(a, RightWrite)
	if f != nil {
		return f
	}
	return r.WriteWord(off, v)
}

// ReadDWord reads the 32-bit value at displacement off in a's data part.
func (t *Table) ReadDWord(a AD, off uint32) (uint32, *Fault) {
	r, f := t.Open(a, RightRead)
	if f != nil {
		return 0, f
	}
	return r.ReadDWord(off)
}

// WriteDWord writes the 32-bit value at displacement off in a's data part.
func (t *Table) WriteDWord(a AD, off uint32, v uint32) *Fault {
	r, f := t.Open(a, RightWrite)
	if f != nil {
		return f
	}
	return r.WriteDWord(off, v)
}

// ReadBytes reads n bytes at displacement off in a's data part.
func (t *Table) ReadBytes(a AD, off, n uint32) ([]byte, *Fault) {
	r, f := t.Open(a, RightRead)
	if f != nil {
		return nil, f
	}
	return r.ReadBytes(off, n)
}

// WriteBytes writes p at displacement off in a's data part.
func (t *Table) WriteBytes(a AD, off uint32, p []byte) *Fault {
	r, f := t.Open(a, RightWrite)
	if f != nil {
		return f
	}
	return r.WriteBytes(off, p)
}

// LoadAD loads the access descriptor in the given slot of a's access part.
func (t *Table) LoadAD(a AD, slot uint32) (AD, *Fault) {
	r, f := t.Open(a, RightRead)
	if f != nil {
		return NilAD, f
	}
	return r.LoadAD(slot)
}

// StoreAD stores capability src into the given slot of dst's access part,
// with the level check and gray bit of Ref.StoreAD.
func (t *Table) StoreAD(dst AD, slot uint32, src AD) *Fault {
	r, f := t.Open(dst, RightWrite)
	if f != nil {
		return f
	}
	return r.StoreAD(slot, src)
}

// MoveAD is the capability-passing form of StoreAD: it stores src with
// rights restricted by drop, modelling the 432's rights reduction on copy.
func (t *Table) MoveAD(dst AD, slot uint32, src AD, drop Rights) *Fault {
	return t.StoreAD(dst, slot, src.Restrict(drop))
}

// StoreADSystem is the microcode-internal AD store of Ref.StoreADSystem.
func (t *Table) StoreADSystem(dst AD, slot uint32, src AD) *Fault {
	r, f := t.Open(dst, RightWrite)
	if f != nil {
		return f
	}
	return r.StoreADSystem(slot, src)
}
