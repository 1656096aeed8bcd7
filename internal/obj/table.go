package obj

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/trace"
)

// Color is the tri-colour marking state used by the on-the-fly collector
// (§8.1, after Dijkstra et al.). White objects are candidates for
// reclamation, black objects have been scanned, gray objects are reachable
// but not yet scanned. The mutator's only obligation is the gray bit,
// maintained by the AD-move microcode in StoreAD.
type Color uint8

const (
	White Color = iota
	Gray
	Black
)

func (c Color) String() string {
	switch c {
	case White:
		return "white"
	case Gray:
		return "gray"
	case Black:
		return "black"
	}
	return fmt.Sprintf("color(%d)", uint8(c))
}

// Descriptor is one entry in the global object descriptor table (§2): the
// single authoritative description of an object. There is exactly one
// descriptor per object, however many ADs reference it.
type Descriptor struct {
	Valid bool
	Type  Type
	// UserType names the type definition object (TDO) that gave this
	// object its user-defined type, or NilIndex for plain hardware
	// typing (§7.2: user types enjoy the same hardware guarantee).
	UserType Index
	Gen      uint32
	Level    Level
	// SRO is the storage resource object this object was allocated
	// from; its destruction bulk-frees the object (§5).
	SRO Index

	// Data is the data part (up to 64 KB); Access is the access part
	// holding AccessSlots encoded ADs of ADSlotSize bytes each.
	Data        mem.Extent
	DataLen     uint32
	Access      mem.Extent
	AccessSlots uint32

	// Garbage collection state (§8.1).
	Color Color
	// Pinned objects are roots the collector must never reclaim
	// (processor objects, the system directory).
	Pinned bool
	// Finalized records that the destruction filter (§8.2) has already
	// delivered this object to its type manager once; when it becomes
	// garbage again it reclaims normally.
	Finalized bool

	// Virtual memory state (§6.2). A swapped-out object's extents are
	// invalid; SwapToken names its image in the backing store. Access
	// raises FaultSegmentMoved for the memory manager to service.
	SwappedOut bool
	SwapToken  uint64
}

// Table is the global object descriptor table. All object creation,
// destruction and access flows through it; it owns physical memory.
//
// The table is not safe for unsynchronised concurrent use: the lock-step
// processor driver serialises all microcode, mirroring the single shared
// memory bus of the real machine.
type Table struct {
	mem   *mem.Memory
	descs []Descriptor
	free  []Index // free descriptor slots, reused with bumped generations
	live  int     // number of valid descriptors

	// stats for the experiment harness
	created   uint64
	destroyed uint64
	adStores  uint64
	grayings  uint64

	// tr is the kernel event log. nil means tracing is disabled; every
	// emission site checks for nil locally so the disabled path is one
	// branch.
	tr *trace.Log

	// xgen is the cache-invalidation generation consumed by the
	// interpreter's execution cache (internal/gdp). Every operation that
	// could alias cached descriptor state — destruction (including SRO and
	// level reclaim), swap-out/in, extent moves during compaction, AD
	// stores into process or context objects, a committed parallel epoch —
	// bumps it; a cached entry whose snapshot differs is dead.
	xgen uint64

	// reserved counts descriptor slots currently held out of circulation
	// by reservations (see reserve.go), for Len/audit bookkeeping.
	reserved int

	// fk marks this table as an epoch-fork view (see fork.go): descriptor
	// lookups route through a copy-on-touch shadow and structural
	// operations abort the fork.
	fk *tableFork
}

// NewTable creates an object table over a fresh physical memory of the
// given size. Entry 0 is reserved as the nil object.
func NewTable(memSize uint32) *Table {
	t := &Table{
		mem:   mem.New(memSize),
		descs: make([]Descriptor, 1, 1024),
	}
	return t
}

// Memory exposes the underlying physical store to trusted subsystems (the
// memory manager and experiment harness); ordinary code addresses memory
// only through ADs.
func (t *Table) Memory() *mem.Memory { return t.mem }

// Live reports the number of valid objects. A fork adds its own
// uncommitted reservation-created objects to the parent's count — forks
// never destroy.
func (t *Table) Live() int {
	if fk := t.fk; fk != nil {
		return fk.parent.live + fk.created
	}
	return t.live
}

// Len reports the number of table slots ever allocated (including free
// ones); the collector sweeps this range.
func (t *Table) Len() int {
	if fk := t.fk; fk != nil {
		return len(fk.parent.descs)
	}
	return len(t.descs)
}

// Stats reports object-layer event counts used by the benchmarks.
func (t *Table) Stats() (created, destroyed, adStores, grayings uint64) {
	return t.created, t.destroyed, t.adStores, t.grayings
}

// SetTracer installs (or, with nil, removes) the kernel event log. The
// table is the one structure every subsystem already holds, so it carries
// the tracer for all of them.
func (t *Table) SetTracer(l *trace.Log) { t.tr = l }

// Tracer returns the installed kernel event log, possibly nil. Subsystems
// built over the table (ports, the collector, the process manager) emit
// their events through this.
func (t *Table) Tracer() *trace.Log { return t.tr }

// CacheGen reports the table's cache-invalidation generation. Holders of
// derived state (resolved descriptor windows, decoded operand caches,
// compiled instruction traces) must snapshot it when priming and treat any
// later mismatch as invalidation.
//
// Trace-pin hazard note: the interpreter's trace compiler (internal/gdp)
// fuses hot regions into superinstructions that run over pinned mem.Window
// views with the instruction pointer deferred to region exit. Those runs
// are safe against exactly the hazards this generation covers — destroy,
// swap-out/in, compaction moves, AD stores into process/context objects —
// because a trace executes only from an execution cache whose generation
// was just checked, and no fused operation can bump the generation
// mid-run. Any new table mutation that can invalidate a derived window or
// decoded program MUST bump xgen (directly or via InvalidateCaches), or
// compiled traces will keep executing a world that no longer exists.
//
// An epoch fork reports the sum of its parent's generation and its own:
// fork-local aliasing operations (an AD store into a process or context
// during speculation) bump the fork's generation, and structural events on
// the parent between epochs bump the parent's; either advances the sum, so
// a fork-primed cache goes stale on both kinds of hazard. The parent is
// quiescent while forks execute, so the cross-read is race-free.
func (t *Table) CacheGen() uint64 {
	if t.fk != nil {
		return t.fk.parent.xgen + t.xgen
	}
	return t.xgen
}

// InvalidateCaches bumps the cache-invalidation generation. Table-internal
// aliasing operations bump it themselves; external trusted mutators that
// bypass the table's methods (the compactor rewriting extents through
// DescriptorAt, the parallel driver committing an epoch's descriptor
// writes) must call this explicitly.
func (t *Table) InvalidateCaches() { t.xgen++ }

// Resolve validates an AD against the table: the entry must be live and
// the generation must match. It returns the descriptor for inspection.
// Mutation must go through the table's methods.
func (t *Table) Resolve(a AD) (*Descriptor, *Fault) {
	if !a.Valid() || int(a.Index) >= t.Len() {
		return nil, Faultf(FaultInvalidAD, a, "no such object")
	}
	d := t.slot(a.Index)
	if !d.Valid || d.Gen&adGenMask != a.Gen&adGenMask {
		return nil, Faultf(FaultInvalidAD, a, "object destroyed (dangling capability)")
	}
	return d, nil
}

// resolveRights resolves a and additionally demands the given rights.
func (t *Table) resolveRights(a AD, want Rights) (*Descriptor, *Fault) {
	d, f := t.Resolve(a)
	if f != nil {
		return nil, f
	}
	if !a.Rights.Has(want) {
		return nil, Faultf(FaultRights, a, "need %s", want)
	}
	return d, nil
}

// resolvePresent resolves a with rights and faults FaultSegmentMoved when
// the object is swapped out (§6.2): the memory manager services that fault.
func (t *Table) resolvePresent(a AD, want Rights) (*Descriptor, *Fault) {
	d, f := t.resolveRights(a, want)
	if f != nil {
		return nil, f
	}
	if d.SwappedOut {
		return nil, Faultf(FaultSegmentMoved, a, "swapped out (token %d)", d.SwapToken)
	}
	return d, nil
}

// CreateSpec describes an object to create.
type CreateSpec struct {
	Type        Type
	UserType    Index // TDO, or NilIndex
	Level       Level
	SRO         Index // ancestral storage resource object
	DataLen     uint32
	AccessSlots uint32
	Pinned      bool
}

// Create allocates a new object: both parts from physical memory, a table
// slot (reusing freed slots with a fresh generation), and returns a fully
// privileged AD for it. This is the microcode half of the create-object
// instruction; internal/sro adds the storage-claim accounting and level
// assignment on top.
func (t *Table) Create(spec CreateSpec) (AD, *Fault) {
	if t.fk != nil {
		// Slot and extent allocation order is serial semantics a fork
		// cannot reproduce; the epoch falls back to serial replay.
		return NilAD, t.forkBar("object creation")
	}
	if spec.Type == TypeInvalid || spec.Type >= numTypes {
		return NilAD, Faultf(FaultType, NilAD, "cannot create objects of %s", spec.Type)
	}
	if spec.DataLen > mem.MaxPart || spec.AccessSlots*ADSlotSize > mem.MaxPart {
		return NilAD, Faultf(FaultBounds, NilAD, "part exceeds 64KB (data %d, access %d slots)",
			spec.DataLen, spec.AccessSlots)
	}
	var data, access mem.Extent
	var err error
	if spec.DataLen > 0 {
		data, err = t.mem.Alloc(spec.DataLen)
		if err != nil {
			return NilAD, Faultf(FaultNoMemory, NilAD, "data part: %v", err)
		}
	}
	if spec.AccessSlots > 0 {
		access, err = t.mem.Alloc(spec.AccessSlots * ADSlotSize)
		if err != nil {
			if spec.DataLen > 0 {
				_ = t.mem.Free(data)
			}
			return NilAD, Faultf(FaultNoMemory, NilAD, "access part: %v", err)
		}
	}

	var idx Index
	if n := len(t.free); n > 0 {
		idx = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		t.descs = append(t.descs, Descriptor{})
		idx = Index(len(t.descs) - 1)
	}
	d := &t.descs[idx]
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
		// New objects are born gray: the collector may be mid-cycle,
		// and a white newborn referenced only from a black object
		// would be lost (standard on-the-fly allocation colour).
		Color:  Gray,
		Pinned: spec.Pinned,
	}
	t.live++
	t.created++
	if l := t.tr; l != nil {
		l.Emit(trace.EvObjCreate, uint32(idx), uint32(spec.Type), uint64(spec.Level))
	}
	return AD{Index: idx, Gen: gen & adGenMask, Rights: RightsAll}, nil
}

// Destroy invalidates the object and returns its storage. It requires the
// Delete right. Destruction is how both the collector's sweep and SRO bulk
// reclamation (§5) dispose of objects; user code generally never calls it —
// objects are garbage collected (§8.1).
func (t *Table) Destroy(a AD) *Fault {
	d, f := t.resolveRights(a, RightDelete)
	if f != nil {
		return f
	}
	return t.destroyDesc(a.Index, d)
}

// DestroyIndex invalidates the object at idx without a capability check;
// only the collector and SRO teardown use it (they operate below the
// capability discipline, as the real microcode did).
func (t *Table) DestroyIndex(idx Index) *Fault {
	if t.fk != nil {
		return t.forkBar("object destruction")
	}
	if int(idx) >= len(t.descs) || idx == NilIndex {
		return Faultf(FaultInvalidAD, AD{Index: idx}, "no such object")
	}
	d := &t.descs[idx]
	if !d.Valid {
		return Faultf(FaultInvalidAD, AD{Index: idx}, "already destroyed")
	}
	return t.destroyDesc(idx, d)
}

func (t *Table) destroyDesc(idx Index, d *Descriptor) *Fault {
	if t.fk != nil {
		return t.forkBar("object destruction")
	}
	t.xgen++ // the slot may be recycled; cached windows over it are dead
	if l := t.tr; l != nil {
		l.Emit(trace.EvObjDestroy, uint32(idx), uint32(d.Type), 0)
	}
	if !d.SwappedOut {
		if d.DataLen > 0 {
			if err := t.mem.Free(d.Data); err != nil {
				return Faultf(FaultOddity, AD{Index: idx}, "freeing data part: %v", err)
			}
		}
		if d.AccessSlots > 0 {
			if err := t.mem.Free(d.Access); err != nil {
				return Faultf(FaultOddity, AD{Index: idx}, "freeing access part: %v", err)
			}
		}
	}
	d.Valid = false
	d.SwappedOut = false
	t.free = append(t.free, idx)
	t.live--
	t.destroyed++
	return nil
}

// TypeOf reports the hardware type of the referenced object.
func (t *Table) TypeOf(a AD) (Type, *Fault) {
	d, f := t.Resolve(a)
	if f != nil {
		return TypeInvalid, f
	}
	return d.Type, nil
}

// UserTypeOf reports the TDO index labelling the object, or NilIndex.
func (t *Table) UserTypeOf(a AD) (Index, *Fault) {
	d, f := t.Resolve(a)
	if f != nil {
		return NilIndex, f
	}
	return d.UserType, nil
}

// LevelOf reports the lifetime level of the referenced object.
func (t *Table) LevelOf(a AD) (Level, *Fault) {
	d, f := t.Resolve(a)
	if f != nil {
		return 0, f
	}
	return d.Level, nil
}

// RequireType resolves a and faults unless the object has hardware type
// want. This is the checked-type path every type manager relies on.
func (t *Table) RequireType(a AD, want Type) (*Descriptor, *Fault) {
	d, f := t.Resolve(a)
	if f != nil {
		return nil, f
	}
	if d.Type != want {
		return nil, Faultf(FaultType, a, "have %s, need %s", d.Type, want)
	}
	return d, nil
}
