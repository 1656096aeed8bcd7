package obj

import "repro/internal/mem"

// Epoch forks of the object table, for the parallel host backend of the
// multiprocessor driver (internal/gdp).
//
// A fork is a Table whose descriptor lookups are routed through an
// epoch-local shadow: the first touch of a descriptor slot copies it from
// the parent, and every later read or write (the gray-bit shading in
// StoreAD, level rewrites, swap state) lands in the shadow copy. Memory
// accesses go through an epoch fork of the parent's physical memory
// (mem.Fork), which shadows 256-byte pages the same way. The parent table
// is never mutated during speculation.
//
// At the end of an epoch the driver asks each fork for its footprint —
// descriptors touched, descriptors actually changed (detected by comparing
// shadow against parent), memory pages read and written — and commits the
// forks in canonical processor order only if the footprints are pairwise
// non-conflicting. Structural operations that reorder shared allocator
// state (destruction, swapping, collector entry points, creation outside
// a reservation) mark the fork aborted; the driver then discards every
// fork and replays the epoch serially, which is trivially byte-identical
// to the serial backend because speculation never touched real state.
// Creation against a per-CPU reservation (reserve.go) is the exception:
// it consumes pre-granted slots and arena bytes, so it commits with the
// epoch's write set instead of aborting it.
//
// Each shadow slot carries one stamp: the epoch in which it was copied
// from the parent and joined the touched list. ForkReset bumps the epoch,
// so every slot is re-copied on its first touch of the new epoch.
//
// The shadow is sparse: a directory with one slot per descChunkSize
// descriptors of the parent table, each chunk (shadow descriptors plus
// their stamps) allocated on the first touch of a slot inside it. When
// the parent grows the directory grows by nil slots only, so a fork's
// host memory follows the descriptors it touches, not the table size.
type tableFork struct {
	parent  *Table
	chunks  []*descChunk // one slot per descChunkSize descriptors; nil until touched
	touched []Index      // slots resolved this epoch (the read footprint)
	writes  []Index      // scratch reused by ForkDescWrites/commits across epochs
	hazards []Index      // objects that took cache-hazard AD stores this epoch
	epoch   uint32
	abort   bool
	reason  ForkAbortReason
	created int // objects created from reservations this epoch
}

// descChunkShift sizes the shadow chunks: 1024 descriptors each.
const (
	descChunkShift = 10
	descChunkSize  = 1 << descChunkShift
)

// descChunk is one lazily allocated piece of a fork's descriptor shadow.
type descChunk struct {
	shadow [descChunkSize]Descriptor
	stamp  [descChunkSize]uint32 // epoch shadow[i] was copied from the parent and touched
}

// shadowOf returns the shadow copy of a slot already on a footprint list.
func (fk *tableFork) shadowOf(idx Index) *Descriptor {
	return &fk.chunks[idx>>descChunkShift].shadow[idx&(descChunkSize-1)]
}

// ForkAbortReason classifies why a fork aborted its epoch, for the
// driver's split abort accounting.
type ForkAbortReason uint8

const (
	// ForkAbortNone: the epoch is clean.
	ForkAbortNone ForkAbortReason = iota
	// ForkAbortStructural: a structural operation (destroy, swap,
	// allocator mutation, unreserved create) cannot be speculated.
	ForkAbortStructural
	// ForkAbortReservation: a reservation-backed operation ran out of
	// pre-granted capacity and needs a serial top-up.
	ForkAbortReservation
)

// Fork returns an epoch-fork view of the table: same objects, same
// generations, but all descriptor and memory mutation lands in epoch-local
// shadows. Call ForkReset before each epoch; ForkCommit publishes the
// epoch's changes into the parent. The fork is single-goroutine; distinct
// forks of one parent may run concurrently while the parent is quiescent.
// The fork starts with no tracer — install a private one with SetTracer.
func (t *Table) Fork() *Table {
	return &Table{
		mem: t.mem.Fork(),
		fk: &tableFork{
			parent: t,
			epoch:  1,
		},
	}
}

// IsFork reports whether this table is an epoch-fork view.
func (t *Table) IsFork() bool { return t.fk != nil }

// ForkReset begins a new speculation epoch against the parent's current
// state: the shadow empties, the footprints clear, the abort flag drops,
// and the per-epoch stats counters rewind. O(1) in the table size: a
// grown parent extends the chunk directory by nil slots, and a stamp wrap
// scrubs only the allocated chunks.
func (t *Table) ForkReset() {
	fk := t.fk
	fk.epoch++
	if fk.epoch == 0 { // stamp wrap: scrub rather than alias epochs
		for _, c := range fk.chunks {
			if c != nil {
				clear(c.stamp[:])
			}
		}
		fk.epoch = 1
	}
	if n := (len(fk.parent.descs) + descChunkSize - 1) >> descChunkShift; n > len(fk.chunks) {
		fk.chunks = append(fk.chunks, make([]*descChunk, n-len(fk.chunks))...)
	}
	fk.touched = fk.touched[:0]
	fk.hazards = fk.hazards[:0]
	fk.abort = false
	fk.reason = ForkAbortNone
	fk.created = 0
	t.adStores, t.grayings = 0, 0
	t.mem.ForkReset()
}

// ForkAborted reports whether this epoch hit a non-speculable operation
// (in the table or in memory) and must be discarded.
func (t *Table) ForkAborted() bool { return t.fk.abort || t.mem.ForkAborted() }

// ForkAbortReasonIs reports why the current epoch aborted, ForkAbortNone
// if it has not.
func (t *Table) ForkAbortReasonIs() ForkAbortReason {
	fk := t.fk
	if fk.reason != ForkAbortNone {
		return fk.reason
	}
	if t.mem.ForkAborted() {
		return ForkAbortStructural
	}
	return ForkAbortNone
}

// ForkTouched reports the descriptor slots this fork resolved this epoch —
// its descriptor read footprint. The slice is owned by the fork and valid
// until the next ForkReset.
func (t *Table) ForkTouched() []Index { return t.fk.touched }

// ForkDescWrites reports the descriptor slots whose shadow copy differs
// from the parent — the fork's descriptor write footprint. The slice is
// owned by the fork (the backing buffer pools across epochs) and is valid
// until the next call or ForkReset.
func (t *Table) ForkDescWrites() []Index {
	fk := t.fk
	out := fk.writes[:0]
	for _, idx := range fk.touched {
		if *fk.shadowOf(idx) != fk.parent.descs[idx] {
			out = append(out, idx)
		}
	}
	fk.writes = out
	return out
}

// ForkPages reports the memory pages the fork read and wrote this epoch.
func (t *Table) ForkPages() (reads, writes []uint32) { return t.mem.ForkFootprint() }

// ForkPageFootprint reports the byte-granular footprint of one memory page
// this epoch, for the driver's conflict refinement on shared boundary pages.
func (t *Table) ForkPageFootprint(p uint32) (read, write mem.PageBits) {
	return t.mem.ForkPageFootprint(p)
}

// ForkCreated reports how many objects the current epoch created from
// reservations (uncommitted).
func (t *Table) ForkCreated() int { return t.fk.created }

// ForkCommit publishes the current epoch into the parent: changed
// descriptors, written memory pages, reservation-created objects, and the
// per-epoch stats deltas. The driver calls this only after establishing
// that no other fork's footprint overlaps.
//
// It returns the descriptor indices actually written into the parent.
// Committed writes bypass the parent's methods, so they never bump the
// parent's cache generation; the driver is responsible for invalidating
// exactly the execution caches whose pinned objects appear in the returned
// set (footprint-scoped invalidation — see internal/gdp/parallel.go and
// DESIGN.md §8). Memory-byte writes need no invalidation at all: cached
// windows are live views over the same backing array, so committed bytes
// are coherent by aliasing. Structural events (destroy, swap, compaction)
// still bump the generation globally through their own entry points.
func (t *Table) ForkCommit() []Index {
	fk := t.fk
	written := fk.writes[:0]
	for _, idx := range fk.touched {
		if d := fk.shadowOf(idx); *d != fk.parent.descs[idx] {
			fk.parent.descs[idx] = *d
			written = append(written, idx)
		}
	}
	// Cache-hazard AD stores (see cacheHazard) may change
	// only access-part bytes, leaving the descriptor bit-identical — but
	// they can redirect the very structure an execution cache pins (the
	// current-context slot, the domain slot). Fold those objects into the
	// written set so scoped invalidation sees them.
	written = append(written, fk.hazards...)
	fk.writes = written
	fk.parent.adStores += t.adStores
	fk.parent.grayings += t.grayings
	fk.parent.live += fk.created
	fk.parent.created += uint64(fk.created)
	fk.parent.reserved -= fk.created
	fk.created = 0
	t.mem.ForkCommit()
	return written
}

// noteCacheHazard records, during speculation, an object whose access slots
// took an AD store that bumps the cache generation (see cacheHazard). ForkCommit reports these alongside the descriptor diffs.
// No-op on a non-fork table — there the generation bump itself suffices.
func (t *Table) noteCacheHazard(idx Index) {
	if t.fk != nil {
		t.fk.hazards = append(t.fk.hazards, idx)
	}
}

// slot returns the descriptor at idx, routed through the epoch shadow for
// forks. The caller has bounds-checked idx against Len. A slot's first
// touch of the epoch copies it from the parent and records it in the
// touched list.
func (t *Table) slot(idx Index) *Descriptor {
	if fk := t.fk; fk != nil {
		c := fk.chunks[idx>>descChunkShift]
		if c == nil {
			c = new(descChunk)
			fk.chunks[idx>>descChunkShift] = c
		}
		i := idx & (descChunkSize - 1)
		if c.stamp[i] != fk.epoch {
			c.stamp[i] = fk.epoch
			c.shadow[i] = fk.parent.descs[idx]
			fk.touched = append(fk.touched, idx)
		}
		return &c.shadow[i]
	}
	return &t.descs[idx]
}

// forkBar marks the fork aborted (structural) and manufactures the fault
// every structural entry point returns during speculation. The fault never
// becomes visible — the driver discards the fork wholesale — but returning
// one keeps the caller's control flow honest.
func (t *Table) forkBar(what string) *Fault {
	t.fk.abort = true
	if t.fk.reason == ForkAbortNone {
		t.fk.reason = ForkAbortStructural
	}
	return Faultf(FaultOddity, NilAD, "%s is barred during epoch speculation", what)
}

// ForkBarReservation marks the fork aborted because a reservation ran dry.
// The driver's serial replay will top the reservation up and re-execute.
func (t *Table) ForkBarReservation() {
	t.fk.abort = true
	if t.fk.reason == ForkAbortNone {
		t.fk.reason = ForkAbortReservation
	}
}
