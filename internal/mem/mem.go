// Package mem models the physical memory of the simulated 432 system: a
// single homogeneous address space shared by all processors (§3 of the
// paper: "a tightly coupled environment in which all processors see a single
// homogeneous memory").
//
// Memory is carved into segments of 1 byte to 128 KB (§2). The object layer
// (internal/obj) maps object descriptors onto segments; this package only
// knows about raw extents and free-space bookkeeping, which the storage
// resource objects (internal/sro) draw from.
package mem

import (
	"errors"
	"fmt"
	"sort"
)

// Architecture limits from §2 of the paper.
const (
	// MaxSegment is the largest segment an object descriptor can
	// describe: 128 KB.
	MaxSegment = 128 * 1024
	// MaxPart is the largest data or access part of an object: 64 KB.
	MaxPart = 64 * 1024
)

// Addr is a physical byte address.
type Addr uint32

// Errors reported by the memory subsystem.
var (
	ErrNoMemory    = errors.New("mem: insufficient free storage")
	ErrBadSegment  = errors.New("mem: segment bounds violation")
	ErrSegTooLarge = fmt.Errorf("mem: segment exceeds %d bytes", MaxSegment)
	ErrNotOwned    = errors.New("mem: extent not allocated from this memory")
)

// Extent is a contiguous physical region [Base, Base+Len).
type Extent struct {
	Base Addr
	Len  uint32
}

// End returns the address one past the extent.
func (e Extent) End() Addr { return e.Base + Addr(e.Len) }

// Memory is the physical store. All mutation goes through Alloc/Free and
// the bounds-checked Read*/Write* accessors; processors never hold raw
// slices into it, mirroring the 432 rule that all addressing is via object
// descriptors.
//
// Memory is not safe for concurrent use; the lock-step processor driver
// (internal/gdp) serialises access, exactly as the single shared bus of the
// real machine did.
type Memory struct {
	data []byte
	free []Extent // sorted by Base, coalesced
	used uint32

	// fk marks this Memory as an epoch-fork view (see fork.go): reads
	// and writes are routed through a copy-on-write shadow and recorded
	// as footprints, and structural operations abort the fork.
	fk *memFork
}

// New creates a physical memory of the given size in bytes.
func New(size uint32) *Memory {
	return &Memory{
		data: make([]byte, size),
		free: []Extent{{Base: 0, Len: size}},
	}
}

// Size reports the total physical size in bytes.
func (m *Memory) Size() uint32 { return uint32(len(m.data)) }

// Used reports the number of allocated bytes.
func (m *Memory) Used() uint32 { return m.used }

// FreeBytes reports the number of unallocated bytes.
func (m *Memory) FreeBytes() uint32 { return m.Size() - m.used }

// LargestFree reports the size of the largest free extent; allocation of
// any larger segment will fail even if total free space suffices
// (external fragmentation).
func (m *Memory) LargestFree() uint32 {
	var max uint32
	for _, e := range m.free {
		if e.Len > max {
			max = e.Len
		}
	}
	return max
}

// FragCount reports the number of disjoint free extents, a direct measure
// of external fragmentation used by the E2/E9 experiments.
func (m *Memory) FragCount() int { return len(m.free) }

// Alloc carves a segment of n bytes from physical memory using first-fit,
// the policy simple enough to microcode (the 432 performed allocation in
// the create-object instruction, so the policy had to be trivial).
func (m *Memory) Alloc(n uint32) (Extent, error) {
	if m.fk != nil {
		// Allocation order is part of serial semantics (first-fit over
		// the live free list); a fork cannot reproduce it speculatively.
		m.fk.abort = true
		return Extent{}, ErrNoMemory
	}
	if n == 0 {
		n = 1 // §2: segments are from 1 byte
	}
	if n > MaxSegment {
		return Extent{}, ErrSegTooLarge
	}
	for i, e := range m.free {
		if e.Len < n {
			continue
		}
		got := Extent{Base: e.Base, Len: n}
		if e.Len == n {
			m.free = append(m.free[:i], m.free[i+1:]...)
		} else {
			m.free[i] = Extent{Base: e.Base + Addr(n), Len: e.Len - n}
		}
		m.used += n
		// The hardware zeroed fresh segments: a new object must not
		// leak a previous object's contents through a fresh
		// capability.
		clear(m.data[got.Base:got.End()])
		return got, nil
	}
	return Extent{}, ErrNoMemory
}

// Free returns an extent to the free pool, coalescing with neighbours.
// Freeing an extent that was not allocated (or double-freeing) is an error:
// on the real machine only the microcode and the collector could reach this
// path, so corruption here meant a hardware fault.
func (m *Memory) Free(e Extent) error {
	if m.fk != nil {
		m.fk.abort = true
		return ErrNotOwned
	}
	if e.Len == 0 {
		return nil
	}
	if e.End() > Addr(m.Size()) || e.End() < e.Base {
		return ErrNotOwned
	}
	// Find insertion point in the sorted free list.
	i := sort.Search(len(m.free), func(i int) bool { return m.free[i].Base >= e.Base })
	// Overlap checks against predecessor and successor detect double
	// frees.
	if i > 0 && m.free[i-1].End() > e.Base {
		return fmt.Errorf("%w: overlaps free extent at %d", ErrNotOwned, m.free[i-1].Base)
	}
	if i < len(m.free) && e.End() > m.free[i].Base {
		return fmt.Errorf("%w: overlaps free extent at %d", ErrNotOwned, m.free[i].Base)
	}
	m.free = append(m.free, Extent{})
	copy(m.free[i+1:], m.free[i:])
	m.free[i] = e
	m.used -= e.Len
	m.coalesce(i)
	return nil
}

// coalesce merges the free extent at index i with adjacent extents.
func (m *Memory) coalesce(i int) {
	// Merge with successor first so index i stays valid.
	if i+1 < len(m.free) && m.free[i].End() == m.free[i+1].Base {
		m.free[i].Len += m.free[i+1].Len
		m.free = append(m.free[:i+1], m.free[i+2:]...)
	}
	if i > 0 && m.free[i-1].End() == m.free[i].Base {
		m.free[i-1].Len += m.free[i].Len
		m.free = append(m.free[:i], m.free[i+1:]...)
	}
}

// check validates that [off, off+n) lies inside e.
func (m *Memory) check(e Extent, off, n uint32) error {
	if off+n < off || off+n > e.Len || e.End() > Addr(m.Size()) {
		return fmt.Errorf("%w: [%d,%d) in segment of %d bytes", ErrBadSegment, off, off+n, e.Len)
	}
	return nil
}

// The accessors below index the live image directly; an epoch fork
// routes them through its shadow instead (memFork.access), which splits a
// span crossing a shadow chunk boundary.

// ReadByteAt reads one byte at offset off within extent e.
func (m *Memory) ReadByteAt(e Extent, off uint32) (byte, error) {
	if err := m.check(e, off, 1); err != nil {
		return 0, err
	}
	b := e.Base + Addr(off)
	if m.fk != nil {
		var p [1]byte
		m.fk.access(b, p[:], false)
		return p[0], nil
	}
	return m.data[b], nil
}

// WriteByteAt writes one byte at offset off within extent e.
func (m *Memory) WriteByteAt(e Extent, off uint32, v byte) error {
	if err := m.check(e, off, 1); err != nil {
		return err
	}
	b := e.Base + Addr(off)
	if m.fk != nil {
		m.fk.access(b, []byte{v}, true)
		return nil
	}
	m.data[b] = v
	return nil
}

// ReadWord reads a 16-bit "ordinal" (the 432's natural data unit) in
// little-endian order at offset off.
func (m *Memory) ReadWord(e Extent, off uint32) (uint16, error) {
	if err := m.check(e, off, 2); err != nil {
		return 0, err
	}
	b := e.Base + Addr(off)
	d := m.data
	if m.fk != nil {
		var p [2]byte
		m.fk.access(b, p[:], false)
		d, b = p[:], 0
	}
	return uint16(d[b]) | uint16(d[b+1])<<8, nil
}

// WriteWord writes a 16-bit ordinal at offset off.
func (m *Memory) WriteWord(e Extent, off uint32, v uint16) error {
	if err := m.check(e, off, 2); err != nil {
		return err
	}
	b := e.Base + Addr(off)
	if m.fk != nil {
		m.fk.access(b, []byte{byte(v), byte(v >> 8)}, true)
		return nil
	}
	d := m.data
	d[b] = byte(v)
	d[b+1] = byte(v >> 8)
	return nil
}

// ReadDWord reads a 32-bit value at offset off.
func (m *Memory) ReadDWord(e Extent, off uint32) (uint32, error) {
	if err := m.check(e, off, 4); err != nil {
		return 0, err
	}
	b := e.Base + Addr(off)
	d := m.data
	if m.fk != nil {
		var p [4]byte
		m.fk.access(b, p[:], false)
		d, b = p[:], 0
	}
	return uint32(d[b]) | uint32(d[b+1])<<8 |
		uint32(d[b+2])<<16 | uint32(d[b+3])<<24, nil
}

// WriteDWord writes a 32-bit value at offset off.
func (m *Memory) WriteDWord(e Extent, off uint32, v uint32) error {
	if err := m.check(e, off, 4); err != nil {
		return err
	}
	b := e.Base + Addr(off)
	if m.fk != nil {
		m.fk.access(b, []byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)}, true)
		return nil
	}
	d := m.data
	d[b] = byte(v)
	d[b+1] = byte(v >> 8)
	d[b+2] = byte(v >> 16)
	d[b+3] = byte(v >> 24)
	return nil
}

// ReadBytes copies n bytes starting at offset off into a fresh slice.
func (m *Memory) ReadBytes(e Extent, off, n uint32) ([]byte, error) {
	if err := m.check(e, off, n); err != nil {
		return nil, err
	}
	b := e.Base + Addr(off)
	out := make([]byte, n)
	if m.fk != nil {
		m.fk.access(b, out, false)
	} else {
		copy(out, m.data[b:])
	}
	return out, nil
}

// WriteBytes copies p into the segment starting at offset off.
func (m *Memory) WriteBytes(e Extent, off uint32, p []byte) error {
	if err := m.check(e, off, uint32(len(p))); err != nil {
		return err
	}
	b := e.Base + Addr(off)
	if m.fk != nil {
		m.fk.access(b, p, true)
		return nil
	}
	copy(m.data[b:], p)
	return nil
}

// Window returns a direct byte view over extent e, for the interpreter's
// execution cache. It is the one sanctioned exception to the "no raw
// slices" rule above, and it is safe only because the backing array is
// allocated once in New and never reallocated: the view stays valid until
// the extent itself is freed or moved, which the object layer signals
// through its cache generation. Bad extents get nil.
//
// On an epoch fork the view is over the fork's shadow chunk, which is
// allocated on first touch and never moves, so the view stays valid
// across epochs: the whole extent is touched — copied from the parent and
// recorded in the read footprint — so reads through the window are
// indistinguishable from reads through the accessors. An extent that
// straddles a shadow chunk boundary has no contiguous shadow view; the
// fork declines it (nil, counted by ForkWindowDeclines) and the caller
// takes its slow path. Writes through a fork window MUST be reported with
// MarkForkWrite, or they are invisible to conflict detection and lost at
// commit.
func (m *Memory) Window(e Extent) []byte {
	if e.End() < e.Base || e.End() > Addr(len(m.data)) {
		return nil
	}
	if fk := m.fk; fk != nil {
		if e.Len == 0 {
			return []byte{}
		}
		if e.Base>>forkChunkShift != (e.End()-1)>>forkChunkShift {
			fk.declines++
			return nil
		}
		return fk.touch(e.Base, e.Len, false)
	}
	return m.data[e.Base:e.End():e.End()]
}

// MarkForkWrite records [b, b+n) in the fork's write footprint, for
// callers that write through a Window instead of through the accessors;
// the span lies within that window, so within one shadow chunk. It is
// touched exactly as a write accessor would touch it; on a non-fork
// Memory this is a no-op (window writes to live memory are coherent by
// aliasing).
func (m *Memory) MarkForkWrite(b Addr, n uint32) {
	if m.fk != nil && n > 0 {
		m.fk.touch(b, n, true)
	}
}

// Move relocates the contents of src into a freshly allocated extent and
// frees src. The swapping memory manager and a compacting collector use
// this; user processes never observe it except as a segment fault (§7.3).
func (m *Memory) Move(src Extent) (Extent, error) {
	dst, err := m.Alloc(src.Len)
	if err != nil {
		return Extent{}, err
	}
	copy(m.data[dst.Base:dst.End()], m.data[src.Base:src.End()])
	if err := m.Free(src); err != nil {
		// src was bad; undo the allocation.
		_ = m.Free(dst)
		return Extent{}, err
	}
	return dst, nil
}
