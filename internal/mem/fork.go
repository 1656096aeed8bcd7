package mem

// Epoch forks: copy-on-write views of physical memory for the parallel
// host backend of the multiprocessor driver (internal/gdp).
//
// During one speculative epoch every simulated processor runs against its
// own fork. A fork never mutates its parent: the first touch of a 256-byte
// page copies that page into the fork's shadow, and all subsequent reads
// and writes land in the shadow. The fork records which pages it
// read and which it wrote; the driver intersects those footprints across
// processors to decide whether the epoch can commit (writes copied back to
// the parent, in canonical processor order) or must be discarded and
// replayed serially.
//
// Structural operations — Alloc, Free, Move — change the free list, which
// cannot be speculated without renumbering allocations; a fork refuses
// them and marks itself aborted, which the driver turns into a serial
// replay of the whole epoch.
//
// Every page of a fork's shadow carries one stamp: the epoch in which it
// was last copied from the parent. ForkReset bumps the fork's epoch, so a
// new epoch re-copies each page on first touch and clears its footprint
// bits at the same moment — the shadow and the footprint are both
// epoch-scoped, and nothing carries over from one epoch to the next.
//
// The shadow is sparse. A fork holds a directory with one slot per
// 64 KiB chunk of the arena (forkChunkSize, 256 pages); a chunk — its
// shadow bytes, its per-page stamps, and its per-page byte footprints —
// is allocated on the fork's first touch inside it and never moves or
// shrinks afterwards. Host memory therefore follows the
// chunks a run touches, not arena size times processor count, and a
// Window over a shadow chunk stays valid for the fork's lifetime. An
// access spanning a chunk boundary is split per chunk; a Window that
// would span one is declined (nil), which sends the execution cache to
// its slow path.

import "math/bits"

const (
	forkPageShift  = 8
	forkPageSize   = 1 << forkPageShift
	forkChunkShift = 16
	forkChunkSize  = 1 << forkChunkShift
	// chunkPageShift converts a page index into its chunk's index.
	chunkPageShift = forkChunkShift - forkPageShift
	chunkPages     = 1 << chunkPageShift
)

// PageBits is a byte-granular footprint bitmap for one page: bit i set
// means byte i of the page was touched. Pages are the index granularity;
// bytes are the conflict granularity — first-fit allocation packs unrelated
// objects into adjacent bytes, so page-level conflict detection would see
// false sharing on nearly every epoch boundary page.
type PageBits [forkPageSize / 64]uint64

func (b *PageBits) setRange(lo, hi uint32) { // [lo, hi) within the page
	if lo >= hi {
		return
	}
	wl, wh := lo>>6, (hi-1)>>6
	ml := ^uint64(0) << (lo & 63)
	mh := ^uint64(0) >> (63 - (hi-1)&63)
	if wl == wh {
		b[wl] |= ml & mh
		return
	}
	b[wl] |= ml
	for w := wl + 1; w < wh; w++ {
		b[w] = ^uint64(0)
	}
	b[wh] |= mh
}

// forkChunk is one lazily allocated, address-stable piece of a fork's
// shadow: forkChunkSize bytes plus the stamps and footprints of its pages,
// all indexed by page number within the chunk. A page's shadow bytes and
// footprint bits are valid only while its stamp equals the fork's epoch;
// a page is on the epoch's read (write) list iff its read (write) bits are
// non-zero.
type forkChunk struct {
	shadow    [forkChunkSize]byte
	stamp     [chunkPages]uint32 // epoch the page was copied from the parent
	readBits  [chunkPages]PageBits
	writeBits [chunkPages]PageBits
}

type memFork struct {
	parent   *Memory
	chunks   []*forkChunk // one slot per forkChunkSize bytes; nil until touched
	reads    []uint32     // pages first read this epoch
	writes   []uint32     // pages first written this epoch
	epoch    uint32
	abort    bool
	declines uint64 // Window calls refused for straddling a chunk boundary
}

// Fork returns an epoch-fork view of m. The fork shares m's backing bytes
// read-only and shadows every page it touches; see the package notes at
// the top of this file. Call ForkReset before each epoch, then ForkCommit
// to publish the epoch's writes, or nothing to discard them. The fork is
// single-goroutine; distinct forks of one parent may run concurrently as
// long as the parent itself is quiescent.
func (m *Memory) Fork() *Memory {
	return &Memory{
		data: m.data, // shared, read-only through the fork
		used: m.used,
		fk: &memFork{
			parent: m,
			chunks: make([]*forkChunk, (len(m.data)+forkChunkSize-1)/forkChunkSize),
			epoch:  1,
		},
	}
}

// IsFork reports whether this Memory is an epoch-fork view.
func (m *Memory) IsFork() bool { return m.fk != nil }

// ForkReset begins a new speculation epoch against the parent's current
// bytes: footprints clear, the abort flag drops, and every shadow page is
// considered stale. O(1) except on stamp wrap, whose scrub visits only the
// allocated chunks.
func (m *Memory) ForkReset() {
	fk := m.fk
	fk.epoch++
	if fk.epoch == 0 { // wrapped: stamps are ambiguous, scrub them
		for _, c := range fk.chunks {
			if c != nil {
				clear(c.stamp[:])
			}
		}
		fk.epoch = 1
	}
	fk.reads = fk.reads[:0]
	fk.writes = fk.writes[:0]
	fk.abort = false
}

// page returns the allocated chunk holding page p and p's index within it.
// Only pages on this epoch's footprint lists qualify.
func (fk *memFork) page(p uint32) (*forkChunk, uint32) {
	return fk.chunks[p>>chunkPageShift], p & (chunkPages - 1)
}

// ForkCommit copies every byte the fork wrote this epoch back into the
// parent. The copy is byte-exact, not page-exact: two forks may have
// written disjoint byte ranges of a shared boundary page (no conflict),
// and a whole-page copy from the later fork would clobber the earlier
// fork's committed bytes with its stale shadow.
func (m *Memory) ForkCommit() {
	fk := m.fk
	for _, p := range fk.writes {
		c, i := fk.page(p)
		base := p << forkPageShift
		img := c.shadow[i<<forkPageShift:]
		for w, word := range c.writeBits[i] {
			for word != 0 {
				off := uint32(w)<<6 + uint32(bits.TrailingZeros64(word))
				word &= word - 1
				fk.parent.data[base+off] = img[off]
			}
		}
	}
}

// ForkFootprint reports the page indices the fork read and wrote this
// epoch. The slices are owned by the fork and valid until the next
// ForkReset.
func (m *Memory) ForkFootprint() (reads, writes []uint32) {
	return m.fk.reads, m.fk.writes
}

// ForkPageFootprint reports the byte-granular footprint of page p this
// epoch: bit i of read/write set means byte i of the page was read/written.
// Pages the fork never touched report all-zero.
func (m *Memory) ForkPageFootprint(p uint32) (read, write PageBits) {
	fk := m.fk
	if p>>chunkPageShift >= uint32(len(fk.chunks)) {
		return read, write
	}
	if c, i := fk.page(p); c != nil && c.stamp[i] == fk.epoch {
		read, write = c.readBits[i], c.writeBits[i]
	}
	return read, write
}

// ForkAborted reports whether the fork hit a structural operation this
// epoch and must be discarded.
func (m *Memory) ForkAborted() bool { return m.fk.abort }

// ForkWindowDeclines reports how many Window calls on this fork returned
// nil because the extent straddles a shadow chunk boundary.
func (m *Memory) ForkWindowDeclines() uint64 { return m.fk.declines }

// touch prepares the pages covering [b, b+n), which must lie within one
// chunk and be non-empty, for access and returns the shadow bytes of the
// span. Each page is copied from the parent, and its footprint bits
// cleared, on its first touch of the epoch; the chunk is allocated on its
// first touch ever.
func (fk *memFork) touch(b Addr, n uint32, write bool) []byte {
	ci := uint32(b) >> forkChunkShift
	c := fk.chunks[ci]
	if c == nil {
		c = new(forkChunk)
		fk.chunks[ci] = c
	}
	off := uint32(b) & (forkChunkSize - 1)
	cbase := ci << forkChunkShift
	for i := off >> forkPageShift; i <= (off+n-1)>>forkPageShift; i++ {
		base := i << forkPageShift // within the chunk
		if c.stamp[i] != fk.epoch {
			c.stamp[i] = fk.epoch
			end := min(cbase+base+forkPageSize, uint32(len(fk.parent.data)))
			copy(c.shadow[base:], fk.parent.data[cbase+base:end])
			c.readBits[i] = PageBits{}
			c.writeBits[i] = PageBits{}
		}
		// The byte span of [off, off+n) that lands within this page; it is
		// never empty, so empty bits mean the page is not yet listed.
		slo, shi := max(off, base), min(off+n, base+forkPageSize)
		p := ci<<chunkPageShift | i
		if write {
			if c.writeBits[i] == (PageBits{}) {
				fk.writes = append(fk.writes, p)
			}
			c.writeBits[i].setRange(slo-base, shi-base)
		} else {
			if c.readBits[i] == (PageBits{}) {
				fk.reads = append(fk.reads, p)
			}
			c.readBits[i].setRange(slo-base, shi-base)
		}
	}
	return c.shadow[off : off+n : off+n]
}

// access copies p into the shadow at [b, b+len(p)) when write is set, or
// the shadow bytes there into p otherwise, touching each chunk the span
// crosses.
func (fk *memFork) access(b Addr, p []byte, write bool) {
	for len(p) > 0 {
		n := min(uint32(len(p)), forkChunkSize-uint32(b)&(forkChunkSize-1))
		d := fk.touch(b, n, write)
		if write {
			copy(d, p[:n])
		} else {
			copy(p[:n], d)
		}
		p = p[n:]
		b += Addr(n)
	}
}
