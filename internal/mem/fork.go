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
// Pipelining splits the old single epoch stamp in two. The *chain* stamp
// says "this shadow page holds bytes copied from the parent at the start
// of the current fork chain"; the *epoch* stamp says "this page's
// footprint bits belong to the current epoch". ForkReset bumps both (a
// fresh fork chain); ForkStash bumps only the epoch — the shadow pages
// stay valid, carrying epoch k's values into the speculative epoch k+1
// that the same fork continues into while k awaits its commit ticket.
// The stash itself value-snapshots k's footprint and written-page images,
// because the continuation overwrites the shadow in place.
//
// The shadow is sparse. A fork holds a directory with one slot per
// 64 KiB chunk of the arena (forkChunkSize, 256 pages); a chunk — its
// shadow bytes, its per-page chain and epoch stamps, and its per-page
// byte footprints — is allocated on the fork's first touch inside it and
// never moves or shrinks afterwards. Host memory therefore follows the
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
// all indexed by page number within the chunk.
type forkChunk struct {
	shadow    [forkChunkSize]byte // valid only where chain-stamped
	copied    [chunkPages]uint32  // chain stamp: page copied from parent this chain
	bitS      [chunkPages]uint32  // epoch stamp: readBits/writeBits belong to this epoch
	readS     [chunkPages]uint32
	writeS    [chunkPages]uint32
	readBits  [chunkPages]PageBits
	writeBits [chunkPages]PageBits
}

type memFork struct {
	parent   *Memory
	chunks   []*forkChunk // one slot per forkChunkSize bytes; nil until touched
	reads    []uint32     // pages first read this epoch
	writes   []uint32     // pages first written this epoch
	chain    uint32
	epoch    uint32
	abort    bool
	declines uint64 // Window calls refused for straddling a chunk boundary

	// Stash of the previous epoch, held while the fork speculates ahead.
	// stReadBits/stWriteBits parallel stReads/stWrites; stImage holds one
	// forkPageSize block per stashed written page.
	stReads     []uint32
	stWrites    []uint32
	stReadBits  []PageBits
	stWriteBits []PageBits
	stImage     []byte
	stashed     bool
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
			chain:  1,
			epoch:  1,
		},
	}
}

// IsFork reports whether this Memory is an epoch-fork view.
func (m *Memory) IsFork() bool { return m.fk != nil }

// ForkReset begins a new speculation epoch against the parent's current
// bytes: footprints clear, the abort flag drops, any stash is discarded,
// and every shadow page is considered stale. O(1) except on counter wrap,
// whose scrub visits only the allocated chunks.
func (m *Memory) ForkReset() {
	fk := m.fk
	fk.chain++
	if fk.chain == 0 { // wrapped: stamps are ambiguous, scrub them
		for _, c := range fk.chunks {
			if c != nil {
				clear(c.copied[:])
			}
		}
		fk.chain = 1
	}
	fk.nextEpoch()
	fk.abort = false
	fk.stashed = false
}

// nextEpoch advances the epoch stamp, scrubbing the epoch stamps of the
// allocated chunks on wrap, and empties the page footprint lists.
func (fk *memFork) nextEpoch() {
	fk.epoch++
	if fk.epoch == 0 {
		for _, c := range fk.chunks {
			if c != nil {
				clear(c.bitS[:])
				clear(c.readS[:])
				clear(c.writeS[:])
			}
		}
		fk.epoch = 1
	}
	fk.reads = fk.reads[:0]
	fk.writes = fk.writes[:0]
}

// page returns the allocated chunk holding page p and p's index within it.
// Only pages on this epoch's or the stash's footprint lists qualify.
func (fk *memFork) page(p uint32) (*forkChunk, uint32) {
	return fk.chunks[p>>chunkPageShift], p & (chunkPages - 1)
}

// ForkStash freezes the current epoch's footprint and written-page images
// for a later ordered commit (ForkCommitPending) and starts the next
// epoch in the same fork. Shadow pages stay valid — the continuation
// epoch reads the stashed epoch's values through them — but footprint
// bits go stale, so the new epoch records its own byte footprint from
// scratch. The caller must have established that the stashed epoch is
// clean (no abort) before stashing.
func (m *Memory) ForkStash() {
	fk := m.fk
	fk.stReads = append(fk.stReads[:0], fk.reads...)
	fk.stWrites = append(fk.stWrites[:0], fk.writes...)
	fk.stReadBits = fk.stReadBits[:0]
	for _, p := range fk.reads {
		c, i := fk.page(p)
		fk.stReadBits = append(fk.stReadBits, c.readBits[i])
	}
	fk.stWriteBits = fk.stWriteBits[:0]
	fk.stImage = fk.stImage[:0]
	for _, p := range fk.writes {
		c, i := fk.page(p)
		fk.stWriteBits = append(fk.stWriteBits, c.writeBits[i])
		base := i << forkPageShift
		fk.stImage = append(fk.stImage, c.shadow[base:base+forkPageSize]...)
	}
	fk.stashed = true
	fk.nextEpoch()
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
		fk.commitPage(p, c.shadow[i<<forkPageShift:], &c.writeBits[i])
	}
}

// ForkCommitPending publishes the stashed epoch's writes into the parent,
// byte-exact from the stashed page images. The fork's live shadow (which
// has moved on to the continuation epoch) is untouched.
func (m *Memory) ForkCommitPending() {
	fk := m.fk
	for j, p := range fk.stWrites {
		fk.commitPage(p, fk.stImage[j*forkPageSize:], &fk.stWriteBits[j])
	}
	fk.stashed = false
}

// commitPage copies the bytes of page p that wb marks written from img,
// the page's image, into the parent.
func (fk *memFork) commitPage(p uint32, img []byte, wb *PageBits) {
	base := p << forkPageShift
	for w, word := range wb {
		for word != 0 {
			off := uint32(w)<<6 + uint32(bits.TrailingZeros64(word))
			word &= word - 1
			fk.parent.data[base+off] = img[off]
		}
	}
}

// ForkFootprint reports the page indices the fork read and wrote this
// epoch. The slices are owned by the fork and valid until the next
// ForkReset or ForkStash.
func (m *Memory) ForkFootprint() (reads, writes []uint32) {
	return m.fk.reads, m.fk.writes
}

// ForkPendingFootprint reports the stashed epoch's page footprint.
func (m *Memory) ForkPendingFootprint() (reads, writes []uint32) {
	return m.fk.stReads, m.fk.stWrites
}

// ForkPageFootprint reports the byte-granular footprint of page p this
// epoch: bit i of read/write set means byte i of the page was read/written.
// Pages the fork never touched report all-zero.
func (m *Memory) ForkPageFootprint(p uint32) (read, write PageBits) {
	fk := m.fk
	if p>>chunkPageShift >= uint32(len(fk.chunks)) {
		return read, write
	}
	if c, i := fk.page(p); c != nil && c.bitS[i] == fk.epoch {
		read, write = c.readBits[i], c.writeBits[i]
	}
	return read, write
}

// ForkPendingPageFootprint reports the stashed epoch's byte-granular
// footprint of page p. Linear in the stash size — the driver calls it
// only for pages already known shared via the page lists.
func (m *Memory) ForkPendingPageFootprint(p uint32) (read, write PageBits) {
	fk := m.fk
	for j, q := range fk.stReads {
		if q == p {
			read = fk.stReadBits[j]
			break
		}
	}
	for j, q := range fk.stWrites {
		if q == p {
			write = fk.stWriteBits[j]
			break
		}
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
// span. Every touched page is copied from the parent once per fork chain
// (not per epoch — a stash-continued epoch keeps reading its
// predecessor's values), and its footprint bits are cleared once per
// epoch. The chunk is allocated on its first touch.
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
		if c.copied[i] != fk.chain {
			c.copied[i] = fk.chain
			end := min(cbase+base+forkPageSize, uint32(len(fk.parent.data)))
			copy(c.shadow[base:], fk.parent.data[cbase+base:end])
		}
		if c.bitS[i] != fk.epoch {
			c.bitS[i] = fk.epoch
			c.readBits[i] = PageBits{}
			c.writeBits[i] = PageBits{}
		}
		// The byte span of [off, off+n) that lands within this page.
		slo, shi := max(off, base), min(off+n, base+forkPageSize)
		p := ci<<chunkPageShift | i
		if write {
			c.writeBits[i].setRange(slo-base, shi-base)
			if c.writeS[i] != fk.epoch {
				c.writeS[i] = fk.epoch
				fk.writes = append(fk.writes, p)
			}
		} else {
			c.readBits[i].setRange(slo-base, shi-base)
			if c.readS[i] != fk.epoch {
				c.readS[i] = fk.epoch
				fk.reads = append(fk.reads, p)
			}
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
