package mem

import (
	"bytes"
	"runtime"
	"testing"
	"unsafe"
)

// TestPageBitsSetRangeMatchesBitLoop checks the word-mask setRange against
// the per-bit definition for every range within a page, over an empty
// bitmap and over one that already holds bits (setRange must OR).
func TestPageBitsSetRangeMatchesBitLoop(t *testing.T) {
	var seed PageBits
	for i := range seed {
		seed[i] = 0x8421_0000_1248_0001 << i
	}
	for _, base := range []PageBits{{}, seed} {
		for lo := uint32(0); lo <= forkPageSize; lo++ {
			for hi := lo; hi <= forkPageSize; hi++ {
				got, want := base, base
				got.setRange(lo, hi)
				for i := lo; i < hi; i++ {
					want[i>>6] |= 1 << (i & 63)
				}
				if got != want {
					t.Fatalf("setRange(%d, %d) over %x = %x, want %x", lo, hi, base, got, want)
				}
			}
		}
	}
}

// straddle returns a parent memory of three shadow chunks holding a
// 16-byte extent that crosses the first chunk boundary three bytes in,
// filled with 1..16.
func straddle(t *testing.T) (*Memory, Extent) {
	t.Helper()
	m := New(3 * forkChunkSize)
	if _, err := m.Alloc(forkChunkSize - 3); err != nil {
		t.Fatal(err)
	}
	e, err := m.Alloc(16)
	if err != nil {
		t.Fatal(err)
	}
	if e.Base>>forkChunkShift == (e.End()-1)>>forkChunkShift {
		t.Fatalf("extent %+v does not straddle a chunk boundary", e)
	}
	for i := uint32(0); i < 16; i++ {
		if err := m.WriteByteAt(e, i, byte(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	return m, e
}

func TestForkAccessorsStraddleChunkBoundary(t *testing.T) {
	m, e := straddle(t)
	f := m.Fork()
	f.ForkReset()

	if v, err := f.ReadWord(e, 2); err != nil || v != 0x0403 {
		t.Fatalf("ReadWord across boundary = %#x, %v", v, err)
	}
	if v, err := f.ReadDWord(e, 1); err != nil || v != 0x05040302 {
		t.Fatalf("ReadDWord across boundary = %#x, %v", v, err)
	}
	if p, err := f.ReadBytes(e, 0, 16); err != nil || p[0] != 1 || p[15] != 16 {
		t.Fatalf("ReadBytes across boundary = %v, %v", p, err)
	}
	if err := f.WriteWord(e, 2, 0xBEEF); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteDWord(e, 8, 0xCAFEF00D); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteBytes(e, 0, []byte{0xA0, 0xA1}); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteByteAt(e, 3, 0x77); err != nil {
		t.Fatal(err)
	}
	want := []byte{0xA0, 0xA1, 0xEF, 0x77, 5, 6, 7, 8, 0x0D, 0xF0, 0xFE, 0xCA, 13, 14, 15, 16}
	if p, _ := f.ReadBytes(e, 0, 16); !bytes.Equal(p, want) {
		t.Fatalf("fork view = %x, want %x", p, want)
	}
	if p, _ := m.ReadBytes(e, 0, 16); p[2] != 3 || p[3] != 4 {
		t.Fatalf("parent changed before commit: %x", p)
	}
	_, writes := f.ForkFootprint()
	lo, hi := uint32(e.Base)>>forkPageShift, uint32(e.End()-1)>>forkPageShift
	if len(writes) != 2 || writes[0] != lo || writes[1] != hi {
		t.Fatalf("write pages = %v, want [%d %d]", writes, lo, hi)
	}
	f.ForkCommit()
	if p, _ := m.ReadBytes(e, 0, 16); !bytes.Equal(p, want) {
		t.Fatalf("parent after commit = %x, want %x", p, want)
	}
}

func TestForkWindow(t *testing.T) {
	m, e := straddle(t)
	f := m.Fork()
	f.ForkReset()
	if w := f.Window(e); w != nil {
		t.Fatalf("straddling window = %x, want nil", w)
	}
	if n := f.ForkWindowDeclines(); n != 1 {
		t.Fatalf("declines = %d, want 1", n)
	}

	// An extent inside one chunk gets a view aliasing the shadow: writes
	// through the accessors show in it, and its writes, once marked,
	// commit.
	in := Extent{Base: e.End(), Len: 8}
	w := f.Window(in)
	if len(w) != 8 || cap(w) != 8 {
		t.Fatalf("window len %d cap %d, want 8 8", len(w), cap(w))
	}
	if err := f.WriteByteAt(in, 1, 0x42); err != nil {
		t.Fatal(err)
	}
	if w[1] != 0x42 {
		t.Fatalf("window does not alias the shadow: %x", w)
	}
	w[5] = 0x99
	f.MarkForkWrite(in.Base+5, 1)
	if v, _ := m.ReadByteAt(in, 5); v != 0 {
		t.Fatalf("parent byte = %#x before commit", v)
	}
	f.ForkCommit()
	if v, _ := m.ReadByteAt(in, 5); v != 0x99 {
		t.Fatalf("parent byte = %#x after commit, want 0x99", v)
	}

	// Chunks never move: the next epoch's window is the same memory,
	// refreshed from the parent.
	f.ForkReset()
	w2 := f.Window(in)
	if &w2[0] != &w[0] {
		t.Fatal("shadow chunk moved across ForkReset")
	}
	if w2[1] != 0x42 || w2[5] != 0x99 {
		t.Fatalf("window after reset = %x", w2)
	}
	if n := f.ForkWindowDeclines(); n != 1 {
		t.Fatalf("declines = %d, want 1", n)
	}
}

func TestForkCommitByteExactOnSharedPage(t *testing.T) {
	m := New(1024)
	e, _ := m.Alloc(64)
	a, b := m.Fork(), m.Fork()
	a.ForkReset()
	b.ForkReset()
	if err := a.WriteBytes(e, 0, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteBytes(e, 3, []byte{4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	// Both shadows hold the whole page; only written bytes may land.
	a.ForkCommit()
	b.ForkCommit()
	if p, _ := m.ReadBytes(e, 0, 7); !bytes.Equal(p, []byte{1, 2, 3, 4, 5, 6, 0}) {
		t.Fatalf("parent = %v", p)
	}
	_, wa := a.ForkPageFootprint(0)
	_, wb := b.ForkPageFootprint(0)
	if wa[0] != 0b111 || wb[0] != 0b111000 {
		t.Fatalf("write bits a=%b b=%b", wa[0], wb[0])
	}
}

func TestForkStashCommitPending(t *testing.T) {
	m := New(4096)
	e, _ := m.Alloc(1024)
	f := m.Fork()
	f.ForkReset()
	if err := f.WriteByteAt(e, 300, 7); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadByteAt(e, 10); err != nil {
		t.Fatal(err)
	}
	f.ForkStash()

	// The continuation reads its predecessor's value and records a
	// fresh footprint.
	if v, _ := f.ReadByteAt(e, 300); v != 7 {
		t.Fatalf("continuation reads %d, want the stashed 7", v)
	}
	if err := f.WriteByteAt(e, 301, 8); err != nil {
		t.Fatal(err)
	}
	if r, w := f.ForkPendingFootprint(); len(r) != 1 || r[0] != 0 || len(w) != 1 || w[0] != 1 {
		t.Fatalf("pending footprint r=%v w=%v", r, w)
	}
	if r, w := f.ForkFootprint(); len(r) != 1 || r[0] != 1 || len(w) != 1 || w[0] != 1 {
		t.Fatalf("live footprint r=%v w=%v", r, w)
	}
	if _, w := f.ForkPendingPageFootprint(1); w[0] != 1<<(300-256) {
		t.Fatalf("pending write bits %b", w[0])
	}

	f.ForkCommitPending()
	if v, _ := m.ReadByteAt(e, 300); v != 7 {
		t.Fatalf("stashed byte = %d after ForkCommitPending", v)
	}
	if v, _ := m.ReadByteAt(e, 301); v != 0 {
		t.Fatalf("continuation byte leaked into the parent: %d", v)
	}
	f.ForkCommit()
	if v, _ := m.ReadByteAt(e, 301); v != 8 {
		t.Fatalf("continuation byte = %d after ForkCommit", v)
	}
}

// TestForkChainWrapScrubs forces the chain stamp to wrap: a page copied at
// chain 1 must not pass as fresh when the wrapped counter returns to 1.
func TestForkChainWrapScrubs(t *testing.T) {
	m := New(1024)
	e, _ := m.Alloc(8)
	f := m.Fork()
	if v, _ := f.ReadByteAt(e, 0); v != 0 { // copied at chain 1
		t.Fatal(v)
	}
	if err := m.WriteByteAt(e, 0, 9); err != nil {
		t.Fatal(err)
	}
	f.fk.chain = ^uint32(0)
	f.ForkReset()
	if f.fk.chain != 1 {
		t.Fatalf("chain = %d after wrap, want 1", f.fk.chain)
	}
	if v, _ := f.ReadByteAt(e, 0); v != 9 {
		t.Fatalf("fork reads stale %d after chain wrap, want 9", v)
	}
}

// TestForkEpochWrapScrubs forces the epoch stamp to wrap: footprint bits
// and list membership from epoch 1 must not survive into the new epoch 1.
func TestForkEpochWrapScrubs(t *testing.T) {
	m := New(1024)
	e, _ := m.Alloc(8)
	f := m.Fork()
	if err := f.WriteByteAt(e, 0, 1); err != nil { // recorded in epoch 1
		t.Fatal(err)
	}
	f.fk.epoch = ^uint32(0)
	f.ForkReset()
	if f.fk.epoch != 1 {
		t.Fatalf("epoch = %d after wrap, want 1", f.fk.epoch)
	}
	if r, w := f.ForkPageFootprint(0); r != (PageBits{}) || w != (PageBits{}) {
		t.Fatalf("stale footprint after epoch wrap: r=%x w=%x", r, w)
	}
	if err := f.WriteByteAt(e, 1, 1); err != nil {
		t.Fatal(err)
	}
	if _, w := f.ForkFootprint(); len(w) != 1 || w[0] != 0 {
		t.Fatalf("write pages = %v, want [0]", w)
	}
	if _, w := f.ForkPageFootprint(0); w[0] != 0b10 {
		t.Fatalf("write bits = %b, want 10", w[0])
	}
}

func TestForkPageFootprintUntouchedAllocatesNothing(t *testing.T) {
	m := New(4 * forkChunkSize)
	f := m.Fork()
	f.ForkReset()
	p := uint32(2*chunkPages + 5)
	if r, w := f.ForkPageFootprint(p); r != (PageBits{}) || w != (PageBits{}) {
		t.Fatalf("untouched page footprint r=%x w=%x", r, w)
	}
	if r, w := f.ForkPageFootprint(1 << 30); r != (PageBits{}) || w != (PageBits{}) {
		t.Fatalf("out-of-range page footprint r=%x w=%x", r, w)
	}
	for i, c := range f.fk.chunks {
		if c != nil {
			t.Fatalf("chunk %d allocated by a footprint query", i)
		}
	}
}

// TestForkHostMemoryBoundedByTouch is the resource bound at the memory
// layer: sixteen forks of a 1 GiB arena, each touching k pages spread over
// distinct chunks, allocate only the touched chunks and their directories.
func TestForkHostMemoryBoundedByTouch(t *testing.T) {
	const (
		forks = 16
		k     = 8
	)
	m := New(1 << 30)
	e := Extent{Base: 0, Len: 1 << 30}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fs := make([]*Memory, forks)
	chunks := 0
	for i := range fs {
		fs[i] = m.Fork()
		fs[i].ForkReset()
		for j := 0; j < k; j++ {
			// Page j of chunk 37*i+j: every touch lands in a new chunk.
			off := uint32(37*i+j)<<forkChunkShift | uint32(j)<<forkPageShift
			if err := fs[i].WriteDWord(e, off, uint32(i)); err != nil {
				t.Fatal(err)
			}
			chunks++
		}
		fs[i].ForkReset()
	}
	runtime.ReadMemStats(&after)
	// The Go heap rounds a large object up to whole 8 KiB pages.
	chunkBytes := (uint64(unsafe.Sizeof(forkChunk{})) + 8<<10 - 1) &^ (8<<10 - 1)
	dir := uint64(len(fs[0].fk.chunks)) * uint64(unsafe.Sizeof((*forkChunk)(nil)))
	bound := uint64(chunks)*chunkBytes + forks*dir + 64<<10
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Fatalf("forks allocated %d bytes, bound %d (%d chunks)", got, bound, chunks)
	}
	runtime.KeepAlive(fs)
}
