package obj

import "testing"

// TestForkDescriptorChunksLazy: a table fork allocates a descriptor chunk
// only on the first touch of a slot inside it, grows its directory by nil
// slots when the parent grows, and never moves an allocated chunk.
func TestForkDescriptorChunksLazy(t *testing.T) {
	tab := newTestTable(t)
	ad := mustCreate(t, tab, CreateSpec{Type: TypeGeneric, DataLen: 8})
	f := tab.Fork()
	f.ForkReset()
	if _, fl := f.Resolve(ad); fl != nil {
		t.Fatal(fl)
	}
	c := f.fk.chunks[ad.Index>>descChunkShift]
	if c == nil || len(f.fk.chunks) != 1 {
		t.Fatalf("directory %d slots, touched chunk %p", len(f.fk.chunks), c)
	}

	var last AD
	for tab.Len() <= 2*descChunkSize {
		last = mustCreate(t, tab, CreateSpec{Type: TypeGeneric, DataLen: 1})
	}
	f.ForkReset()
	if len(f.fk.chunks) != 3 || f.fk.chunks[1] != nil || f.fk.chunks[2] != nil {
		t.Fatalf("grown directory = %d slots, tail %p %p", len(f.fk.chunks), f.fk.chunks[1], f.fk.chunks[2])
	}
	if f.fk.chunks[0] != c {
		t.Fatal("allocated chunk moved when the parent grew")
	}
	if _, fl := f.Resolve(last); fl != nil {
		t.Fatal(fl)
	}
	if f.fk.chunks[1] != nil || f.fk.chunks[2] == nil {
		t.Fatal("resolving the last slot did not allocate exactly its chunk")
	}
}

// TestForkDescriptorStampWrapScrubs forces both stamps to wrap: the scrub
// must clear the allocated chunks, so a slot touched before the wrap is
// re-copied from the parent and rejoins the footprint.
func TestForkDescriptorStampWrapScrubs(t *testing.T) {
	tab := newTestTable(t)
	ad := mustCreate(t, tab, CreateSpec{Type: TypeGeneric, DataLen: 8})
	f := tab.Fork()
	f.ForkReset()
	if _, fl := f.Resolve(ad); fl != nil {
		t.Fatal(fl)
	}
	f.fk.chain, f.fk.epoch = ^uint32(0), ^uint32(0)
	f.ForkReset()
	if f.fk.chain != 1 || f.fk.epoch != 1 {
		t.Fatalf("chain %d epoch %d after wrap, want 1 1", f.fk.chain, f.fk.epoch)
	}
	c := f.fk.chunks[0]
	for i := range c.stamp {
		if c.stamp[i] != 0 || c.estamp[i] != 0 {
			t.Fatalf("slot %d stamps %d/%d survived the wrap", i, c.stamp[i], c.estamp[i])
		}
	}
	if _, fl := f.Resolve(ad); fl != nil {
		t.Fatal(fl)
	}
	if got := f.ForkTouched(); len(got) != 1 || got[0] != ad.Index {
		t.Fatalf("touched = %v, want [%d]", got, ad.Index)
	}
}
