package gdp

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/mem"
	"repro/internal/obj"
)

// TestForkHostMemoryBounded: epoch forks cost host memory in proportion to
// what a run touches, not to arena size times processor count. Sixteen
// processors over a 1 GiB arena would need 16 GiB of flat shadows; with
// sparse shadows a short parallel run allocates, beyond the parent, at
// most the touched chunks plus one chunk directory per fork.
func TestForkHostMemoryBounded(t *testing.T) {
	const cpus = 16
	s, err := New(Config{Processors: cpus, MemoryBytes: 1 << 30, HostParallel: true})
	if err != nil {
		t.Fatal(err)
	}
	results := computeWorkload(t, s, cpus)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, f := s.Run(0); f != nil {
		t.Fatal(f)
	}
	runtime.ReadMemStats(&after)
	if s.ParStats().Commits == 0 {
		t.Fatal("no parallel epoch committed")
	}
	for i, r := range results {
		if v, f := s.Table.ReadDWord(r, 0); f != nil || v == 0 {
			t.Fatalf("worker %d result %d, %v", i, v, f)
		}
	}

	// Sizes mirror the chunk layouts of mem/fork.go and obj/fork.go, each
	// rounded up to the heap's 8 KiB pages: a memory chunk is 64 KiB of
	// shadow plus four uint32 stamps and two PageBits per 256-byte page; a
	// descriptor chunk is 1024 descriptors plus two uint32 stamps each.
	page := func(n uintptr) uint64 { return (uint64(n) + 8<<10 - 1) &^ (8<<10 - 1) }
	memChunk := page(64<<10 + 256*(4*4+2*unsafe.Sizeof(mem.PageBits{})))
	descChunk := page(1024 * (unsafe.Sizeof(obj.Descriptor{}) + 2*4))
	m := s.Table.Memory()
	// First-fit packs the run's objects below the largest free extent,
	// the arena's tail, so no fork can touch a chunk above it.
	memChunks := uint64(m.Size()-m.LargestFree())>>16 + 1
	descChunks := uint64(s.Table.Len())>>10 + 1
	dirs := uint64(m.Size()>>16)*8 + descChunks*8
	const slack = 8 << 20 // fork systems, footprint lists, decode caches
	bound := cpus*(memChunks*memChunk+descChunks*descChunk+dirs) + slack
	got := after.TotalAlloc - before.TotalAlloc
	if got > bound {
		t.Fatalf("parallel run allocated %d bytes, bound %d", got, bound)
	}
	t.Logf("parallel run allocated %d bytes, bound %d", got, bound)
}
