package experiments

import "testing"

// The matrix's headline trace corners as Go benchmarks, so the
// workload-level ratios can be profiled with the standard tooling
// (-cpuprofile) instead of re-deriving them from BENCH_matrix.json. Each
// runs its benchWorkloads row at the row's own sizes.

func benchAtCorner(b *testing.B, workload, corner string) {
	for _, w := range benchWorkloads {
		for _, c := range benchCorners {
			if w.name != workload || c.name != corner {
				continue
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := w.run(c); err != nil {
					b.Fatal(err)
				}
			}
			return
		}
	}
	b.Fatalf("no workload %s at corner %s", workload, corner)
}

func BenchmarkRegLoopSerialCache(b *testing.B) { benchAtCorner(b, "reg-loop", "serial_cache") }
func BenchmarkRegLoopSerialTrace(b *testing.B) { benchAtCorner(b, "reg-loop", "serial_trace") }
func BenchmarkComputeSerialCache(b *testing.B) { benchAtCorner(b, "e3-compute", "serial_cache") }
func BenchmarkComputeSerialTrace(b *testing.B) { benchAtCorner(b, "e3-compute", "serial_trace") }
