package port

import (
	"fmt"
	"testing"

	"repro/internal/obj"
)

// Microbenchmarks for the port fast paths: steady-state send/receive per
// discipline, the sparse-occupancy selection scan (takeBest's early exit —
// before PR5 it walked every slot of the capacity regardless of count), and
// the park/unpark cycle that carrier pooling turned from create+destroy
// into free-list traffic.

func benchMsg(b *testing.B, fx *fixture) obj.AD {
	b.Helper()
	msg, f := fx.sros.Create(fx.heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8})
	if f != nil {
		b.Fatal(f)
	}
	return msg
}

func benchProc(b *testing.B, fx *fixture) obj.AD {
	b.Helper()
	p, f := fx.sros.Create(fx.heap, obj.CreateSpec{Type: obj.TypeProcess, DataLen: 32, AccessSlots: 4})
	if f != nil {
		b.Fatal(f)
	}
	return p
}

// BenchmarkSendReceive measures one send plus one receive on a half-full
// queue, per discipline: FIFO pops the head ring slot, priority and
// deadline run the selection scan over the occupied slots.
func BenchmarkSendReceive(b *testing.B) {
	for _, d := range []Discipline{FIFO, Priority, Deadline} {
		b.Run(d.String(), func(b *testing.B) {
			fx := setupQuick()
			p, f := fx.m.Create(fx.heap, 64, d)
			if f != nil {
				b.Fatal(f)
			}
			msg := benchMsg(b, fx)
			for i := 0; i < 32; i++ {
				if blocked, _, f := fx.m.Send(p, msg, uint32(i), obj.NilAD); f != nil || blocked {
					b.Fatalf("preload %d: %v %v", i, blocked, f)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if blocked, _, f := fx.m.Send(p, msg, uint32(i), obj.NilAD); f != nil || blocked {
					b.Fatalf("send: %v %v", blocked, f)
				}
				if _, _, _, f := fx.m.Receive(p, obj.NilAD); f != nil {
					b.Fatal(f)
				}
			}
		})
	}
}

// BenchmarkSelectionSparse is the takeBest early-exit case: a large port
// holding only a handful of messages. The scan now stops after the last
// occupied slot instead of walking the whole capacity.
func BenchmarkSelectionSparse(b *testing.B) {
	for _, capacity := range []uint16{64, 1024, 4096} {
		b.Run(fmt.Sprintf("cap%d", capacity), func(b *testing.B) {
			fx := setupQuick()
			p, f := fx.m.Create(fx.heap, capacity, Priority)
			if f != nil {
				b.Fatal(f)
			}
			msg := benchMsg(b, fx)
			for i := 0; i < 8; i++ {
				if blocked, _, f := fx.m.Send(p, msg, uint32(i), obj.NilAD); f != nil || blocked {
					b.Fatalf("preload %d: %v %v", i, blocked, f)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, _, f := fx.m.Receive(p, obj.NilAD); f != nil {
					b.Fatal(f)
				}
				if blocked, _, f := fx.m.Send(p, msg, uint32(i), obj.NilAD); f != nil || blocked {
					b.Fatalf("send: %v %v", blocked, f)
				}
			}
		})
	}
}

// BenchmarkParkUnpark measures a blocked send plus the receive that wakes
// it on a full capacity-1 port — the path that allocates a carrier per
// cycle without pooling, and reuses the port's free-list carrier with it.
func BenchmarkParkUnpark(b *testing.B) {
	fx := setupQuick()
	p, f := fx.m.Create(fx.heap, 1, FIFO)
	if f != nil {
		b.Fatal(f)
	}
	msg := benchMsg(b, fx)
	proc := benchProc(b, fx)
	if blocked, _, f := fx.m.Send(p, msg, 0, obj.NilAD); f != nil || blocked {
		b.Fatalf("fill: %v %v", blocked, f)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blocked, _, f := fx.m.Send(p, msg, 0, proc)
		if f != nil || !blocked {
			b.Fatalf("park: %v %v", blocked, f)
		}
		if _, _, wake, f := fx.m.Receive(p, obj.NilAD); f != nil || !wake.Woke() {
			b.Fatalf("unpark: %v %v", wake, f)
		}
	}
}
