package port_test

// Tests in this file live outside the port package so they can drive the
// cross-subsystem auditor (internal/audit imports internal/port) against
// randomized port traffic.

import (
	"math/rand"
	"testing"

	"repro/internal/audit"
	"repro/internal/obj"
	"repro/internal/port"
	"repro/internal/sro"
)

type harness struct {
	tab  *obj.Table
	sros *sro.Manager
	m    *port.Manager
	heap obj.AD
	a    *audit.Auditor
}

func newHarness(t testing.TB) *harness {
	t.Helper()
	tab := obj.NewTable(1 << 22)
	s := sro.NewManager(tab)
	heap, f := s.NewGlobalHeap(0)
	if f != nil {
		t.Fatal(f)
	}
	m := port.NewManager(tab, s)
	return &harness{
		tab: tab, sros: s, m: m, heap: heap,
		a: &audit.Auditor{Table: tab, SROs: s, Ports: m},
	}
}

func (h *harness) alloc(t testing.TB, typ obj.Type) obj.AD {
	t.Helper()
	ad, f := h.sros.Create(h.heap, obj.CreateSpec{Type: typ, DataLen: 16, AccessSlots: 2})
	if f != nil {
		t.Fatal(f)
	}
	return ad
}

func (h *harness) audit(t testing.TB, when string) {
	t.Helper()
	for _, v := range h.a.CheckAll() {
		t.Errorf("%s: audit: %s", when, v)
	}
}

// FuzzPortSendReceive drives an arbitrary interleaving of sends,
// conditional sends, receives, conditional receives and waiter
// cancellations against one port, auditing the whole kernel state as it
// goes: whatever the sequence, the queueing structure and the carrier
// accounting must stay well-formed.
func FuzzPortSendReceive(f *testing.F) {
	f.Add([]byte{1, 0, 0, 1, 2, 3, 4})
	f.Add([]byte{2, 1, 0, 0, 0, 0, 2, 2, 2, 2, 4, 4})
	f.Add([]byte{3, 2, 0, 8, 16, 2, 3, 1, 0, 4, 2, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) < 2 {
			return
		}
		h := newHarness(t)
		capacity := uint16(ops[0]%4) + 1
		disc := port.Discipline(ops[1] % 3)
		prt, fa := h.m.Create(h.heap, capacity, disc)
		if fa != nil {
			t.Fatal(fa)
		}
		var parkedSend, parkedRecv []obj.AD // waiting processes, park order
		ops = ops[2:]
		if len(ops) > 300 {
			ops = ops[:300]
		}
		// unparked removes a process a Wake reports as woken from the
		// model of the corresponding wait queue.
		unparked := func(pool *[]obj.AD, w port.Wake) {
			if !w.Woke() {
				return
			}
			for j, p := range *pool {
				if p.Index == w.Process.Index {
					*pool = append((*pool)[:j], (*pool)[j+1:]...)
					return
				}
			}
		}
		for i, b := range ops {
			switch b % 5 {
			case 0: // blocking send
				proc := h.alloc(t, obj.TypeProcess)
				blocked, wake, f := h.m.Send(prt, h.alloc(t, obj.TypeGeneric), uint32(b>>3), proc)
				if f != nil {
					t.Fatalf("op %d send: %v", i, f)
				}
				if blocked {
					parkedSend = append(parkedSend, proc)
				}
				unparked(&parkedRecv, wake)
			case 1: // conditional send: never parks
				_, wake, f := h.m.Send(prt, h.alloc(t, obj.TypeGeneric), uint32(b>>3), obj.NilAD)
				if f != nil {
					t.Fatalf("op %d csend: %v", i, f)
				}
				unparked(&parkedRecv, wake)
			case 2: // blocking receive
				proc := h.alloc(t, obj.TypeProcess)
				_, blocked, wake, f := h.m.Receive(prt, proc)
				if f != nil {
					t.Fatalf("op %d recv: %v", i, f)
				}
				if blocked {
					parkedRecv = append(parkedRecv, proc)
				}
				unparked(&parkedSend, wake)
			case 3: // conditional receive
				_, _, wake, f := h.m.Receive(prt, obj.NilAD)
				if f != nil {
					t.Fatalf("op %d crecv: %v", i, f)
				}
				unparked(&parkedSend, wake)
			case 4: // cancel a parked waiter (either side)
				pool := &parkedSend
				if b&8 != 0 && len(parkedRecv) > 0 || len(parkedSend) == 0 {
					pool = &parkedRecv
				}
				if len(*pool) == 0 {
					continue
				}
				j := int(b>>4) % len(*pool)
				proc := (*pool)[j]
				found, _, f := h.m.CancelWaiter(prt, proc)
				if f != nil {
					t.Fatalf("op %d cancel: %v", i, f)
				}
				if !found {
					t.Fatalf("op %d: parked process %v not found by cancel", i, proc)
				}
				*pool = append((*pool)[:j], (*pool)[j+1:]...)
			}
			if i%16 == 15 {
				h.audit(t, "mid-sequence")
			}
		}
		h.audit(t, "final")
	})
}

// TestDisciplineOrderUnderInterleaving is the discipline-order property:
// against a model queue of (key, arrival) pairs, randomized interleavings
// of Send, Receive and CancelWaiter must deliver messages in exactly the
// order the port's discipline promises — FIFO by arrival, Priority by
// highest key, Deadline by lowest key (arrival breaking ties) — with
// parked senders refilling the queue in park order. The auditor checks
// structural health alongside the ordering model.
func TestDisciplineOrderUnderInterleaving(t *testing.T) {
	type entry struct {
		msg obj.AD
		key uint32
		seq int
	}
	for _, disc := range []port.Discipline{port.FIFO, port.Priority, port.Deadline} {
		disc := disc
		t.Run(disc.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(432 + int64(disc)))
			for trial := 0; trial < 25; trial++ {
				h := newHarness(t)
				capacity := uint16(rng.Intn(3)) + 1
				prt, f := h.m.Create(h.heap, capacity, disc)
				if f != nil {
					t.Fatal(f)
				}
				var queue []entry // model of the slot contents
				type waiter struct {
					proc, msg obj.AD
					key       uint32
				}
				var parked []waiter // model of the sender wait queue
				seq := 0

				best := func() int {
					b := 0
					for i, e := range queue[1:] {
						switch disc {
						case port.FIFO:
							if e.seq < queue[b].seq {
								b = i + 1
							}
						case port.Priority:
							if e.key > queue[b].key || (e.key == queue[b].key && e.seq < queue[b].seq) {
								b = i + 1
							}
						case port.Deadline:
							if e.key < queue[b].key || (e.key == queue[b].key && e.seq < queue[b].seq) {
								b = i + 1
							}
						}
					}
					return b
				}

				for op := 0; op < 120; op++ {
					switch rng.Intn(4) {
					case 0, 1: // send with a random key
						msg := h.alloc(t, obj.TypeGeneric)
						proc := h.alloc(t, obj.TypeProcess)
						key := uint32(rng.Intn(8))
						blocked, _, f := h.m.Send(prt, msg, key, proc)
						if f != nil {
							t.Fatal(f)
						}
						if blocked {
							parked = append(parked, waiter{proc, msg, key})
						} else {
							queue = append(queue, entry{msg, key, seq})
							seq++
						}
					case 2: // receive must deliver the model's best
						msg, blocked, _, f := h.m.Receive(prt, obj.NilAD)
						if f != nil {
							t.Fatal(f)
						}
						if blocked {
							if len(queue) != 0 {
								t.Fatalf("trial %d: port empty but model holds %d", trial, len(queue))
							}
							continue
						}
						b := best()
						if msg.Index != queue[b].msg.Index {
							t.Fatalf("trial %d op %d (%v): received %d, discipline orders %d first",
								trial, op, disc, msg.Index, queue[b].msg.Index)
						}
						queue = append(queue[:b], queue[b+1:]...)
						if len(parked) > 0 { // head sender's message refills the slot
							queue = append(queue, entry{parked[0].msg, parked[0].key, seq})
							seq++
							parked = parked[1:]
						}
					case 3: // cancel a random parked sender
						if len(parked) == 0 {
							continue
						}
						j := rng.Intn(len(parked))
						found, msg, f := h.m.CancelWaiter(prt, parked[j].proc)
						if f != nil {
							t.Fatal(f)
						}
						if !found || msg.Index != parked[j].msg.Index {
							t.Fatalf("trial %d: cancel returned found=%v msg=%v, want %v",
								trial, found, msg, parked[j].msg)
						}
						parked = append(parked[:j], parked[j+1:]...)
					}
				}
				h.audit(t, "after interleaving")

				// Drain and check the tail ordering too.
				for len(queue) > 0 {
					msg, blocked, _, f := h.m.Receive(prt, obj.NilAD)
					if f != nil || blocked {
						t.Fatalf("drain: blocked=%v fault=%v with %d modeled", blocked, f, len(queue))
					}
					b := best()
					if msg.Index != queue[b].msg.Index {
						t.Fatalf("drain (%v): received %d, discipline orders %d first",
							disc, msg.Index, queue[b].msg.Index)
					}
					queue = append(queue[:b], queue[b+1:]...)
					if len(parked) > 0 {
						queue = append(queue, entry{parked[0].msg, parked[0].key, seq})
						seq++
						parked = parked[1:]
					}
				}
				h.audit(t, "after drain")
			}
		})
	}
}
