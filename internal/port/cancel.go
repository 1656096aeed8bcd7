package port

import (
	"repro/internal/obj"
	"repro/internal/trace"
)

// Waiter cancellation: the piece of the port machinery that timeout
// service is built on. A process parked at a port (as sender or receiver)
// can be unlinked before its operation completes — the interval timer
// fires, the process manager wants to destroy the process, or a level-2
// timeout fault must be raised (§7.3). The carrier is removed and returned
// to the port's free pool; a cancelled sender's message is returned so the
// caller can decide its fate.

// CancelWaiter removes proc from the port's wait queues. It reports
// whether the process was found, and, for a cancelled sender, the message
// its carrier held. The sender queue is searched first; a fault there
// aborts the whole cancellation immediately — the receiver queue must not
// be walked over a port whose sender queue just proved corrupt.
func (m *Manager) CancelWaiter(p obj.AD, proc obj.AD) (found bool, msg obj.AD, f *obj.Fault) {
	pr, f := m.open(p)
	if f != nil {
		return false, obj.NilAD, f
	}
	found, msg, f = m.unlink(pr, slotSendHead, slotSendTail, proc)
	if f != nil {
		return false, obj.NilAD, f
	}
	if !found {
		found, msg, f = m.unlink(pr, slotRecvHead, slotRecvTail, proc)
		if f != nil {
			return false, obj.NilAD, f
		}
	}
	if found {
		if l := m.Table.Tracer(); l != nil {
			l.Emit(trace.EvCancel, uint32(p.Index), uint32(proc.Index), 0)
		}
	}
	return found, msg, nil
}

// unlink removes the carrier holding proc from one wait queue.
func (m *Manager) unlink(p obj.Ref, headSlot, tailSlot uint32, proc obj.AD) (bool, obj.AD, *obj.Fault) {
	var prev obj.Ref
	cur, f := p.LoadAD(headSlot)
	if f != nil {
		return false, obj.NilAD, f
	}
	for cur.Valid() {
		car, f := m.Table.Open(cur, obj.RightsNone)
		if f != nil {
			return false, obj.NilAD, f
		}
		held, f := car.LoadAD(carSlotProcess)
		if f != nil {
			return false, obj.NilAD, f
		}
		next, f := car.LoadAD(carSlotNext)
		if f != nil {
			return false, obj.NilAD, f
		}
		if held.Index == proc.Index {
			msg, f := car.LoadAD(carSlotMessage)
			if f != nil {
				return false, obj.NilAD, f
			}
			// Splice the carrier out.
			if prev.AD().Valid() {
				if f := prev.StoreADSystem(carSlotNext, next); f != nil {
					return false, obj.NilAD, f
				}
			} else {
				if f := p.StoreADSystem(headSlot, next); f != nil {
					return false, obj.NilAD, f
				}
			}
			if !next.Valid() {
				if f := p.StoreADSystem(tailSlot, prev.AD()); f != nil {
					return false, obj.NilAD, f
				}
			}
			if f := pool(p, car); f != nil {
				return false, obj.NilAD, f
			}
			return true, msg, nil
		}
		prev, cur = car, next
	}
	return false, obj.NilAD, nil
}
