package proc

import (
	"math/bits"

	"trips/internal/critpath"
	"trips/internal/isa"
	"trips/internal/micronet"
)

// operand is one reservation-station operand field.
type operand struct {
	have bool
	v    Value
	ev   critpath.Event
}

// station is one reservation station: an instruction plus two 64-bit data
// operands and a one-bit predicate (paper Section 3.4).
type station struct {
	present bool
	fired   bool // issued (or proven dead by a mismatched predicate)
	inst    isa.Inst
	index   int // N[index] within the block
	left    operand
	right   operand
	pred    operand
	arrEv   critpath.Event // instruction arrival (GDN dispatch)
}

// inflight is an operation in the execution pipeline.
type inflight struct {
	doneAt int64
	slot   int
	seq    uint64
	thread int
	st     *station
	result Value
	ev     critpath.Event
}

// etTile is one of the sixteen execution tiles: a single-issue pipeline, a
// bank of 64 reservation stations (8 per in-flight block), an integer unit
// and a floating-point unit, all fully pipelined except the 24-cycle
// integer divide (paper Section 3.4, Figure 4d).
type etTile struct {
	core *Core
	id   int
	at   micronet.Coord

	stations   [NumSlots][isa.SlotsPerET]station
	slotSeq    [NumSlots]uint64 // 0 = frame unbound
	slotThread [NumSlots]int
	// pending[slot] counts stations that are present and not yet fired.
	pending [NumSlots]int8
	// readyMask[slot] has bit i set when station i is issuable. Readiness
	// is monotonic — operands only accumulate and a mismatched predicate
	// permanently fires the station — so it is evaluated once per delivery
	// instead of by rescanning every station every cycle; the select scan
	// reduces to a bitmask walk.
	readyMask [NumSlots]uint8

	divBusyUntil int64
	pipe         []inflight
	outQ         micronet.Queue[*opnMsg] // results awaiting OPN injection

	// active registers pending work with the core's stepping fast path:
	// set by every wake (dispatch, operand delivery, commit/flush), cleared
	// by tick once the tile is provably at a fixed point (nothing in flight,
	// nothing issuable, nothing queued). A cleared tile's tick would be a
	// no-op, so skipping it cannot change simulated state.
	active bool
	// wakeAt is the tile's doze horizon under event-driven stepping: when
	// nonzero and in the future, every tick before it is provably a no-op
	// (all in-flight results finish later, nothing issuable except a
	// divider-blocked station, output queue empty), so Step skips the tile
	// until then. Host-side stepping acceleration only — never serialized;
	// a restored tile starts at zero and recomputes on its first tick. Any
	// wake (delivery, flush, commit) clears it, since new work invalidates
	// the horizon.
	wakeAt int64

	// Stats.
	Issued, LocalBypass, Remote, DeadPred, DroppedStale uint64
}

func newET(core *Core, id int) *etTile {
	return &etTile{core: core, id: id, at: etCoord(id)}
}

// wake registers external work (dispatch, delivery, commit, flush) and
// cancels any doze: the event that set it may enable issue before the old
// horizon.
func (e *etTile) wake() {
	e.active = true
	e.wakeAt = 0
}

// bindSlot is called (via the dispatch schedule) when a new block begins
// occupying a frame at this tile.
func (e *etTile) bindSlot(slot int, seq uint64, thread int) {
	e.stations[slot] = [isa.SlotsPerET]station{}
	e.pending[slot] = 0
	e.readyMask[slot] = 0
	e.slotSeq[slot] = seq
	e.slotThread[slot] = thread
	e.wake()
}

// deliverInst installs a dispatched instruction into its reservation
// station ("written into ... the reservation stations in the ETs when they
// arrive, and are available to execute as soon as they arrive", paper 4.1).
// The caller (Core.runEvent) has woken the tile and checked the frame.
func (e *etTile) deliverInst(slot, index int, in *isa.Inst, ev critpath.Event) {
	s := &e.stations[slot][isa.SlotOf(index)]
	// Operands routed by early-dispatched producers may already be waiting
	// in the station; instruction arrival must not clear them.
	wasPending := s.present && !s.fired
	s.present = true
	s.inst = *in
	s.index = index
	s.arrEv = ev
	if in.Op == isa.NOP {
		s.fired = true
		return
	}
	if !wasPending {
		e.pending[slot]++
	}
	e.reeval(slot, isa.SlotOf(index))
}

// reeval refreshes one station's readiness after a delivery. A mismatched
// predicate fires the station on the spot (the old select scan did the same
// one tick later, with no observable difference: a fired station never
// issues and drops all further arrivals).
func (e *etTile) reeval(slot, i int) {
	s := &e.stations[slot][i]
	ok, dead := e.ready(s)
	switch {
	case dead:
		s.fired = true
		e.pending[slot]--
		e.DeadPred++
	case ok:
		e.readyMask[slot] |= 1 << uint(i)
	}
}

// deliverOperand fills an operand field from the OPN or the local bypass.
func (e *etTile) deliverOperand(slot int, seq uint64, tgt isa.Target, v Value, ev critpath.Event) {
	e.wake()
	if e.slotSeq[slot] != seq {
		e.DroppedStale++
		return
	}
	if isa.ETOf(tgt.Index) != e.id {
		panic("proc: operand routed to wrong ET")
	}
	s := &e.stations[slot][isa.SlotOf(tgt.Index)]
	if s.fired {
		// Duplicate arrivals happen only on nullified dual-predicate
		// paths; the station fired on the first pair (see DESIGN.md).
		return
	}
	var op *operand
	switch tgt.Kind {
	case isa.OpLeft:
		op = &s.left
	case isa.OpRight:
		op = &s.right
	case isa.OpPred:
		op = &s.pred
	default:
		panic("proc: bad operand kind at ET")
	}
	if op.have {
		return // keep the first arrival (complementary-path duplicate)
	}
	*op = operand{have: true, v: v, ev: ev}
	if s.present {
		e.reeval(slot, isa.SlotOf(tgt.Index))
	}
}

// ready reports whether station s can issue, and whether its predicate
// proves it dead.
func (e *etTile) ready(s *station) (ok, dead bool) {
	if !s.present || s.fired {
		return false, false
	}
	in := &s.inst
	if in.Pred.Predicated() {
		if !s.pred.have {
			return false, false
		}
		if !s.pred.v.Null {
			taken := s.pred.v.Bits != 0
			if (in.Pred == isa.PredOnTrue) != taken {
				return false, true // mismatched predicate: never fires
			}
		}
		// A null predicate fires the instruction with nullified outputs,
		// keeping block output counts invariant on dead paths.
	}
	if in.NeedsLeft() && !s.left.have {
		return false, false
	}
	if in.NeedsRight() && !s.right.have {
		return false, false
	}
	return true, false
}

// tick runs one ET cycle: retire finished operations (routing their
// results), then select and issue at most one ready instruction, then retry
// blocked OPN injections.
func (e *etTile) tick(now int64) {
	e.completeFinished(now)
	issued, blocked := e.selectAndIssue(now)
	e.drainOutQ(now)
	// Fixed point: nothing executing, nothing queued, nothing issued and
	// nothing issuable-but-blocked. Readiness and dead-predicate marking
	// happen at delivery time, so with readyMask empty nothing can change
	// until the next external delivery.
	e.active = len(e.pipe) > 0 || !e.outQ.Empty() || issued || blocked
	// Doze horizon: with nothing issued and nothing queued, every remaining
	// obligation carries an explicit completion cycle — in-flight results
	// finish at their doneAt stamps, and a divider-blocked ready station
	// can't re-attempt issue before divBusyUntil. Ticks before the earliest
	// of those are pure no-ops (completeFinished keeps everything, the
	// select scan re-finds the same blocked station, drainOutQ sees an empty
	// queue), so Step may skip them. An issued instruction means the select
	// could issue again next cycle, and a non-empty outQ retries injection
	// every cycle — neither is deadline-held, so neither dozes.
	e.wakeAt = 0
	if e.core.eventDriven && e.active && !issued && e.outQ.Empty() {
		w := horizonNever
		for i := range e.pipe {
			if e.pipe[i].doneAt < w {
				w = e.pipe[i].doneAt
			}
		}
		if blocked && e.divBusyUntil < w {
			w = e.divBusyUntil
		}
		if w > now && w != horizonNever {
			e.wakeAt = w
		}
	}
}

func (e *etTile) completeFinished(now int64) {
	kept := e.pipe[:0]
	for _, f := range e.pipe {
		if f.doneAt > now {
			kept = append(kept, f)
			continue
		}
		if e.slotSeq[f.slot] == f.seq {
			e.route(now, f)
		}
	}
	e.pipe = kept
}

// selectAndIssue reports whether it issued an instruction, and whether a
// ready instruction was blocked (unpipelined divider busy) — either keeps
// the tile active.
func (e *etTile) selectAndIssue(now int64) (issued, blocked bool) {
	// Select the ready instruction from the oldest block first (then by
	// station order) — the age-ordered select of Section 3.4. readyMask is
	// maintained at delivery time, so the scan touches only issuable
	// stations: the lowest set bit is the first ready station in slot order.
	var best *station
	bestSlot, bestIdx := -1, -1
	var bestSeq uint64
	for slot := 0; slot < NumSlots; slot++ {
		seq := e.slotSeq[slot]
		if seq == 0 || e.readyMask[slot] == 0 {
			continue
		}
		if best == nil || seq < bestSeq {
			i := bits.TrailingZeros8(e.readyMask[slot])
			best, bestSlot, bestIdx, bestSeq = &e.stations[slot][i], slot, i, seq
		}
	}
	if best == nil {
		return false, false
	}
	in := &best.inst
	// The unpipelined integer divider blocks issue of a new divide (ALU
	// contention, charged to Other on the critical path).
	if !in.Op.Pipelined() && e.divBusyUntil > now {
		return false, true
	}
	best.fired = true
	e.pending[bestSlot]--
	e.readyMask[bestSlot] &^= 1 << uint(bestIdx)
	e.Issued++

	// The issue time was determined by the last-arriving dependency.
	parent := best.arrEv
	parentCat := critpath.CatIFetch
	consider := func(op *operand) {
		if op.have && op.ev.Valid() && (!parent.Valid() || op.ev.Cycle >= parent.Cycle) {
			parent = op.ev
			parentCat = critpath.CatOther
		}
	}
	consider(&best.left)
	consider(&best.right)
	consider(&best.pred)

	null := (in.NeedsLeft() && best.left.v.Null) ||
		(in.NeedsRight() && best.right.v.Null) ||
		(in.Pred.Predicated() && best.pred.v.Null)

	// Cycles between the last arrival and issue are select/ALU contention
	// (Other) when an operand was last, instruction distribution (IFetch)
	// when the instruction itself was.
	issueEv := e.core.newEvent(now, parent, critpath.Split{}, parentCat)

	lat := int64(in.Op.Latency())
	if null {
		lat = 1
	}
	execCat := critpath.CatOther
	if in.Op == isa.MOV {
		// Fanout instructions exist only to replicate operands; their
		// execution latency is the "fanout ops" overhead of Table 3.
		execCat = critpath.CatFanout
	}
	var split critpath.Split
	split[execCat] = lat
	doneEv := e.core.newEvent(now+lat, issueEv, split, execCat)

	if !in.Op.Pipelined() {
		e.divBusyUntil = now + lat
	}

	var result Value
	if null {
		result = Value{Null: true}
	} else {
		switch in.Op.Format() {
		case isa.FmtG, isa.FmtI, isa.FmtC:
			result = Value{Bits: isa.Eval(in.Op, best.left.v.Bits, best.right.v.Bits, in.Imm)}
		case isa.FmtL, isa.FmtS:
			// Effective address computed here; memory op issued at route.
			result = Value{Bits: best.left.v.Bits + uint64(in.Imm)}
		case isa.FmtB:
			result = best.left.v // RET/BR target (unused for BRO/CALLO)
		}
	}
	e.pipe = append(e.pipe, inflight{
		doneAt: now + lat,
		slot:   bestSlot,
		seq:    bestSeq,
		thread: e.slotThread[bestSlot],
		st:     best,
		result: result,
		ev:     doneEv,
	})
	return true, false
}

// route delivers a completed operation's outputs: locally bypassed operands
// to this ET's own stations, OPN messages to remote tiles, memory requests
// to the DTs, and branch outputs to the GT (paper Section 4.2).
func (e *etTile) route(now int64, f inflight) {
	in := &f.st.inst
	switch {
	case in.Op.IsLoad():
		if f.result.Null {
			// A nullified load produces null results locally without a
			// DT round trip; loads are not block outputs.
			e.emitValue(now, f, in.T0, Value{Null: true}, f.ev)
			e.emitValue(now, f, in.T1, Value{Null: true}, f.ev)
			return
		}
		addr := f.result.Bits
		m := e.core.newOPNMsg()
		*m = opnMsg{
			dst: dtCoord(isa.DTOfAddr(addr)), kind: opnLoadReq,
			slot: f.slot, seq: f.seq, thread: f.thread,
			lsid: in.LSID, memOp: in.Op, addr: addr,
			ldT0: in.T0, ldT1: in.T1, ev: f.ev,
		}
		e.outQ.Push(m)
	case in.Op.IsStore():
		addr := f.result.Bits
		data := f.st.right.v
		null := f.result.Null || data.Null
		if null {
			addr = 0
		}
		m := e.core.newOPNMsg()
		*m = opnMsg{
			dst: dtCoord(isa.DTOfAddr(addr)), kind: opnStoreReq,
			slot: f.slot, seq: f.seq, thread: f.thread,
			lsid: in.LSID, memOp: in.Op, addr: addr,
			data: Value{Bits: data.Bits, Null: null}, ev: f.ev,
		}
		e.outQ.Push(m)
	case in.Op.IsBranch():
		m := e.core.newOPNMsg()
		*m = opnMsg{
			dst: gtCoord(), kind: opnBranch,
			slot: f.slot, seq: f.seq, thread: f.thread,
			brOp: in.Op, brExit: in.Exit, brOffset: in.Offset,
			val: f.result, ev: f.ev,
		}
		e.outQ.Push(m)
	default:
		e.emitValue(now, f, in.T0, f.result, f.ev)
		e.emitValue(now, f, in.T1, f.result, f.ev)
	}
}

// emitValue routes one result value to one target: same-ET targets use the
// local bypass path (back-to-back issue); everything else crosses the OPN.
func (e *etTile) emitValue(now int64, f inflight, tgt isa.Target, v Value, ev critpath.Event) {
	if !tgt.Valid() {
		return
	}
	if tgt.IsWrite() {
		m := e.core.newOPNMsg()
		*m = opnMsg{
			dst: rtCoord(isa.RTOf(tgt.Index)), kind: opnOperand,
			slot: f.slot, seq: f.seq, thread: f.thread,
			target: tgt, val: v, ev: ev,
		}
		e.outQ.Push(m)
		return
	}
	if isa.ETOf(tgt.Index) == e.id {
		e.LocalBypass++
		e.deliverOperand(f.slot, f.seq, tgt, v, ev)
		return
	}
	e.Remote++
	m := e.core.newOPNMsg()
	*m = opnMsg{
		dst: etCoord(isa.ETOf(tgt.Index)), kind: opnOperand,
		slot: f.slot, seq: f.seq, thread: f.thread,
		target: tgt, val: v, ev: ev,
	}
	e.outQ.Push(m)
}

// drainOutQ injects pending OPN messages, respecting the single injection
// register per node (injection stalls are OPN contention).
func (e *etTile) drainOutQ(now int64) {
	for !e.outQ.Empty() {
		msg := e.outQ.Front()
		if e.slotSeq[msg.slot] != msg.seq {
			e.outQ.Pop()
			continue // flushed while waiting
		}
		if !e.core.injectOPN(e.at, msg) {
			return // retry next cycle; waits accumulate on the message
		}
		e.outQ.Pop()
	}
}

// flush clears a frame's stations and drops its queued output.
func (e *etTile) flush(slot int, seq uint64) {
	if e.slotSeq[slot] != seq {
		return
	}
	e.wake()
	e.stations[slot] = [isa.SlotsPerET]station{}
	e.pending[slot] = 0
	e.readyMask[slot] = 0
	e.slotSeq[slot] = 0
	e.outQ.Filter(func(m *opnMsg) bool {
		return !(m.slot == slot && m.seq == seq)
	})
	keptPipe := e.pipe[:0]
	for _, f := range e.pipe {
		if !(f.slot == slot && f.seq == seq) {
			keptPipe = append(keptPipe, f)
		}
	}
	e.pipe = keptPipe
}

// onCommit clears any remaining speculative state for the committing frame
// ("The commit command on the GCN also flushes any speculative in-flight
// state in the ETs and DTs for that block", paper Section 4.4).
func (e *etTile) onCommit(slot int, seq uint64) {
	e.flush(slot, seq)
}
