package proc

import (
	"trips/internal/critpath"
	"trips/internal/isa"
	"trips/internal/micronet"
)

// readEntry is one read-queue slot: a header read instruction awaiting
// resolution (paper Section 3.3, Figure 4c).
type readEntry struct {
	valid    bool
	done     bool
	gr       int
	rt0, rt1 isa.Target
	arrEv    critpath.Event
	// waiting: the read is buffered on a pending write of an older block.
	waiting  bool
	waitSlot int
	waitSeq  uint64
	waitIdx  int
	// unresolved: not yet processed (older headers incomplete).
	unresolved bool
}

// writeEntry is one write-queue slot: an expected block register output.
type writeEntry struct {
	valid bool // expected (from the header)
	gr    int
	have  bool // value arrived from the OPN
	val   Value
	ev    critpath.Event
}

// rtTile is one of the four register tiles: a 32-register architectural
// bank per SMT thread, plus per-frame read and write queues that perform
// the work of register renaming by forwarding register writes dynamically
// to subsequent blocks' reads (paper Section 3.3).
type rtTile struct {
	core *Core
	id   int
	at   micronet.Coord

	regs [NumThreads][32]uint64

	readQ      [NumSlots][8]readEntry
	writeQ     [NumSlots][8]writeEntry
	slotSeq    [NumSlots]uint64
	slotThread [NumSlots]int
	hdrBeats   [NumSlots]uint8          // header beats received (8 = complete)
	hdrEv      [NumSlots]critpath.Event // last header beat arrival

	// Block completion tracking (GSN finish-R daisy chain).
	finishOwn    [NumSlots]bool
	finishEast   [NumSlots]bool
	finishOwnEv  [NumSlots]critpath.Event
	finishEastEv [NumSlots]critpath.Event
	finishSent   [NumSlots]bool

	// Commit tracking (GCN command + drain + GSN ack daisy chain).
	committing [NumSlots]bool
	drainIdx   [NumSlots]int
	commitEv   [NumSlots]critpath.Event
	ackOwn     [NumSlots]bool
	ackEast    [NumSlots]bool
	ackOwnEv   [NumSlots]critpath.Event
	ackEastEv  [NumSlots]critpath.Event
	ackSent    [NumSlots]bool

	outQ micronet.Queue[*opnMsg]

	// missingWrites counts, per frame, expected writes whose values have not
	// arrived: incremented as header beats announce write-queue entries,
	// decremented on delivery. Zero (with a complete header) is exactly the
	// writesComplete condition, so the per-tick completion scan reduces to a
	// counter compare; the event-chain walk runs once, at the completion
	// instant.
	missingWrites [NumSlots]int

	// unresolved counts read-queue entries in bound frames that are valid,
	// not done and awaiting resolution — the only entries the per-tick
	// resolve scan can act on. Zero lets tick and idleNow skip the 8x8
	// read-queue walk; the counter is adjusted at every transition
	// (header arrival, resolution, nullified-write re-open, flush re-open)
	// and purged when a frame is unbound.
	unresolved int

	// active registers pending work with the core's stepping fast path: set
	// by every wake (dispatch binding, header/write delivery, commit command,
	// flush), cleared by tick when no slot has resolvable or sendable work.
	// Waiting reads and incomplete write sets only change on deliveries, so
	// an idle tile's tick would be a no-op.
	active bool

	// Stats.
	ReadsForwarded, ReadsFromFile, ReadsBuffered, NullWrites uint64
}

func newRT(core *Core, id int) *rtTile {
	return &rtTile{core: core, id: id, at: rtCoord(id)}
}

// slotUnresolved counts slot s's read entries awaiting resolution.
func (r *rtTile) slotUnresolved(s int) int {
	n := 0
	for i := range r.readQ[s] {
		e := &r.readQ[s][i]
		if e.valid && !e.done && e.unresolved {
			n++
		}
	}
	return n
}

func (r *rtTile) bindSlot(slot int, seq uint64, thread int) {
	r.active = true
	if r.slotSeq[slot] != 0 {
		r.unresolved -= r.slotUnresolved(slot)
	}
	r.readQ[slot] = [8]readEntry{}
	r.writeQ[slot] = [8]writeEntry{}
	r.slotSeq[slot] = seq
	r.slotThread[slot] = thread
	r.missingWrites[slot] = 0
	r.hdrBeats[slot] = 0
	r.hdrEv[slot] = critpath.Event{}
	r.finishOwn[slot] = false
	r.finishEast[slot] = false
	r.finishOwnEv[slot] = critpath.Event{}
	r.finishEastEv[slot] = critpath.Event{}
	r.finishSent[slot] = false
	r.committing[slot] = false
	r.drainIdx[slot] = 0
	r.commitEv[slot] = critpath.Event{}
	r.ackOwn[slot] = false
	r.ackEast[slot] = false
	r.ackOwnEv[slot] = critpath.Event{}
	r.ackEastEv[slot] = critpath.Event{}
	r.ackSent[slot] = false
}

// deliverHeaderBeat installs up to one read and one write entry (beat b
// carries queue index b of each) and marks beat progress. A block with no
// valid entry at an index still counts the beat. The caller
// (Core.runEvent) has woken the tile and checked the frame.
func (r *rtTile) deliverHeaderBeat(slot, beat int, rd isa.ReadInst, wr isa.WriteInst, ev critpath.Event) {
	if rd.Valid {
		r.readQ[slot][beat] = readEntry{
			valid: true, gr: rd.GR, rt0: rd.RT0, rt1: rd.RT1,
			arrEv: ev, unresolved: true,
		}
		r.unresolved++
	}
	if wr.Valid {
		r.writeQ[slot][beat] = writeEntry{valid: true, gr: wr.GR}
		r.missingWrites[slot]++
	}
	r.hdrBeats[slot]++
	r.hdrEv[slot] = critpath.Latest(r.hdrEv[slot], ev)
}

// olderHeadersComplete reports whether every older in-flight block of the
// same thread has delivered its full header to this RT — the condition for
// a read to safely search the write queues.
func (r *rtTile) olderHeadersComplete(seq uint64, thread int) bool {
	for s := 0; s < NumSlots; s++ {
		if r.slotSeq[s] == 0 || r.slotSeq[s] >= seq || r.slotThread[s] != thread {
			continue
		}
		if r.hdrBeats[s] < 8 {
			return false
		}
	}
	return true
}

// resolveRead implements the distributed register-read protocol of Section
// 4.2: search the write queues of all older in-flight blocks for a matching
// write; forward its value if present, buffer the read if pending, or read
// the architectural file.
func (r *rtTile) resolveRead(now int64, slot int, e *readEntry) {
	seq := r.slotSeq[slot]
	thread := r.slotThread[slot]
	if !r.olderHeadersComplete(seq, thread) {
		return // retry next cycle
	}
	e.unresolved = false
	r.unresolved--
	// Youngest older matching write wins. Writes that arrived nullified do
	// not modify the register, so the search continues past them.
	var bestSlot, bestIdx int
	var bestSeq uint64
	found := false
	for s := 0; s < NumSlots; s++ {
		sSeq := r.slotSeq[s]
		if sSeq == 0 || sSeq >= seq || r.slotThread[s] != thread {
			continue
		}
		for i := range r.writeQ[s] {
			w := &r.writeQ[s][i]
			if !w.valid || w.gr != e.gr {
				continue
			}
			if w.have && w.val.Null {
				continue // nullified: register unchanged by that block
			}
			if !found || sSeq > bestSeq {
				bestSlot, bestIdx, bestSeq, found = s, i, sSeq, true
			}
		}
	}
	if !found {
		r.ReadsFromFile++
		v := Value{Bits: r.regs[thread][e.gr/4]}
		ev := r.core.newEvent(now, e.arrEv, critpath.Split{}, critpath.CatIFetch)
		r.sendReadValue(slot, seq, thread, e, v, ev)
		e.done = true
		return
	}
	w := &r.writeQ[bestSlot][bestIdx]
	if w.have {
		r.ReadsForwarded++
		ev := r.core.newEvent(now, critpath.Latest(e.arrEv, w.ev), critpath.Split{}, critpath.CatOther)
		r.sendReadValue(slot, seq, thread, e, w.val, ev)
		e.done = true
		return
	}
	// Buffer: woken by a tag broadcast when the write's value arrives
	// (paper Section 4.2).
	r.ReadsBuffered++
	e.waiting = true
	e.waitSlot = bestSlot
	e.waitSeq = bestSeq
	e.waitIdx = bestIdx
}

func (r *rtTile) sendReadValue(slot int, seq uint64, thread int, e *readEntry, v Value, ev critpath.Event) {
	for _, tgt := range []isa.Target{e.rt0, e.rt1} {
		if !tgt.Valid() {
			continue
		}
		var dst micronet.Coord
		if tgt.IsWrite() {
			dst = rtCoord(isa.RTOf(tgt.Index))
		} else {
			dst = etCoord(isa.ETOf(tgt.Index))
		}
		m := r.core.newOPNMsg()
		*m = opnMsg{
			dst: dst, kind: opnOperand, slot: slot, seq: seq, thread: thread,
			target: tgt, val: v, ev: ev,
		}
		r.outQ.Push(m)
	}
}

// deliverWrite receives a block output value for write-queue entry j.
func (r *rtTile) deliverWrite(now int64, slot int, seq uint64, idx int, v Value, ev critpath.Event) {
	r.active = true
	if r.slotSeq[slot] != seq {
		return
	}
	w := &r.writeQ[slot][idx]
	if !w.valid || w.have {
		return // unexpected or duplicate (complementary-path nullification)
	}
	w.have = true
	w.val = v
	w.ev = ev
	r.missingWrites[slot]--
	if v.Null {
		r.NullWrites++
	}
	// Wake buffered reads waiting on this write.
	for s := 0; s < NumSlots; s++ {
		for i := range r.readQ[s] {
			e := &r.readQ[s][i]
			if !e.valid || e.done || !e.waiting {
				continue
			}
			if e.waitSlot != slot || e.waitSeq != seq || e.waitIdx != idx {
				continue
			}
			if v.Null {
				// The write turned out to be nullified: the register is
				// unchanged by that block; re-resolve against older state.
				e.waiting = false
				e.unresolved = true
				r.unresolved++
				continue
			}
			readerSeq := r.slotSeq[s]
			readerThread := r.slotThread[s]
			fwdEv := r.core.newEvent(now, critpath.Latest(e.arrEv, ev), critpath.Split{}, critpath.CatOther)
			r.sendReadValue(s, readerSeq, readerThread, e, v, fwdEv)
			e.waiting = false
			e.done = true
		}
	}
}

// writesComplete reports whether every expected write for the frame has
// arrived.
func (r *rtTile) writesComplete(slot int) (bool, critpath.Event) {
	var last critpath.Event
	for i := range r.writeQ[slot] {
		w := &r.writeQ[slot][i]
		if !w.valid {
			continue
		}
		if !w.have {
			return false, critpath.Event{}
		}
		last = critpath.Latest(last, w.ev)
	}
	return true, last
}

// tick runs one RT cycle.
func (r *rtTile) tick(now int64) {
	// Resolve newly arrived or re-opened reads.
	if r.unresolved > 0 {
		for s := 0; s < NumSlots; s++ {
			if r.slotSeq[s] == 0 || r.slotUnresolved(s) == 0 {
				continue
			}
			for i := range r.readQ[s] {
				e := &r.readQ[s][i]
				if e.valid && !e.done && e.unresolved {
					r.resolveRead(now, s, e)
				}
			}
		}
	}
	// Block-completion detection: all header beats in, all writes arrived.
	for s := 0; s < NumSlots; s++ {
		if r.slotSeq[s] == 0 || r.finishSent[s] || r.hdrBeats[s] < 8 {
			continue
		}
		if !r.finishOwn[s] && r.missingWrites[s] == 0 {
			_, ev := r.writesComplete(s)
			r.finishOwn[s] = true
			r.finishOwnEv[s] = r.core.newEvent(now, critpath.Latest(ev, r.hdrEv[s]), critpath.Split{}, critpath.CatComplete)
		}
		// Daisy chain: forward when own writes are done and the east
		// neighbor (RT id+1) has reported; RT3 is the chain tail.
		if r.finishOwn[s] && (r.id == isa.NumRTs-1 || r.finishEast[s]) {
			if r.core.gsnRT.CanSend(r.id + 1) {
				ev := r.core.newEvent(now, critpath.Latest(r.finishOwnEv[s], r.finishEastEv[s]), critpath.Split{}, critpath.CatComplete)
				r.core.gsnRT.Send(r.id+1, gsnMsg{kind: gsnFinishR, slot: uint8(s), seq: r.slotSeq[s], ev: ev})
				r.finishSent[s] = true
			}
		}
	}
	// Commit: drain one register per cycle (one write port per bank).
	drainBudget := rtDrainPerCycle
	for s := 0; s < NumSlots; s++ {
		if !r.committing[s] || r.ackSent[s] {
			continue
		}
		if !r.ackOwn[s] {
			if r.remainingDrains(s) > 0 {
				if drainBudget == 0 {
					continue
				}
				drainBudget--
			}
			if r.drainCommit(s) {
				r.ackOwn[s] = true
				r.ackOwnEv[s] = r.core.newEvent(now, r.commitEv[s], critpath.Split{}, critpath.CatCommit)
			}
		}
		if r.ackOwn[s] && (r.id == isa.NumRTs-1 || r.ackEast[s]) {
			if r.core.gsnRT.CanSend(r.id + 1) {
				ev := r.core.newEvent(now, critpath.Latest(r.ackOwnEv[s], r.ackEastEv[s]), critpath.Split{}, critpath.CatCommit)
				r.core.gsnRT.Send(r.id+1, gsnMsg{kind: gsnAckR, slot: uint8(s), seq: r.slotSeq[s], ev: ev})
				r.ackSent[s] = true
				// Frame released at this tile.
				r.unresolved -= r.slotUnresolved(s)
				r.slotSeq[s] = 0
			}
		}
	}
	// Forward GSN messages from the east neighbor.
	r.pumpGSN(now)
	r.drainOutQ()
	r.active = !r.idleNow()
}

// idleNow reports whether another tick with no intervening delivery would be
// a no-op: nothing queued for the OPN, no unresolved reads to retry, no
// pending finish forward and no in-progress commit drain. Buffered reads and
// incomplete header/write sets advance only on deliveries, which re-set
// active.
func (r *rtTile) idleNow() bool {
	if !r.outQ.Empty() || r.unresolved > 0 {
		return false
	}
	for s := 0; s < NumSlots; s++ {
		if r.slotSeq[s] == 0 {
			continue
		}
		if r.committing[s] && !r.ackSent[s] {
			return false
		}
		if r.finishOwn[s] && !r.finishSent[s] {
			return false
		}
	}
	return true
}

// drainCommit writes one pending register per call; returns true when the
// frame is fully drained.
func (r *rtTile) drainCommit(s int) bool {
	thread := r.slotThread[s]
	for ; r.drainIdx[s] < 8; r.drainIdx[s]++ {
		w := &r.writeQ[s][r.drainIdx[s]]
		if !w.valid || w.val.Null {
			continue
		}
		r.regs[thread][w.gr/4] = w.val.Bits
		r.drainIdx[s]++
		return r.remainingDrains(s) == 0
	}
	return true
}

func (r *rtTile) remainingDrains(s int) int {
	n := 0
	for i := r.drainIdx[s]; i < 8; i++ {
		w := &r.writeQ[s][i]
		if w.valid && !w.val.Null {
			n++
		}
	}
	return n
}

// pumpGSN consumes chain messages arriving from the east neighbor.
func (r *rtTile) pumpGSN(now int64) {
	node := r.id + 1
	if node >= r.core.gsnRT.N-1 {
		return // RT3 has no east neighbor on the chain
	}
	msg, ok := r.core.gsnRT.Recv(node)
	if !ok {
		return
	}
	switch msg.kind {
	case gsnFinishR:
		if r.slotSeq[msg.slot] == msg.seq {
			r.finishEast[msg.slot] = true
			r.finishEastEv[msg.slot] = r.core.newEvent(now, msg.ev, critpath.Split{}, critpath.CatComplete)
		}
	case gsnAckR:
		if r.slotSeq[msg.slot] == msg.seq {
			r.ackEast[msg.slot] = true
			r.ackEastEv[msg.slot] = r.core.newEvent(now, msg.ev, critpath.Split{}, critpath.CatCommit)
		}
	}
	r.core.gsnRT.Pop(node)
}

// onCommitCommand begins architectural commit for a frame.
func (r *rtTile) onCommitCommand(now int64, slot int, seq uint64, ev critpath.Event) {
	r.active = true
	if r.slotSeq[slot] != seq {
		return
	}
	r.committing[slot] = true
	r.drainIdx[slot] = 0
	r.commitEv[slot] = r.core.newEvent(now, ev, critpath.Split{}, critpath.CatCommit)
}

// flush clears a frame.
func (r *rtTile) flush(slot int, seq uint64) {
	if r.slotSeq[slot] != seq {
		return
	}
	r.active = true
	r.unresolved -= r.slotUnresolved(slot)
	r.slotSeq[slot] = 0
	r.outQ.Filter(func(m *opnMsg) bool {
		return !(m.slot == slot && m.seq == seq)
	})
	// Buffered reads of younger blocks waiting on this frame's writes must
	// re-resolve.
	for s := 0; s < NumSlots; s++ {
		if r.slotSeq[s] == 0 {
			continue
		}
		for i := range r.readQ[s] {
			e := &r.readQ[s][i]
			if e.valid && !e.done && e.waiting && e.waitSeq == seq {
				e.waiting = false
				e.unresolved = true
				r.unresolved++
			}
		}
	}
}

func (r *rtTile) drainOutQ() {
	for !r.outQ.Empty() {
		msg := r.outQ.Front()
		if r.slotSeq[msg.slot] != msg.seq {
			r.outQ.Pop()
			continue
		}
		if !r.core.injectOPN(r.at, msg) {
			return
		}
		r.outQ.Pop()
	}
}
