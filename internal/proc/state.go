package proc

import (
	"fmt"
	"sort"

	"trips/internal/ckpt"
	"trips/internal/critpath"
	"trips/internal/isa"
	"trips/internal/lsq"
	"trips/internal/micronet"
	"trips/internal/predictor"
)

// Checkpoint support. SaveState serializes every piece of mutable simulated
// state — tiles, micronets, the event wheel, in-flight messages — into a
// ckpt.Writer at a cycle boundary; LoadState restores it into any core
// constructed with an identical Config, whether freshly built or one that
// has already run (eval.RunSampled restores interval after interval into
// one machine per worker). LoadState must therefore overwrite every field
// that shapes simulated behavior, not only those a fresh core leaves
// nonzero: restoring frame i into a core that ran elsewhere and saving
// again yields frame i byte for byte, and the run that follows equals the
// fresh-core run (eval.TestRestoreIntoDirtyMachine,
// eval.TestRecycledIntervalsMatchFreshRestore). Host-side telemetry
// (TileTicks, TileSkips, SteppedCycles) is not simulated state and keeps
// counting across restores. Critical-path events are host-side
// observability outside the frame format: SaveState refuses when
// TrackCritPath is enabled. Pools (opnMsg, dtFetch) are not restored —
// pooling is invisible to simulated state.

// ---------------------------------------------------------------------------
// Value / isa codecs
// ---------------------------------------------------------------------------

func encValue(w *ckpt.Writer, v Value) {
	w.U64(v.Bits)
	w.Bool(v.Null)
}

func decValue(r *ckpt.Reader) Value {
	return Value{Bits: r.U64(), Null: r.Bool()}
}

func encTarget(w *ckpt.Writer, t isa.Target) {
	w.Int(t.Index)
	w.U8(uint8(t.Kind))
}

func decTarget(r *ckpt.Reader) isa.Target {
	return isa.Target{Index: r.Int(), Kind: isa.OperandKind(r.U8())}
}

func encInst(w *ckpt.Writer, in *isa.Inst) {
	w.U8(uint8(in.Op))
	w.U8(uint8(in.Pred))
	encTarget(w, in.T0)
	encTarget(w, in.T1)
	w.I64(in.Imm)
	w.Int(in.LSID)
	w.Int(in.Exit)
	w.I64(int64(in.Offset))
}

func decInst(r *ckpt.Reader) isa.Inst {
	var in isa.Inst
	in.Op = isa.Opcode(r.U8())
	in.Pred = isa.PredMode(r.U8())
	in.T0 = decTarget(r)
	in.T1 = decTarget(r)
	in.Imm = r.I64()
	in.LSID = r.Int()
	in.Exit = r.Int()
	in.Offset = int32(r.I64())
	return in
}

func encReadInst(w *ckpt.Writer, rd isa.ReadInst) {
	w.Bool(rd.Valid)
	w.Int(rd.GR)
	encTarget(w, rd.RT0)
	encTarget(w, rd.RT1)
}

func decReadInst(r *ckpt.Reader) isa.ReadInst {
	var rd isa.ReadInst
	rd.Valid = r.Bool()
	rd.GR = r.Int()
	rd.RT0 = decTarget(r)
	rd.RT1 = decTarget(r)
	return rd
}

func encWriteInst(w *ckpt.Writer, wr isa.WriteInst) {
	w.Bool(wr.Valid)
	w.Int(wr.GR)
}

func decWriteInst(r *ckpt.Reader) isa.WriteInst {
	return isa.WriteInst{Valid: r.Bool(), GR: r.Int()}
}

func encHeaderInfo(w *ckpt.Writer, h *isa.HeaderInfo) {
	w.Bool(h != nil)
	if h == nil {
		return
	}
	w.U32(h.StoreMask)
	w.U8(uint8(h.Flags))
	w.Int(h.BodyChunks)
	w.Int(h.NumInsts)
	for i := range h.Reads {
		encReadInst(w, h.Reads[i])
	}
	for i := range h.Writes {
		encWriteInst(w, h.Writes[i])
	}
}

func decHeaderInfo(r *ckpt.Reader) *isa.HeaderInfo {
	if !r.Bool() {
		return nil
	}
	h := &isa.HeaderInfo{}
	h.StoreMask = r.U32()
	h.Flags = isa.BlockFlags(r.U8())
	h.BodyChunks = r.Int()
	h.NumInsts = r.Int()
	for i := range h.Reads {
		h.Reads[i] = decReadInst(r)
	}
	for i := range h.Writes {
		h.Writes[i] = decWriteInst(r)
	}
	return h
}

// ---------------------------------------------------------------------------
// Message codecs. Critical-path event fields restore as the zero event
// (SaveState refuses under TrackCritPath).
// ---------------------------------------------------------------------------

func encCoord(w *ckpt.Writer, at micronet.Coord) {
	w.Int(at.Row)
	w.Int(at.Col)
}

func decCoord(r *ckpt.Reader) micronet.Coord {
	return micronet.Coord{Row: r.Int(), Col: r.Int()}
}

func encOPNMsg(w *ckpt.Writer, m *opnMsg) {
	encCoord(w, m.dst)
	w.U8(uint8(m.kind))
	w.Int(m.slot)
	w.U64(m.seq)
	w.Int(m.thread)
	encTarget(w, m.target)
	encValue(w, m.val)
	w.U8(uint8(m.brOp))
	w.Int(m.brExit)
	w.I64(int64(m.brOffset))
	w.Int(m.lsid)
	w.U8(uint8(m.memOp))
	w.U64(m.addr)
	encValue(w, m.data)
	encTarget(w, m.ldT0)
	encTarget(w, m.ldT1)
	w.Int(m.hops)
	w.Int(m.waits)
	w.U64(m.tid)
}

func decOPNMsg(r *ckpt.Reader) *opnMsg {
	m := &opnMsg{}
	m.dst = decCoord(r)
	m.kind = opnKind(r.U8())
	m.slot = r.Int()
	m.seq = r.U64()
	m.thread = r.Int()
	m.target = decTarget(r)
	m.val = decValue(r)
	m.brOp = isa.Opcode(r.U8())
	m.brExit = r.Int()
	m.brOffset = int32(r.I64())
	m.lsid = r.Int()
	m.memOp = isa.Opcode(r.U8())
	m.addr = r.U64()
	m.data = decValue(r)
	m.ldT0 = decTarget(r)
	m.ldT1 = decTarget(r)
	m.hops = r.Int()
	m.waits = r.Int()
	m.tid = r.U64()
	r.NoteID(m.tid)
	return m
}

func encGSNMsg(w *ckpt.Writer, m gsnMsg) {
	w.U8(uint8(m.kind))
	w.U8(m.slot)
	w.U64(m.seq)
}

func decGSNMsg(r *ckpt.Reader) gsnMsg {
	var m gsnMsg
	m.kind = gsnKind(r.U8())
	m.slot = decSlot(r)
	m.seq = r.U64()
	return m
}

// decSlot reads a block frame index, failing the reader when it names no
// frame.
func decSlot(r *ckpt.Reader) uint8 {
	s := r.U8()
	if s >= NumSlots {
		r.Failf("block frame %d out of range", s)
		return 0
	}
	return s
}

func encGCNMsg(w *ckpt.Writer, m gcnMsg) {
	w.U8(uint8(m.kind))
	w.Int(m.slot)
	w.U64(m.seq)
	w.U8(m.mask)
	for _, s := range m.seqs {
		w.U64(s)
	}
}

func decGCNMsg(r *ckpt.Reader) gcnMsg {
	var m gcnMsg
	m.kind = gcnKind(r.U8())
	if m.slot = r.Int(); m.slot < 0 || m.slot >= NumSlots {
		r.Failf("GCN command frame %d out of range", m.slot)
		m.slot = 0
	}
	m.seq = r.U64()
	m.mask = r.U8()
	for i := range m.seqs {
		m.seqs[i] = r.U64()
	}
	return m
}

// saveWaves writes the GCN wave ring's live commands, oldest first; the
// network and the launch queue then carry only wave ids.
func (c *Core) saveWaves(w *ckpt.Writer) {
	w.Section("gcn-waves")
	w.U8(uint8(c.waveHead))
	w.U8(uint8(c.waveCount))
	for k := 0; k < c.waveCount; k++ {
		encGCNMsg(w, c.waves[(c.waveHead+k)%gcnRingSize])
	}
}

func (c *Core) loadWaves(r *ckpt.Reader) {
	r.Section("gcn-waves")
	head, count := int(r.U8()), int(r.U8())
	if head >= gcnRingSize || count > gcnRingSize {
		r.Failf("GCN wave ring head %d / count %d out of range", head, count)
		return
	}
	c.waveHead, c.waveCount = head, count
	c.waves = [gcnRingSize]gcnMsg{}
	for k := 0; k < count; k++ {
		c.waves[(head+k)%gcnRingSize] = decGCNMsg(r)
	}
}

func encGCNWave(w *ckpt.Writer, id gcnWave) { w.U8(uint8(id)) }

// decGCNWave reads a wave id, which must name a live ring entry (loadWaves
// runs first).
func (c *Core) decGCNWave(r *ckpt.Reader) gcnWave {
	id := int(r.U8())
	if (id-c.waveHead+gcnRingSize)%gcnRingSize >= c.waveCount {
		r.Failf("GCN wave %d is not in flight", id)
		return 0
	}
	return gcnWave(id)
}

func encDSNMsg(w *ckpt.Writer, m dsnMsg) {
	w.U8(m.slot)
	w.U8(m.lsid)
	w.U64(m.seq)
}

func decDSNMsg(r *ckpt.Reader) dsnMsg {
	return dsnMsg{slot: decSlot(r), lsid: r.U8(), seq: r.U64()}
}

// ---------------------------------------------------------------------------
// MemRequest codec. Exported because memory backends (FixedLatencyMem, the
// NUCA system) hold queued *MemRequests and must serialize them.
// ---------------------------------------------------------------------------

// EncodeMemRequest serializes one in-flight memory transaction, including
// the origin descriptor that lets a resolver rebuild its Done callback.
func EncodeMemRequest(w *ckpt.Writer, req *MemRequest) {
	w.U64(req.Addr)
	w.Int(req.N)
	w.Bool(req.IsWrite)
	w.Bool(req.Data != nil)
	if req.Data != nil {
		w.Bytes(req.Data)
	}
	w.U8(uint8(req.Origin.Kind))
	w.Int(req.Origin.Tile)
	if req.Origin.Kind == OriginDTUncachedLoad {
		encOPNMsg(w, req.Origin.msg)
	}
}

// DecodeMemRequest reverses EncodeMemRequest and, when res is non-nil,
// rebuilds the request's Done callback from its origin.
func DecodeMemRequest(r *ckpt.Reader, res OriginResolver) *MemRequest {
	req := &MemRequest{}
	req.Addr = r.U64()
	req.N = r.Int()
	req.IsWrite = r.Bool()
	if r.Bool() {
		req.Data = r.Bytes()
	}
	req.Origin.Kind = OriginKind(r.U8())
	req.Origin.Tile = r.Int()
	if req.Origin.Kind == OriginDTUncachedLoad {
		req.Origin.msg = decOPNMsg(r)
	}
	if res != nil && req.Origin.Kind != OriginNone {
		res.ResolveOrigin(req)
	}
	return req
}

// ResolveOrigin implements OriginResolver for tile-issued requests: it
// rebuilds the Done callback a live request would carry, referencing the
// restored tile state. DMA origins are resolved by the chip's wrapper.
func (c *Core) ResolveOrigin(req *MemRequest) {
	switch req.Origin.Kind {
	case OriginDTFetch:
		d := c.dts[req.Origin.Tile]
		line := req.Addr
		req.Done = func(data []byte) {
			d.wake()
			d.fillLine(line, data)
		}
	case OriginDTUncachedLoad:
		d := c.dts[req.Origin.Tile]
		msg := req.Origin.msg
		req.Done = func(data []byte) {
			d.wake()
			if d.slotSeq[msg.slot] != msg.seq {
				return
			}
			var v uint64
			for i := len(data) - 1; i >= 0; i-- {
				v = v<<8 | uint64(data[i])
			}
			d.replyLoad(d.core.cycle+1, msg, Value{Bits: extendValue(v, msg.memOp)}, critpath.Event{})
		}
	case OriginDTUncachedStore:
		d := c.dts[req.Origin.Tile]
		if d.drainOrder.Len() == 0 || len(d.drains[d.drainOrder.Front()]) == 0 {
			panic("proc: restore: uncached-store request with no head drain entry")
		}
		st := d.drains[d.drainOrder.Front()][0]
		req.Done = func([]byte) {
			d.wake()
			d.uncachedSt[st] = 2
		}
	case OriginITRefill:
		it := c.its[req.Origin.Tile]
		blockAddr := req.Addr - uint64(it.id)*isa.ChunkBytes
		req.Done = func(data []byte) {
			it.active = true
			it.chunks[blockAddr] = &itChunk{raw: data}
			if st := it.refills[blockAddr]; st != nil {
				st.ownDone = true
			}
		}
	}
}

// ---------------------------------------------------------------------------
// pendingLoad codec (DT queues and MSHR waiters).
// ---------------------------------------------------------------------------

func encPendingLoad(w *ckpt.Writer, pl *pendingLoad) {
	encOPNMsg(w, pl.msg)
	w.I64(pl.readyAt)
	w.Bool(pl.waiting)
}

func decPendingLoad(r *ckpt.Reader) *pendingLoad {
	return &pendingLoad{msg: decOPNMsg(r), readyAt: r.I64(), waiting: r.Bool()}
}

func encPendingLoads(w *ckpt.Writer, s []*pendingLoad) {
	w.Int(len(s))
	for _, pl := range s {
		encPendingLoad(w, pl)
	}
}

func decPendingLoads(r *ckpt.Reader) []*pendingLoad {
	n := r.Int()
	if r.Err() != nil || n == 0 {
		return nil
	}
	s := make([]*pendingLoad, 0, n)
	for i := 0; i < n; i++ {
		s = append(s, decPendingLoad(r))
	}
	return s
}

// ---------------------------------------------------------------------------
// Event wheel
// ---------------------------------------------------------------------------

// encSchedEvent writes one wheel event. GDN beats write the payload entry
// they deliver in place of the index alone, so the frame carries each
// pending instruction and header entry once.
func (c *Core) encSchedEvent(w *ckpt.Writer, e *schedEvent) {
	w.U8(uint8(e.kind))
	w.Int(int(e.slot))
	w.U64(e.seq)
	w.Int(int(e.idx))
	switch e.kind {
	case evBodyInst:
		w.Int(int(e.tile))
		encInst(w, &c.payload[e.slot].insts[e.idx])
	case evHeaderBeat:
		j := int(e.idx)*isa.NumRTs + int(e.tile)
		w.Int(int(e.tile))
		encReadInst(w, c.payload[e.slot].reads[j])
		encWriteInst(w, c.payload[e.slot].writes[j])
	case evStoreMask:
		w.Int(int(e.tile))
		w.U32(e.mask)
	case evRefill:
		w.Int(int(e.tile))
	case evSlowOPN:
		encCoord(w, e.at)
		encOPNMsg(w, e.msg)
	}
}

// decSchedEvent reads one wheel event and puts a GDN beat's entry back into
// its frame's payload. Stale beats of a flushed block precede the live
// beats for the same position (both run the same dispatch schedule, the
// stale one from an earlier cycle), so the wheel-order restore leaves every
// position holding the live block's entry.
func (c *Core) decSchedEvent(r *ckpt.Reader) (schedEvent, bool) {
	var e schedEvent
	e.kind = evKind(r.U8())
	slot := r.Int()
	e.seq = r.U64()
	idx := r.Int()
	if r.Err() != nil {
		return e, false
	}
	if slot < 0 || slot >= NumSlots || idx < 0 || idx >= isa.MaxBlockInsts {
		r.Failf("sched event slot %d / index %d out of range", slot, idx)
		return e, false
	}
	e.slot, e.idx = uint8(slot), uint8(idx)
	tile := func(n int) bool {
		id := r.Int()
		if id < 0 || id >= n {
			r.Failf("sched event kind %d tile %d out of range", e.kind, id)
			return false
		}
		e.tile = uint8(id)
		return true
	}
	p := &c.payload[slot]
	switch e.kind {
	case evBodyInst:
		if !tile(len(c.ets)) {
			return e, false
		}
		p.insts[idx] = decInst(r)
	case evHeaderBeat:
		if idx >= dispatchBeats {
			r.Failf("sched event header beat %d out of range", idx)
			return e, false
		}
		if !tile(len(c.rts)) {
			return e, false
		}
		j := idx*isa.NumRTs + int(e.tile)
		p.reads[j] = decReadInst(r)
		p.writes[j] = decWriteInst(r)
	case evStoreMask:
		if !tile(len(c.dts)) {
			return e, false
		}
		e.mask = r.U32()
	case evRefill:
		if !tile(len(c.its)) {
			return e, false
		}
	case evSlowOPN:
		e.at = decCoord(r)
		e.msg = decOPNMsg(r)
	default:
		r.Failf("sched event kind %d unknown", e.kind)
		return e, false
	}
	return e, r.Err() == nil
}

func (c *Core) saveWheel(w *ckpt.Writer) {
	w.Section("wheel")
	// At a cycle boundary every wheel slot holds events for cycles
	// c.cycle..c.cycle+wheelSize-1; serialize by delta so the restore is
	// independent of the absolute slot indices.
	for delta := int64(0); delta < wheelSize; delta++ {
		evs := c.wheel[(c.cycle+delta)&wheelMask]
		w.Int(len(evs))
		for i := range evs {
			c.encSchedEvent(w, &evs[i])
		}
	}
	cycles := make([]int64, 0, len(c.schedOverflow))
	for cyc := range c.schedOverflow {
		cycles = append(cycles, cyc)
	}
	sort.Slice(cycles, func(i, j int) bool { return cycles[i] < cycles[j] })
	w.Int(len(cycles))
	for _, cyc := range cycles {
		w.I64(cyc)
		evs := c.schedOverflow[cyc]
		w.Int(len(evs))
		for i := range evs {
			c.encSchedEvent(w, &evs[i])
		}
	}
}

func (c *Core) loadWheel(r *ckpt.Reader) {
	r.Section("wheel")
	for i := range c.wheel {
		c.wheel[i] = c.wheel[i][:0]
	}
	for delta := int64(0); delta < wheelSize; delta++ {
		n := r.Int()
		if r.Err() != nil {
			return
		}
		slot := &c.wheel[(c.cycle+delta)&wheelMask]
		for i := 0; i < n; i++ {
			e, ok := c.decSchedEvent(r)
			if !ok {
				return
			}
			*slot = append(*slot, e)
		}
	}
	c.schedOverflow = nil
	no := r.Int()
	if r.Err() != nil {
		return
	}
	if no > 0 {
		c.schedOverflow = make(map[int64][]schedEvent, no)
		for i := 0; i < no; i++ {
			cyc := r.I64()
			n := r.Int()
			if r.Err() != nil {
				return
			}
			evs := make([]schedEvent, 0, n)
			for j := 0; j < n; j++ {
				e, ok := c.decSchedEvent(r)
				if !ok {
					return
				}
				evs = append(evs, e)
			}
			c.schedOverflow[cyc] = evs
		}
	}
}

// ---------------------------------------------------------------------------
// ET
// ---------------------------------------------------------------------------

func encOperand(w *ckpt.Writer, op *operand) {
	w.Bool(op.have)
	encValue(w, op.v)
}

func decOperand(r *ckpt.Reader) operand {
	return operand{have: r.Bool(), v: decValue(r)}
}

func (e *etTile) saveState(w *ckpt.Writer) {
	w.Section("et")
	w.Int(e.id)
	for s := 0; s < NumSlots; s++ {
		for i := range e.stations[s] {
			st := &e.stations[s][i]
			w.Bool(st.present)
			w.Bool(st.fired)
			encInst(w, &st.inst)
			w.Int(st.index)
			encOperand(w, &st.left)
			encOperand(w, &st.right)
			encOperand(w, &st.pred)
		}
		w.U64(e.slotSeq[s])
		w.Int(e.slotThread[s])
		w.U8(uint8(e.pending[s]))
		w.U8(e.readyMask[s])
	}
	w.I64(e.divBusyUntil)
	w.Int(len(e.pipe))
	for i := range e.pipe {
		f := &e.pipe[i]
		w.I64(f.doneAt)
		w.Int(f.slot)
		w.U64(f.seq)
		w.Int(f.thread)
		pos := -1
		for p := range e.stations[f.slot] {
			if &e.stations[f.slot][p] == f.st {
				pos = p
				break
			}
		}
		if pos < 0 {
			panic("proc: checkpoint: ET pipe entry station not in its frame")
		}
		w.Int(pos)
		encValue(w, f.result)
	}
	e.outQ.SaveState(w, encOPNMsg)
	w.Bool(e.active)
	w.U64(e.Issued)
	w.U64(e.LocalBypass)
	w.U64(e.Remote)
	w.U64(e.DeadPred)
	w.U64(e.DroppedStale)
}

func (e *etTile) loadState(r *ckpt.Reader) {
	r.Section("et")
	if id := r.Int(); id != e.id && r.Err() == nil {
		r.Failf("ET id mismatch: saved %d, live %d", id, e.id)
		return
	}
	for s := 0; s < NumSlots; s++ {
		for i := range e.stations[s] {
			st := &e.stations[s][i]
			*st = station{}
			st.present = r.Bool()
			st.fired = r.Bool()
			st.inst = decInst(r)
			st.index = r.Int()
			st.left = decOperand(r)
			st.right = decOperand(r)
			st.pred = decOperand(r)
		}
		e.slotSeq[s] = r.U64()
		e.slotThread[s] = r.Int()
		e.pending[s] = int8(r.U8())
		e.readyMask[s] = r.U8()
	}
	e.divBusyUntil = r.I64()
	n := r.Int()
	if r.Err() != nil {
		return
	}
	e.pipe = e.pipe[:0]
	for i := 0; i < n; i++ {
		var f inflight
		f.doneAt = r.I64()
		f.slot = r.Int()
		f.seq = r.U64()
		f.thread = r.Int()
		pos := r.Int()
		if r.Err() != nil {
			return
		}
		if f.slot < 0 || f.slot >= NumSlots || pos < 0 || pos >= isa.SlotsPerET {
			r.Failf("ET pipe entry slot %d pos %d out of range", f.slot, pos)
			return
		}
		f.st = &e.stations[f.slot][pos]
		f.result = decValue(r)
		e.pipe = append(e.pipe, f)
	}
	e.outQ.LoadState(r, decOPNMsg)
	e.active = r.Bool()
	e.Issued = r.U64()
	e.LocalBypass = r.U64()
	e.Remote = r.U64()
	e.DeadPred = r.U64()
	e.DroppedStale = r.U64()
}

// ---------------------------------------------------------------------------
// RT
// ---------------------------------------------------------------------------

func (t *rtTile) saveState(w *ckpt.Writer) {
	w.Section("rt")
	w.Int(t.id)
	for th := range t.regs {
		for i := range t.regs[th] {
			w.U64(t.regs[th][i])
		}
	}
	for s := 0; s < NumSlots; s++ {
		for i := range t.readQ[s] {
			e := &t.readQ[s][i]
			w.Bool(e.valid)
			w.Bool(e.done)
			w.Int(e.gr)
			encTarget(w, e.rt0)
			encTarget(w, e.rt1)
			w.Bool(e.waiting)
			w.Int(e.waitSlot)
			w.U64(e.waitSeq)
			w.Int(e.waitIdx)
			w.Bool(e.unresolved)
		}
		for i := range t.writeQ[s] {
			we := &t.writeQ[s][i]
			w.Bool(we.valid)
			w.Int(we.gr)
			w.Bool(we.have)
			encValue(w, we.val)
		}
		w.U64(t.slotSeq[s])
		w.Int(t.slotThread[s])
		w.U8(t.hdrBeats[s])
		w.Bool(t.finishOwn[s])
		w.Bool(t.finishEast[s])
		w.Bool(t.finishSent[s])
		w.Bool(t.committing[s])
		w.Int(t.drainIdx[s])
		w.Bool(t.ackOwn[s])
		w.Bool(t.ackEast[s])
		w.Bool(t.ackSent[s])
		w.Int(t.missingWrites[s])
	}
	t.outQ.SaveState(w, encOPNMsg)
	w.Int(t.unresolved)
	w.Bool(t.active)
	w.U64(t.ReadsForwarded)
	w.U64(t.ReadsFromFile)
	w.U64(t.ReadsBuffered)
	w.U64(t.NullWrites)
}

func (t *rtTile) loadState(r *ckpt.Reader) {
	r.Section("rt")
	if id := r.Int(); id != t.id && r.Err() == nil {
		r.Failf("RT id mismatch: saved %d, live %d", id, t.id)
		return
	}
	for th := range t.regs {
		for i := range t.regs[th] {
			t.regs[th][i] = r.U64()
		}
	}
	for s := 0; s < NumSlots; s++ {
		for i := range t.readQ[s] {
			e := &t.readQ[s][i]
			*e = readEntry{}
			e.valid = r.Bool()
			e.done = r.Bool()
			e.gr = r.Int()
			e.rt0 = decTarget(r)
			e.rt1 = decTarget(r)
			e.waiting = r.Bool()
			e.waitSlot = r.Int()
			e.waitSeq = r.U64()
			e.waitIdx = r.Int()
			e.unresolved = r.Bool()
		}
		for i := range t.writeQ[s] {
			we := &t.writeQ[s][i]
			*we = writeEntry{}
			we.valid = r.Bool()
			we.gr = r.Int()
			we.have = r.Bool()
			we.val = decValue(r)
		}
		t.slotSeq[s] = r.U64()
		t.slotThread[s] = r.Int()
		t.hdrBeats[s] = r.U8()
		t.hdrEv[s] = critpath.Event{}
		t.finishOwn[s] = r.Bool()
		t.finishEast[s] = r.Bool()
		t.finishOwnEv[s] = critpath.Event{}
		t.finishEastEv[s] = critpath.Event{}
		t.finishSent[s] = r.Bool()
		t.committing[s] = r.Bool()
		t.drainIdx[s] = r.Int()
		t.commitEv[s] = critpath.Event{}
		t.ackOwn[s] = r.Bool()
		t.ackEast[s] = r.Bool()
		t.ackOwnEv[s] = critpath.Event{}
		t.ackEastEv[s] = critpath.Event{}
		t.ackSent[s] = r.Bool()
		t.missingWrites[s] = r.Int()
	}
	t.outQ.LoadState(r, decOPNMsg)
	t.unresolved = r.Int()
	t.active = r.Bool()
	t.ReadsForwarded = r.U64()
	t.ReadsFromFile = r.U64()
	t.ReadsBuffered = r.U64()
	t.NullWrites = r.U64()
}

// ---------------------------------------------------------------------------
// IT
// ---------------------------------------------------------------------------

func (it *itTile) saveState(w *ckpt.Writer) {
	w.Section("it")
	w.Int(it.id)
	addrs := make([]uint64, 0, len(it.chunks))
	for a := range it.chunks {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	w.Int(len(addrs))
	for _, a := range addrs {
		w.U64(a)
		// Only the raw chunk bytes are state; the decoded forms are lazy,
		// deterministic derivations.
		w.Bytes(it.chunks[a].raw)
	}
	w.Int(len(it.refillOrder))
	for _, a := range it.refillOrder {
		st := it.refills[a]
		w.U64(a)
		w.Bool(st.ownDone)
		w.Bool(st.southDone)
	}
	it.pending.SaveState(w, func(w *ckpt.Writer, a uint64) { w.U64(a) })
	w.Bool(it.active)
	w.U64(it.Refills)
}

func (it *itTile) loadState(r *ckpt.Reader) {
	r.Section("it")
	if id := r.Int(); id != it.id && r.Err() == nil {
		r.Failf("IT id mismatch: saved %d, live %d", id, it.id)
		return
	}
	n := r.Int()
	if r.Err() != nil {
		return
	}
	it.chunks = make(map[uint64]*itChunk, n)
	for i := 0; i < n; i++ {
		a := r.U64()
		raw := r.Bytes()
		if r.Err() != nil {
			return
		}
		it.chunks[a] = &itChunk{raw: raw}
	}
	nr := r.Int()
	if r.Err() != nil {
		return
	}
	it.refills = make(map[uint64]*itRefill, nr)
	it.refillOrder = it.refillOrder[:0]
	for i := 0; i < nr; i++ {
		a := r.U64()
		st := &itRefill{ownDone: r.Bool(), southDone: r.Bool()}
		it.refills[a] = st
		it.refillOrder = append(it.refillOrder, a)
	}
	it.pending.LoadState(r, func(r *ckpt.Reader) uint64 { return r.U64() })
	it.active = r.Bool()
	it.Refills = r.U64()
}

// ---------------------------------------------------------------------------
// GT
// ---------------------------------------------------------------------------

func (g *gtTile) saveState(w *ckpt.Writer) {
	w.Section("gt")
	g.pred.SaveState(w)
	addrs := make([]uint64, 0, len(g.tags))
	for a := range g.tags {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	w.Int(len(addrs))
	for _, a := range addrs {
		e := g.tags[a]
		w.U64(a)
		w.Bool(e.present)
		w.I64(e.lastUse)
	}
	for s := range g.slots {
		b := &g.slots[s]
		w.Bool(b.valid)
		w.U64(b.seq)
		w.U64(b.addr)
		w.Int(b.thread)
		encHeaderInfo(w, b.hdr)
		predictor.EncodePrediction(w, b.selfPred)
		predictor.EncodePrediction(w, b.succPred)
		w.U64(b.predictedNext)
		w.Bool(b.branchSeen)
		w.U64(b.branchNext)
		w.Int(b.branchExit)
		w.U8(uint8(b.branchKind))
		w.Bool(b.writesDone)
		w.Bool(b.storesDone)
		w.Bool(b.mispChecked)
		w.Bool(b.commitSent)
		w.Bool(b.ackR)
		w.Bool(b.ackS)
	}
	for t := range g.threads {
		tc := &g.threads[t]
		w.Bool(tc.active)
		w.U64(tc.nextFetch)
		w.Bool(tc.halted)
		w.U64(tc.lastSeq)
		predictor.EncodePrediction(w, tc.pendingPred)
		w.U8(uint8(tc.stage))
		w.I64(tc.stageUntil)
		w.U64(tc.fetchAddr)
		w.Int(tc.fetchSlot)
		w.Bool(tc.refillWait)
		w.U64(tc.badFetch)
	}
	w.U64(g.nextSeq)
	w.I64(g.dispatchBusyUntil)
	w.Int(g.rrThread)
	w.U64(g.Fetches)
	w.U64(g.Refills)
	w.U64(g.Flushes)
	w.U64(g.Mispredicts)
	w.U64(g.ViolationFlushes)
	w.U64(g.Commits)
}

func (g *gtTile) loadState(r *ckpt.Reader) {
	r.Section("gt")
	g.pred.LoadState(r)
	n := r.Int()
	if r.Err() != nil {
		return
	}
	g.tags = make(map[uint64]*tagEntry, n)
	for i := 0; i < n; i++ {
		a := r.U64()
		g.tags[a] = &tagEntry{present: r.Bool(), lastUse: r.I64()}
	}
	for s := range g.slots {
		b := &g.slots[s]
		*b = blockCtx{}
		b.valid = r.Bool()
		b.seq = r.U64()
		b.addr = r.U64()
		b.thread = r.Int()
		b.hdr = decHeaderInfo(r)
		b.selfPred = predictor.DecodePrediction(r)
		b.succPred = predictor.DecodePrediction(r)
		b.predictedNext = r.U64()
		b.branchSeen = r.Bool()
		b.branchNext = r.U64()
		b.branchExit = r.Int()
		b.branchKind = predictor.Kind(r.U8())
		b.writesDone = r.Bool()
		b.storesDone = r.Bool()
		b.mispChecked = r.Bool()
		b.commitSent = r.Bool()
		b.ackR = r.Bool()
		b.ackS = r.Bool()
	}
	for t := range g.threads {
		tc := &g.threads[t]
		*tc = threadCtx{}
		tc.active = r.Bool()
		tc.nextFetch = r.U64()
		tc.halted = r.Bool()
		tc.lastSeq = r.U64()
		tc.pendingPred = predictor.DecodePrediction(r)
		tc.stage = fetchStage(r.U8())
		tc.stageUntil = r.I64()
		tc.fetchAddr = r.U64()
		tc.fetchSlot = r.Int()
		tc.refillWait = r.Bool()
		tc.badFetch = r.U64()
	}
	g.nextSeq = r.U64()
	g.dispatchBusyUntil = r.I64()
	g.rrThread = r.Int()
	g.Fetches = r.U64()
	g.Refills = r.U64()
	g.Flushes = r.U64()
	g.Mispredicts = r.U64()
	g.ViolationFlushes = r.U64()
	g.Commits = r.U64()
	g.lastCommitEv = critpath.Event{}
}

// ---------------------------------------------------------------------------
// DT
// ---------------------------------------------------------------------------

func encMSHRWaiter(w *ckpt.Writer, waiter any) {
	pl, _ := waiter.(*pendingLoad)
	w.Bool(pl != nil)
	if pl != nil {
		encPendingLoad(w, pl)
	}
}

func decMSHRWaiter(r *ckpt.Reader) any {
	if r.Bool() {
		return decPendingLoad(r)
	}
	// Write-allocate fetches register a nil waiter.
	return (*pendingLoad)(nil)
}

func (d *dtTile) saveState(w *ckpt.Writer) {
	w.Section("dt")
	w.Int(d.id)
	d.bank.SaveState(w)
	d.mshr.SaveState(w, encMSHRWaiter)
	for t := range d.lsqs {
		d.lsqs[t].SaveState(w)
	}
	d.dep.SaveState(w)
	for s := 0; s < NumSlots; s++ {
		w.U64(d.slotSeq[s])
		w.Int(d.slotThread[s])
		w.U32(d.storeMask[s])
		w.U32(d.storeSeen[s])
		w.Bool(d.maskKnown[s])
		w.Bool(d.finishSent[s])
		w.Bool(d.ackOwn[s])
		w.Bool(d.ackEast[s])
		w.Bool(d.ackSent[s])
		w.Bool(d.committing[s])
	}
	d.inQ.SaveState(w, encOPNMsg)
	encPendingLoads(w, d.stalled)
	d.uncachedQ.SaveState(w, encPendingLoad)
	encPendingLoads(w, d.hitQ)
	encPendingLoads(w, d.conflictLoads)
	encPendingLoads(w, d.cacheRetry)
	w.Bool(d.mshrFreed)
	d.pendingFetch.SaveState(w, func(w *ckpt.Writer, a uint64) { w.U64(a) })
	d.gsnOut.SaveState(w, encGSNMsg)
	// Commit drains, in drain order (the map is keyed 1:1 with the queue).
	d.drainOrder.SaveState(w, func(w *ckpt.Writer, seq uint64) { w.U64(seq) })
	for i := 0; i < d.drainOrder.Len(); i++ {
		stores := d.drains[d.drainOrder.At(i)]
		w.Int(len(stores))
		for _, st := range stores {
			lsq.EncodeEntry(w, st)
		}
	}
	// The uncached-store state machine holds at most one entry, always the
	// head of the head drain list; only the state value needs saving.
	if len(d.uncachedSt) > 1 {
		panic("proc: checkpoint: more than one uncached store in flight")
	}
	ust := 0
	for _, v := range d.uncachedSt {
		ust = v
	}
	w.Int(ust)
	w.Bool(d.wb.valid)
	if d.wb.valid {
		w.Bool(d.wb.fetched)
		lsq.EncodeEntry(w, d.wb.st)
	}
	d.outQ.SaveState(w, encOPNMsg)
	d.dsnQ.SaveState(w, encDSNMsg)
	w.Bool(d.active)
	w.U64(d.Loads)
	w.U64(d.Stores)
	w.U64(d.NullStores)
	w.U64(d.Hits)
	w.U64(d.MissesStat)
	w.U64(d.StallsDep)
	w.U64(d.ViolationsStat)
}

func (d *dtTile) loadState(r *ckpt.Reader) {
	r.Section("dt")
	if id := r.Int(); id != d.id && r.Err() == nil {
		r.Failf("DT id mismatch: saved %d, live %d", id, d.id)
		return
	}
	d.bank.LoadState(r)
	d.mshr.LoadState(r, decMSHRWaiter)
	for t := range d.lsqs {
		d.lsqs[t].LoadState(r)
	}
	d.dep.LoadState(r)
	for s := 0; s < NumSlots; s++ {
		d.slotSeq[s] = r.U64()
		d.slotThread[s] = r.Int()
		d.storeMask[s] = r.U32()
		d.storeSeen[s] = r.U32()
		d.maskKnown[s] = r.Bool()
		d.bindEv[s] = critpath.Event{}
		d.finishSent[s] = r.Bool()
		d.ackOwn[s] = r.Bool()
		d.ackEast[s] = r.Bool()
		d.ackOwnEv[s] = critpath.Event{}
		d.ackEastEv[s] = critpath.Event{}
		d.ackSent[s] = r.Bool()
		d.committing[s] = r.Bool()
		d.commitEv[s] = critpath.Event{}
	}
	d.inQ.LoadState(r, decOPNMsg)
	d.stalled = decPendingLoads(r)
	d.uncachedQ.LoadState(r, decPendingLoad)
	d.hitQ = decPendingLoads(r)
	d.conflictLoads = decPendingLoads(r)
	d.cacheRetry = decPendingLoads(r)
	d.mshrFreed = r.Bool()
	d.pendingFetch.LoadState(r, func(r *ckpt.Reader) uint64 { return r.U64() })
	d.gsnOut.LoadState(r, decGSNMsg)
	d.drainOrder.LoadState(r, func(r *ckpt.Reader) uint64 { return r.U64() })
	d.drains = make(map[uint64][]*lsq.Entry, d.drainOrder.Len())
	for i := 0; i < d.drainOrder.Len(); i++ {
		n := r.Int()
		if r.Err() != nil {
			return
		}
		stores := make([]*lsq.Entry, 0, n)
		for j := 0; j < n; j++ {
			stores = append(stores, lsq.DecodeEntry(r))
		}
		d.drains[d.drainOrder.At(i)] = stores
	}
	ust := r.Int()
	d.uncachedSt = make(map[*lsq.Entry]int)
	if ust != 0 {
		if d.drainOrder.Len() == 0 || len(d.drains[d.drainOrder.Front()]) == 0 {
			r.Failf("uncached-store state %d with no head drain entry", ust)
			return
		}
		d.uncachedSt[d.drains[d.drainOrder.Front()][0]] = ust
	}
	d.wb.valid = r.Bool()
	d.wb.fetched = false
	d.wb.st = nil
	if d.wb.valid {
		d.wb.fetched = r.Bool()
		d.wb.st = lsq.DecodeEntry(r)
	}
	d.outQ.LoadState(r, decOPNMsg)
	d.dsnQ.LoadState(r, decDSNMsg)
	d.active = r.Bool()
	d.Loads = r.U64()
	d.Stores = r.U64()
	d.NullStores = r.U64()
	d.Hits = r.U64()
	d.MissesStat = r.U64()
	d.StallsDep = r.U64()
	d.ViolationsStat = r.U64()
}

// ---------------------------------------------------------------------------
// Core
// ---------------------------------------------------------------------------

// SaveState serializes the core's complete mutable state at a cycle
// boundary. It fails when critical-path tracking is enabled: critical-path
// events are not part of the frame format.
func (c *Core) SaveState(w *ckpt.Writer) error {
	if c.cfg.TrackCritPath {
		return fmt.Errorf("proc: cannot checkpoint with critical-path tracking enabled")
	}
	w.Section("core")
	w.I64(c.cycle)
	for _, m := range c.opns {
		m.SaveState(w, encOPNMsg)
	}
	c.saveWaves(w)
	c.gcn.SaveState(w, encGCNWave)
	c.gsnRT.SaveState(w, encGSNMsg)
	c.gsnDT.SaveState(w, encGSNMsg)
	c.gsnIT.SaveState(w, encGSNMsg)
	c.dsn.SaveState(w, encDSNMsg)
	c.gcnQueue.SaveState(w, encGCNWave)
	c.saveWheel(w)
	for s := 0; s < NumSlots; s++ {
		w.U64(c.storeSeq[s])
	}
	w.U64(c.CommittedBlocks)
	w.U64(c.CommittedInsts)
	w.U64(c.FlushedBlocks)
	w.U64(c.Warps)
	w.I64(c.WarpedCycles)
	w.Int(len(c.Timeline))
	for i := range c.Timeline {
		bt := &c.Timeline[i]
		w.U64(bt.Seq)
		w.U64(bt.Addr)
		w.I64(bt.Dispatch)
		w.I64(bt.Complete)
		w.I64(bt.CommitCmd)
		w.I64(bt.Acked)
	}
	c.gt.saveState(w)
	for _, it := range c.its {
		it.saveState(w)
	}
	for _, t := range c.rts {
		t.saveState(w)
	}
	for _, e := range c.ets {
		e.saveState(w)
	}
	for _, d := range c.dts {
		d.saveState(w)
	}
	return nil
}

// LoadState restores a checkpoint into a core built with an identical
// Config, fresh or already run, overwriting all mutable simulated state.
// The memory backend is restored separately by the caller (after this
// returns, so origin resolution sees the restored tile state).
func (c *Core) LoadState(r *ckpt.Reader) error {
	if c.cfg.TrackCritPath {
		return fmt.Errorf("proc: cannot restore with critical-path tracking enabled")
	}
	r.Section("core")
	c.cycle = r.I64()
	for _, m := range c.opns {
		m.LoadState(r, decOPNMsg)
	}
	c.loadWaves(r)
	c.gcn.LoadState(r, c.decGCNWave)
	c.gsnRT.LoadState(r, decGSNMsg)
	c.gsnDT.LoadState(r, decGSNMsg)
	c.gsnIT.LoadState(r, decGSNMsg)
	c.dsn.LoadState(r, decDSNMsg)
	c.gcnQueue.LoadState(r, c.decGCNWave)
	c.loadWheel(r)
	for s := 0; s < NumSlots; s++ {
		c.storeSeq[s] = r.U64()
		c.storeEvs[s] = critpath.Event{}
	}
	c.CommittedBlocks = r.U64()
	c.CommittedInsts = r.U64()
	c.FlushedBlocks = r.U64()
	c.Warps = r.U64()
	c.WarpedCycles = r.I64()
	nt := r.Int()
	if r.Err() != nil {
		return r.Err()
	}
	c.Timeline = c.Timeline[:0]
	c.timelineI = make(map[uint64]int, nt)
	for i := 0; i < nt; i++ {
		var bt BlockTime
		bt.Seq = r.U64()
		bt.Addr = r.U64()
		bt.Dispatch = r.I64()
		bt.Complete = r.I64()
		bt.CommitCmd = r.I64()
		bt.Acked = r.I64()
		c.Timeline = append(c.Timeline, bt)
		c.timelineI[bt.Seq] = i
	}
	c.gt.loadState(r)
	for _, it := range c.its {
		it.loadState(r)
	}
	for _, t := range c.rts {
		t.loadState(r)
	}
	for _, e := range c.ets {
		e.loadState(r)
	}
	for _, d := range c.dts {
		d.loadState(r)
	}
	// The doze overlay is never serialized: clear any stale horizons (this
	// Core may be rewinding) so the first post-restore tick recomputes them
	// from the restored state.
	c.gt.wakeAt = 0
	for _, e := range c.ets {
		e.wakeAt = 0
	}
	for _, d := range c.dts {
		d.wakeAt = 0
	}
	// Resume the trace-id allocator past every restored in-flight message so
	// post-restore allocations never collide with checkpointed ids.
	c.cfg.Trace.ReserveIDs(r.MaxID())
	return r.Err()
}

// ---------------------------------------------------------------------------
// FixedLatencyMem
// ---------------------------------------------------------------------------

// SaveState serializes the backing memory, clock, and per-port in-flight
// queues (ports in creation order, which NewCore makes deterministic).
func (f *FixedLatencyMem) SaveState(w *ckpt.Writer) {
	w.Section("flm")
	f.Mem.SaveState(w)
	w.I64(f.cycle)
	w.Int(len(f.order))
	for _, p := range f.order {
		w.I64(p.lastSub)
		p.queue.SaveState(w, func(w *ckpt.Writer, pr pendingReq) {
			EncodeMemRequest(w, pr.req)
			w.I64(pr.when)
		})
	}
}

// LoadState restores the backend into one built with an identical Config,
// fresh or already run, replacing the whole memory image and every port
// queue; res rebuilds each queued request's Done callback, so the owning
// core must be restored first.
func (f *FixedLatencyMem) LoadState(r *ckpt.Reader, res OriginResolver) {
	r.Section("flm")
	f.Mem.LoadState(r)
	f.cycle = r.I64()
	n := r.Int()
	if r.Err() != nil {
		return
	}
	if n != len(f.order) {
		r.Failf("backend port count mismatch: saved %d, live %d", n, len(f.order))
		return
	}
	f.pending = 0
	for _, p := range f.order {
		p.lastSub = r.I64()
		p.queue.LoadState(r, func(r *ckpt.Reader) pendingReq {
			req := DecodeMemRequest(r, res)
			return pendingReq{req: req, when: r.I64()}
		})
		f.pending += p.queue.Len()
	}
}
