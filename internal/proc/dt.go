package proc

import (
	"trips/internal/cache"
	"trips/internal/critpath"
	"trips/internal/isa"
	"trips/internal/lsq"
	"trips/internal/micronet"
)

// UncachedBit marks a virtual address as uncacheable: DT accesses bypass
// the L1 bank and travel the OCN at their natural size, the mechanism the
// prototype uses for I/O and cross-processor communication (paper
// Section 3: "other request sizes are supported for operations like loads
// and stores to uncacheable pages").
const UncachedBit = uint64(1) << 40

// Uncached returns addr tagged uncacheable.
func Uncached(addr uint64) uint64 { return addr | UncachedBit }

func isUncached(addr uint64) bool { return addr&UncachedBit != 0 }

func physical(addr uint64) uint64 { return addr &^ UncachedBit }

// pendingLoad is a load awaiting cache data or prior-store completion.
type pendingLoad struct {
	msg     *opnMsg
	ev      critpath.Event // arrival event at this DT
	readyAt int64          // cache hit completion time (0 = not yet accessed)
	waiting bool           // stalled on prior stores (dependence predictor)
}

// dtTile is one of the four data tiles: a 2-way 8KB L1 data-cache bank, a
// replicated 256-entry load/store queue, a dependence predictor, an MSHR
// for up to 16 requests over four outstanding lines, and a DSN client for
// distributed store-completion tracking (paper Section 3.5, Figure 4e).
type dtTile struct {
	core *Core
	id   int
	at   micronet.Coord

	bank *cache.Bank
	mshr *cache.MSHR
	lsqs [NumThreads]*lsq.LSQ
	dep  *lsq.DepPredictor
	port MemPort

	slotSeq    [NumSlots]uint64
	slotThread [NumSlots]int
	storeMask  [NumSlots]uint32
	storeSeen  [NumSlots]uint32
	maskKnown  [NumSlots]bool
	bindEv     [NumSlots]critpath.Event // dispatch-time dependency for 0-store blocks

	// Inbound memory operations: the LSQ accepts one load or store per
	// cycle (paper Section 3.5).
	inQ micronet.Queue[*opnMsg]

	stalled       []*pendingLoad               // loads held back by the dependence predictor
	uncachedQ     micronet.Queue[*pendingLoad] // uncacheable loads awaiting a port slot
	hitQ          []*pendingLoad               // cache accesses completing after dtCacheCycles
	conflictLoads []*pendingLoad               // loads buffered in the LSQ behind partial overlaps
	cacheRetry    []*pendingLoad               // loads refused by a full MSHR
	mshrFreed     bool                         // a line fill since the last retry pass
	pendingFetch  micronet.Queue[uint64]       // line fetches awaiting a free port
	gsnOut        micronet.Queue[gsnMsg]       // status messages awaiting a free GSN link

	// Commit drains: stores flowing to the cache bank, one per cycle.
	drains     map[uint64][]*lsq.Entry // seq -> remaining stores
	drainOrder micronet.Queue[uint64]
	uncachedSt map[*lsq.Entry]int // uncached store commit state (1 in flight, 2 done)
	// wb is the one-entry back-side coalescing write buffer (paper 3.5):
	// a committed store that misses the bank retires into the buffer while
	// its line fetch proceeds, keeping the commit ack off the miss path.
	wb struct {
		valid   bool
		fetched bool // line fetch issued (retried if the MSHR was full)
		st      *lsq.Entry
	}

	// Completion/ack daisy state (mirrors the RT chain roles).
	finishSent [NumSlots]bool
	ackOwn     [NumSlots]bool
	ackEast    [NumSlots]bool
	ackOwnEv   [NumSlots]critpath.Event
	ackEastEv  [NumSlots]critpath.Event
	ackSent    [NumSlots]bool
	committing [NumSlots]bool
	commitEv   [NumSlots]critpath.Event

	outQ micronet.Queue[*opnMsg]
	dsnQ micronet.Queue[dsnMsg]

	// active registers pending work with the core's stepping fast path: set
	// by every wake (OPN arrival, dispatch binding, store-mask delivery,
	// commit command, flush, line-fill and uncached completions), cleared by
	// tick when every queue is empty and no slot has in-progress protocol
	// work.
	active bool
	// wakeAt is the event-driven doze overlay: when nonzero, the only
	// remaining work is hit-queue accesses whose bank latency elapses at
	// wakeAt, so Step may skip this tile until then (deliveries clear it via
	// wake()). Never serialized: checkpoint restore leaves it zero and the
	// first tick recomputes it.
	wakeAt int64

	// fetchFree pools line-fetch requests so the hot fill path neither
	// allocates a MemRequest nor a Done closure per miss.
	fetchFree []*dtFetch

	// Stats.
	Loads, Stores, NullStores, Hits, MissesStat, StallsDep, ViolationsStat uint64
}

func newDT(core *Core, id int) *dtTile {
	d := &dtTile{
		core: core, id: id, at: dtCoord(id),
		bank:       cache.NewBank(8<<10, 2, 64),
		mshr:       cache.NewMSHR(4, 16),
		dep:        lsq.NewDepPredictor(),
		drains:     make(map[uint64][]*lsq.Entry),
		uncachedSt: make(map[*lsq.Entry]int),
	}
	for t := range d.lsqs {
		d.lsqs[t] = lsq.New()
	}
	return d
}

// dtFetch is a pooled line fetch: the MemRequest and its Done closure are
// built once and rebound to new lines on reuse, so steady-state misses do
// not allocate.
type dtFetch struct {
	d    *dtTile
	line uint64
	req  MemRequest
}

func (d *dtTile) newFetch(line uint64) *dtFetch {
	var f *dtFetch
	if n := len(d.fetchFree); n > 0 {
		f = d.fetchFree[n-1]
		d.fetchFree = d.fetchFree[:n-1]
	} else {
		f = &dtFetch{d: d}
		f.req.Origin = Origin{Kind: OriginDTFetch, Tile: d.id}
		f.req.Done = func(data []byte) {
			f.d.wake()
			f.d.fillLine(f.line, data)
			f.d.fetchFree = append(f.d.fetchFree, f)
		}
	}
	f.line = line
	f.req.Addr = line
	f.req.N = d.bank.LineBytes
	return f
}

func (d *dtTile) bindSlot(slot int, seq uint64, thread int, mask uint32) {
	d.wake()
	d.slotSeq[slot] = seq
	d.slotThread[slot] = thread
	d.storeMask[slot] = mask
	d.storeSeen[slot] = 0
	d.maskKnown[slot] = true
	d.finishSent[slot] = false
	d.ackOwn[slot] = false
	d.ackEast[slot] = false
	d.ackOwnEv[slot] = critpath.Event{}
	d.ackEastEv[slot] = critpath.Event{}
	d.ackSent[slot] = false
	d.committing[slot] = false
	d.commitEv[slot] = critpath.Event{}
}

// enqueue accepts an arriving OPN memory operation.
func (d *dtTile) enqueue(msg *opnMsg) {
	d.wake()
	d.inQ.Push(msg)
}

// wake registers work with the stepping fast path and cancels any doze.
func (d *dtTile) wake() {
	d.active = true
	d.wakeAt = 0
}

func (d *dtTile) tick(now int64) {
	d.drainWriteBuffer()
	d.pumpDSN(now)
	d.completeHits(now)
	d.pumpCacheRetry(now)
	d.retryStalled(now)
	d.acceptOne(now)
	d.replayConflicts(now)
	d.pumpDrain(now)
	// Forward in-flight chain traffic and drain pending violation reports
	// BEFORE signalling store completion: a violation for a block must
	// reach the GT ahead of the finish-S that would let it commit.
	d.pumpGSN(now)
	d.drainGSNOut()
	d.checkFinish(now)
	d.pumpUncached(now)
	d.pumpFetch()
	d.drainDSNQ()
	d.drainOutQ()
	d.active = !d.idleNow()
	d.wakeAt = 0
	if d.core.eventDriven && d.active {
		d.wakeAt = d.dozeHorizon(now)
	}
}

// dozeHorizon reports the cycle at which this tile next has local work, or 0
// when it must tick every cycle. A nonzero horizon is sound only when the
// hit queue is the SOLE busy condition: every other tick sub-pass is then a
// pure no-op until either the horizon arrives or a delivery re-wakes the
// tile through wake().
func (d *dtTile) dozeHorizon(now int64) int64 {
	if len(d.hitQ) == 0 {
		return 0 // busy for some other reason; scan every cycle
	}
	if d.wb.valid || len(d.uncachedSt) > 0 {
		return 0
	}
	// A line fill this tick may have armed a retry pass for the next one.
	if len(d.cacheRetry) > 0 && d.mshrFreed {
		return 0
	}
	if !d.inQ.Empty() || len(d.stalled) > 0 || !d.uncachedQ.Empty() ||
		len(d.conflictLoads) > 0 ||
		!d.pendingFetch.Empty() || !d.gsnOut.Empty() || d.drainOrder.Len() > 0 ||
		!d.dsnQ.Empty() || !d.outQ.Empty() {
		return 0
	}
	for s := 0; s < NumSlots; s++ {
		if d.slotSeq[s] == 0 {
			continue
		}
		if d.committing[s] && !d.ackSent[s] {
			return 0
		}
		if d.id == 0 && !d.finishSent[s] && d.maskKnown[s] &&
			d.storeSeen[s]&d.storeMask[s] == d.storeMask[s] {
			return 0
		}
	}
	w := horizonNever
	for _, pl := range d.hitQ {
		if pl.readyAt < w {
			w = pl.readyAt
		}
	}
	if w <= now || w == horizonNever {
		return 0
	}
	return w
}

// idleNow reports whether another tick with no intervening wake would be a
// no-op: every queue empty, no write-buffered or uncached store in flight,
// no commit awaiting its ack send, and (at DT0) no completed store set
// awaiting its finish-S send. Everything else a tick inspects changes only
// on deliveries, which re-set active.
func (d *dtTile) idleNow() bool {
	if d.wb.valid || len(d.uncachedSt) > 0 {
		return false
	}
	// cacheRetry loads are NOT busy-work: a retry pass is gated on the next
	// line fill, whose Done closure re-sets active, and the fill's fetch is
	// an outstanding port request covered by the memory backend's horizon.
	if !d.inQ.Empty() || len(d.stalled) > 0 || !d.uncachedQ.Empty() ||
		len(d.hitQ) > 0 || len(d.conflictLoads) > 0 ||
		!d.pendingFetch.Empty() || !d.gsnOut.Empty() || d.drainOrder.Len() > 0 ||
		!d.dsnQ.Empty() || !d.outQ.Empty() {
		return false
	}
	for s := 0; s < NumSlots; s++ {
		if d.slotSeq[s] == 0 {
			continue
		}
		if d.committing[s] && !d.ackSent[s] {
			return false
		}
		if d.id == 0 && !d.finishSent[s] && d.maskKnown[s] &&
			d.storeSeen[s]&d.storeMask[s] == d.storeMask[s] {
			return false // finish-S ready but not yet sent
		}
	}
	return true
}

// pumpCacheRetry retries loads previously refused by a full MSHR. A refusal
// can only stop recurring after a line fill (which frees MSHR capacity or
// turns the access into a bank hit), so retry passes are gated on fills
// instead of burning a full re-access per waiting load every cycle.
func (d *dtTile) pumpCacheRetry(now int64) {
	if len(d.cacheRetry) == 0 || !d.mshrFreed {
		return
	}
	d.mshrFreed = false
	retry := d.cacheRetry
	d.cacheRetry = nil
	for _, pl := range retry {
		if d.slotSeq[pl.msg.slot] != pl.msg.seq {
			continue
		}
		d.accessCache(now, pl)
	}
}

// pumpUncached submits uncacheable loads directly to the OCN port.
// Uncacheable traffic is rare (I/O and cross-core pages), so its per-request
// closures stay unpooled.
func (d *dtTile) pumpUncached(now int64) {
	for !d.uncachedQ.Empty() {
		pl := d.uncachedQ.Front()
		msg := pl.msg
		if d.slotSeq[msg.slot] != msg.seq {
			d.uncachedQ.Pop()
			continue
		}
		width := isa.MemWidth(msg.memOp)
		req := &MemRequest{Addr: physical(msg.addr), N: width,
			Origin: Origin{Kind: OriginDTUncachedLoad, Tile: d.id, msg: msg},
			Done: func(data []byte) {
				d.wake()
				if d.slotSeq[msg.slot] != msg.seq {
					return
				}
				var v uint64
				for i := len(data) - 1; i >= 0; i-- {
					v = v<<8 | uint64(data[i])
				}
				now := d.core.respCycle()
				ev := d.core.newEvent(now, pl.ev, critpath.Split{}, critpath.CatOther)
				d.replyLoad(now+1, msg, Value{Bits: extendValue(v, msg.memOp)}, ev)
			}}
		if !d.port.Submit(req) {
			return
		}
		d.uncachedQ.Pop()
	}
	_ = now
}

// pumpFetch submits queued line fetches to the private memory port.
func (d *dtTile) pumpFetch() {
	for !d.pendingFetch.Empty() {
		f := d.newFetch(d.pendingFetch.Front())
		if !d.port.Submit(&f.req) {
			d.fetchFree = append(d.fetchFree, f)
			return
		}
		d.pendingFetch.Pop()
	}
}

func (d *dtTile) drainGSNOut() {
	for !d.gsnOut.Empty() {
		if !d.core.gsnDT.CanSend(d.id + 1) {
			return
		}
		d.core.gsnDT.Send(d.id+1, d.gsnOut.Front())
		d.gsnOut.Pop()
	}
}

// acceptOne processes at most one load or store from the OPN per cycle.
func (d *dtTile) acceptOne(now int64) {
	for !d.inQ.Empty() {
		msg := d.inQ.Front()
		if d.slotSeq[msg.slot] != msg.seq {
			d.inQ.Pop()
			continue // stale (flushed)
		}
		d.inQ.Pop()
		arriveEv := d.core.newEvent(now, msg.ev, critpath.Split{
			critpath.CatOPNHop:        int64(msg.hops),
			critpath.CatOPNContention: int64(msg.waits),
		}, critpath.CatOPNHop)
		if msg.kind == opnLoadReq {
			d.handleLoad(now, msg, arriveEv)
		} else {
			d.handleStore(now, msg, arriveEv)
		}
		return
	}
}

func (d *dtTile) handleLoad(now int64, msg *opnMsg, ev critpath.Event) {
	d.Loads++
	pl := &pendingLoad{msg: msg, ev: ev}
	// A dependence prediction occurs in parallel with the cache access when
	// the load arrives at the DT (paper Section 3.5). A load whose
	// predictor entry is set stalls until all prior stores have completed.
	if !d.priorStoresSeen(msg) && !d.dep.Aggressive(msg.addr) {
		d.StallsDep++
		pl.waiting = true
		d.stalled = append(d.stalled, pl)
		return
	}
	d.issueLoad(now, pl)
}

// issueLoad resolves a load against the LSQ, the commit drain queue, and
// the cache bank.
func (d *dtTile) issueLoad(now int64, pl *pendingLoad) {
	msg := pl.msg
	key := lsq.OrderKey(msg.seq, msg.lsid)
	width := isa.MemWidth(msg.memOp)
	res, data, err := d.lsqs[msg.thread].InsertLoad(key, msg.seq, msg.addr, width)
	if err != nil {
		// LSQ full: retry next cycle by re-queueing at the head.
		d.inQ.PushFront(msg)
		return
	}
	switch res {
	case lsq.LoadForwarded:
		v := extendValue(data, msg.memOp)
		d.replyLoad(now+1, msg, Value{Bits: v}, pl.ev)
	case lsq.LoadConflict:
		// Stays buffered in the LSQ; replayed by replayConflicts once the
		// overlapping store drains.
		d.conflictLoads = append(d.conflictLoads, pl)
	case lsq.LoadFromCache:
		d.loadFromCachePath(now, pl)
	}
}

// loadFromCachePath reads a load's value from the committed-but-undrained
// store queue (architecturally visible) or the cache bank.
func (d *dtTile) loadFromCachePath(now int64, pl *pendingLoad) {
	msg := pl.msg
	width := isa.MemWidth(msg.memOp)
	if v, ok := d.drainQueueValue(msg.addr, width); ok {
		d.replyLoad(now+1, msg, Value{Bits: extendValue(v, msg.memOp)}, pl.ev)
		return
	}
	if v, ok := d.wbValue(msg.addr, width); ok {
		d.replyLoad(now+1, msg, Value{Bits: extendValue(v, msg.memOp)}, pl.ev)
		return
	}
	d.accessCache(now, pl)
}

// accessCache performs the bank access: hits complete after dtCacheCycles;
// misses allocate an MSHR and fetch the line through the private OCN port.
// Uncacheable accesses bypass the bank entirely.
func (d *dtTile) accessCache(now int64, pl *pendingLoad) {
	msg := pl.msg
	width := isa.MemWidth(msg.memOp)
	if isUncached(msg.addr) {
		d.uncachedQ.Push(pl)
		return
	}
	if raw, ok := d.bank.Read(msg.addr, width); ok {
		d.Hits++
		var v uint64
		for i := width - 1; i >= 0; i-- {
			v = v<<8 | uint64(raw[i])
		}
		pl.readyAt = now + dtCacheCycles
		pl.msg.data = Value{Bits: extendValue(v, msg.memOp)}
		d.hitQ = append(d.hitQ, pl)
		return
	}
	d.MissesStat++
	line := d.bank.LineAddr(msg.addr)
	primary, ok := d.mshr.Allocate(line, pl)
	if !ok {
		// MSHR full: the load is already in the LSQ, so retry only the
		// cache access.
		d.cacheRetry = append(d.cacheRetry, pl)
		return
	}
	if primary {
		d.pendingFetch.Push(line)
	}
}

// fillLine installs a refilled line and services its waiting loads.
func (d *dtTile) fillLine(line uint64, data []byte) {
	d.mshrFreed = true
	if v := d.bank.Fill(line, data); v.Valid {
		d.writeback(v)
	}
	now := d.core.respCycle()
	for _, w := range d.mshr.Complete(line) {
		pl, _ := w.(*pendingLoad)
		if pl == nil {
			continue // write-allocate fetch with no waiting load
		}
		msg := pl.msg
		if d.slotSeq[msg.slot] != msg.seq {
			continue // flushed while missing
		}
		width := isa.MemWidth(msg.memOp)
		raw, ok := d.bank.Read(msg.addr, width)
		if !ok {
			continue // line raced out; extremely unlikely with 2 ways
		}
		var v uint64
		for i := width - 1; i >= 0; i-- {
			v = v<<8 | uint64(raw[i])
		}
		missEv := d.core.newEvent(now, pl.ev, critpath.Split{}, critpath.CatOther)
		d.replyLoad(now+1, msg, Value{Bits: extendValue(v, msg.memOp)}, missEv)
	}
}

func (d *dtTile) writeback(v cache.Victim) {
	d.port.Submit(&MemRequest{Addr: v.Addr, Data: v.Data, IsWrite: true})
}

// completeHits sends replies for cache accesses whose bank latency elapsed.
func (d *dtTile) completeHits(now int64) {
	kept := d.hitQ[:0]
	for _, pl := range d.hitQ {
		if pl.readyAt > now {
			kept = append(kept, pl)
			continue
		}
		msg := pl.msg
		if d.slotSeq[msg.slot] != msg.seq {
			continue
		}
		ev := d.core.newEvent(now, pl.ev, critpath.Split{}, critpath.CatOther)
		d.replyLoad(now, msg, msg.data, ev)
	}
	d.hitQ = kept
}

// replyLoad routes the loaded value to the load's target instructions. The
// request message is fully consumed here, so it returns to the pool.
func (d *dtTile) replyLoad(_ int64, msg *opnMsg, v Value, ev critpath.Event) {
	for _, tgt := range []isa.Target{msg.ldT0, msg.ldT1} {
		if !tgt.Valid() {
			continue
		}
		var dst micronet.Coord
		if tgt.IsWrite() {
			dst = rtCoord(isa.RTOf(tgt.Index))
		} else {
			dst = etCoord(isa.ETOf(tgt.Index))
		}
		m := d.core.newOPNMsg()
		*m = opnMsg{
			dst: dst, kind: opnOperand, slot: msg.slot, seq: msg.seq,
			thread: msg.thread, target: tgt, val: v, ev: ev,
		}
		d.outQ.Push(m)
	}
	d.core.freeOPNMsg(msg)
}

func (d *dtTile) handleStore(now int64, msg *opnMsg, ev critpath.Event) {
	d.Stores++
	if msg.data.Null {
		d.NullStores++
	}
	key := lsq.OrderKey(msg.seq, msg.lsid)
	width := isa.MemWidth(msg.memOp)
	violated, err := d.lsqs[msg.thread].InsertStore(key, msg.seq, msg.addr, width, msg.data.Bits, msg.data.Null)
	if err != nil {
		d.inQ.PushFront(msg)
		return
	}
	if len(violated) > 0 {
		// Memory-ordering violation: report the oldest violated load's
		// block to the GT via the GSN; train the dependence predictor.
		d.ViolationsStat++
		v := violated[0]
		d.dep.Mispredicted(v.Addr)
		d.gsnOut.Push(gsnMsg{
			kind: gsnViolation, seq: v.BlockSeq,
			ev: d.core.newEvent(now, ev, critpath.Split{}, critpath.CatOther),
		})
	}
	// Record the store locally and notify the other DTs on the DSN.
	d.noteStore(now, msg.slot, msg.seq, msg.lsid, ev)
	if d.id == 0 {
		d.core.noteStoreEv(int(msg.slot), msg.seq, ev)
	}
	d.dsnQ.Push(dsnMsg{slot: uint8(msg.slot), lsid: uint8(msg.lsid), seq: msg.seq, ev: ev})
	// The store request is fully consumed (the LSQ copied its payload).
	d.core.freeOPNMsg(msg)
}

// noteStore marks a store LSID as received for a frame.
func (d *dtTile) noteStore(_ int64, slot int, seq uint64, lsid int, _ critpath.Event) {
	if d.slotSeq[slot] != seq {
		return
	}
	d.storeSeen[slot] |= 1 << uint(lsid)
}

// pumpDSN consumes store notices from the other DTs.
func (d *dtTile) pumpDSN(now int64) {
	for {
		msg, ok := d.core.dsn.Deliver(d.id)
		if !ok {
			return
		}
		d.core.dsn.Pop(d.id)
		if d.slotSeq[msg.slot] == msg.seq {
			d.storeSeen[msg.slot] |= 1 << uint(msg.lsid)
			if d.id == 0 {
				// Track the latest store arrival for completion events.
				d.core.noteStoreEv(int(msg.slot), msg.seq, d.core.newEvent(now, msg.ev, critpath.Split{}, critpath.CatComplete))
			}
		}
	}
}

func (d *dtTile) drainDSNQ() {
	for !d.dsnQ.Empty() {
		if !d.core.dsn.Inject(d.id, d.dsnQ.Front()) {
			return
		}
		d.dsnQ.Pop()
	}
}

// priorStoresSeen reports whether every store older than the given memory
// operation (same thread) has been received across all DTs, per this DT's
// DSN-maintained view.
func (d *dtTile) priorStoresSeen(msg *opnMsg) bool {
	for s := 0; s < NumSlots; s++ {
		seq := d.slotSeq[s]
		if seq == 0 || d.slotThread[s] != msg.thread {
			continue
		}
		if seq > msg.seq {
			continue
		}
		if !d.maskKnown[s] {
			return false // store mask not yet delivered: be conservative
		}
		if seq < msg.seq {
			if d.storeSeen[s]&d.storeMask[s] != d.storeMask[s] {
				return false
			}
			continue
		}
		// Same block: stores with lower LSIDs must all be in.
		prior := d.storeMask[s] & (1<<uint(msg.lsid) - 1)
		if d.storeSeen[s]&prior != prior {
			return false
		}
	}
	return true
}

// retryStalled re-issues loads whose prior stores have now all arrived.
func (d *dtTile) retryStalled(now int64) {
	kept := d.stalled[:0]
	for _, pl := range d.stalled {
		msg := pl.msg
		if d.slotSeq[msg.slot] != msg.seq {
			continue
		}
		if d.priorStoresSeen(msg) {
			relEv := d.core.newEvent(now, pl.ev, critpath.Split{}, critpath.CatOther)
			pl.ev = relEv
			d.issueLoad(now, pl)
			continue
		}
		kept = append(kept, pl)
	}
	d.stalled = kept
}

// replayConflicts re-issues LSQ-buffered loads whose overlapping earlier
// stores have drained. Conflicted LSQ entries and conflictLoads are 1:1
// (flushes clear both), so an empty list means no pending conflicts and the
// LSQ scan can be skipped.
func (d *dtTile) replayConflicts(now int64) {
	if len(d.conflictLoads) == 0 {
		return
	}
	for t := 0; t < NumThreads; t++ {
		for _, e := range d.lsqs[t].PendingConflicts() {
			d.lsqs[t].MarkIssued(e.Key)
			if pl := d.findConflictLoad(e); pl != nil {
				d.conflictLoads = removeLoad(d.conflictLoads, pl)
				d.loadFromCachePath(now, pl)
			}
		}
	}
}

// conflictLoads tracks original messages for LSQ-conflicted loads so their
// replies can be routed after replay.
func (d *dtTile) findConflictLoad(e *lsq.Entry) *pendingLoad {
	for _, pl := range d.conflictLoads {
		if lsq.OrderKey(pl.msg.seq, pl.msg.lsid) == e.Key {
			return pl
		}
	}
	return nil
}

func removeLoad(s []*pendingLoad, pl *pendingLoad) []*pendingLoad {
	for i, x := range s {
		if x == pl {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// checkFinish implements store-completion detection: the nearest DT (DT0)
// notifies the GT when all of a block's expected stores have arrived
// (paper Section 4.4).
func (d *dtTile) checkFinish(now int64) {
	if d.id != 0 {
		return
	}
	if !d.gsnOut.Empty() {
		return // a violation report must reach the GT first
	}
	for s := 0; s < NumSlots; s++ {
		if d.slotSeq[s] == 0 || d.finishSent[s] || !d.maskKnown[s] {
			continue
		}
		if d.storeSeen[s]&d.storeMask[s] != d.storeMask[s] {
			continue
		}
		if !d.core.gsnDT.CanSend(1) {
			continue
		}
		dep := critpath.Latest(d.core.storeEv(s, d.slotSeq[s]), d.bindEv[s])
		ev := d.core.newEvent(now, dep, critpath.Split{}, critpath.CatComplete)
		d.core.gsnDT.Send(1, gsnMsg{kind: gsnFinishS, slot: uint8(s), seq: d.slotSeq[s], ev: ev})
		d.finishSent[s] = true
	}
}

// onCommitCommand begins draining a frame's stores to the cache. The
// stores move from the LSQ into the drain pipeline (where later loads can
// still see them), which architecturally commits them — so the commit
// acknowledgment does not wait for slow line fills; those complete in the
// background through the write buffer.
func (d *dtTile) onCommitCommand(now int64, slot int, seq uint64, ev critpath.Event) {
	d.wake()
	if d.slotSeq[slot] != seq {
		return
	}
	d.committing[slot] = true
	d.commitEv[slot] = d.core.newEvent(now, ev, critpath.Split{}, critpath.CatCommit)
	thread := d.slotThread[slot]
	stores := d.lsqs[thread].CommitBlock(seq)
	d.drains[seq] = stores
	d.drainOrder.Push(seq)
	d.ackOwn[slot] = true
	d.ackOwnEv[slot] = d.commitEv[slot]
	d.dep.OnBlockCommit()
}

// pumpDrain writes committed stores into the cache bank at the
// architectural rate of dtDrainPerCycle (one per DT), then signals ack on
// the GSN daisy chain.
func (d *dtTile) pumpDrain(now int64) {
	_ = dtDrainPerCycle // the head-of-queue discipline below enforces it
	if d.drainOrder.Len() > 0 {
		seq := d.drainOrder.Front()
		stores := d.drains[seq]
		if len(stores) == 0 {
			delete(d.drains, seq)
			d.drainOrder.Pop()
		} else {
			st := stores[0]
			if d.commitStore(st) {
				d.drains[seq] = stores[1:]
			}
		}
	}
	// Ack daisy chain (DT3 is the tail; GT is the head).
	for s := 0; s < NumSlots; s++ {
		if !d.committing[s] || d.ackSent[s] || !d.ackOwn[s] {
			continue
		}
		if d.id != isa.NumDTs-1 && !d.ackEast[s] {
			continue
		}
		if !d.core.gsnDT.CanSend(d.id + 1) {
			continue
		}
		ev := d.core.newEvent(now, critpath.Latest(d.ackOwnEv[s], d.ackEastEv[s]), critpath.Split{}, critpath.CatCommit)
		d.core.gsnDT.Send(d.id+1, gsnMsg{kind: gsnAckS, slot: uint8(s), seq: d.slotSeq[s], ev: ev})
		d.ackSent[s] = true
		d.slotSeq[s] = 0
	}
}

// commitStore writes one store into the bank; on a miss it fetches the line
// first (write-allocate). Uncacheable stores go straight to the OCN.
// Returns true when the store retired.
func (d *dtTile) commitStore(st *lsq.Entry) bool {
	if isUncached(st.Addr) {
		switch d.uncachedSt[st] {
		case 2:
			delete(d.uncachedSt, st)
			return true
		case 1:
			return false // in flight
		}
		// The backend retains Data, so the uncached path must heap-allocate.
		data := make([]byte, st.Width)
		for i := 0; i < st.Width; i++ {
			data[i] = byte(st.Data >> (8 * i))
		}
		req := &MemRequest{Addr: physical(st.Addr), Data: data, IsWrite: true,
			Origin: Origin{Kind: OriginDTUncachedStore, Tile: d.id},
			Done: func([]byte) {
				d.wake()
				d.uncachedSt[st] = 2
			}}
		if d.port.Submit(req) {
			d.uncachedSt[st] = 1
		}
		return false
	}
	// The bank copies on Write, so a stack scratch buffer suffices.
	var scratch [8]byte
	data := scratch[:st.Width]
	for i := 0; i < st.Width; i++ {
		data[i] = byte(st.Data >> (8 * i))
	}
	if d.bank.Write(st.Addr, data) {
		return true
	}
	// Miss: retire the store into the write buffer if it is free; the line
	// fetch completes in the background (fillLine drains the buffer).
	if d.wb.valid {
		return false // buffer occupied by an earlier missing store
	}
	d.wb.valid = true
	d.wb.st = st
	d.wb.fetched = false
	d.tryWBFetch()
	return true
}

// tryWBFetch issues (or retries) the write buffer's line fetch.
func (d *dtTile) tryWBFetch() {
	if !d.wb.valid || d.wb.fetched {
		return
	}
	line := d.bank.LineAddr(d.wb.st.Addr)
	if d.mshr.Pending(line) {
		d.wb.fetched = true // piggyback on the in-flight fill
		return
	}
	if primary, ok := d.mshr.Allocate(line, nil); ok {
		d.wb.fetched = true
		if primary {
			d.pendingFetch.Push(line)
		}
	}
}

// drainWriteBuffer retires the write-buffered store once its line is
// resident.
func (d *dtTile) drainWriteBuffer() {
	if !d.wb.valid {
		return
	}
	d.tryWBFetch()
	st := d.wb.st
	var scratch [8]byte
	data := scratch[:st.Width]
	for i := 0; i < st.Width; i++ {
		data[i] = byte(st.Data >> (8 * i))
	}
	if d.bank.Write(st.Addr, data) {
		d.wb.valid = false
	}
}

// wbValue checks the write buffer for a covering match.
func (d *dtTile) wbValue(addr uint64, width int) (uint64, bool) {
	if !d.wb.valid {
		return 0, false
	}
	st := d.wb.st
	if st.Addr <= addr && addr+uint64(width) <= st.Addr+uint64(st.Width) {
		shift := (addr - st.Addr) * 8
		v := st.Data >> shift
		if width < 8 {
			v &= 1<<(uint(width)*8) - 1
		}
		return v, true
	}
	return 0, false
}

// drainQueueValue checks committed-but-undrained stores for a covering
// match (youngest wins).
func (d *dtTile) drainQueueValue(addr uint64, width int) (uint64, bool) {
	var best *lsq.Entry
	for i := 0; i < d.drainOrder.Len(); i++ {
		seq := d.drainOrder.At(i)
		for _, st := range d.drains[seq] {
			if st.Addr <= addr && addr+uint64(width) <= st.Addr+uint64(st.Width) {
				best = st // later drains are younger
			}
		}
	}
	if best == nil {
		return 0, false
	}
	shift := (addr - best.Addr) * 8
	v := best.Data >> shift
	if width < 8 {
		v &= 1<<(uint(width)*8) - 1
	}
	return v, true
}

// pumpGSN consumes DT-chain messages from the south neighbor (DT id+1).
func (d *dtTile) pumpGSN(now int64) {
	node := d.id + 1
	if node >= d.core.gsnDT.N-1 {
		return
	}
	msg, ok := d.core.gsnDT.Recv(node)
	if !ok {
		return
	}
	switch msg.kind {
	case gsnAckS:
		if d.slotSeq[msg.slot] == msg.seq {
			d.ackEast[msg.slot] = true
			d.ackEastEv[msg.slot] = d.core.newEvent(now, msg.ev, critpath.Split{}, critpath.CatCommit)
		}
		d.core.gsnDT.Pop(node)
	case gsnViolation, gsnFinishS:
		// Pass through toward the GT.
		if d.core.gsnDT.CanSend(node) {
			d.core.gsnDT.Send(node, msg)
			d.core.gsnDT.Pop(node)
		}
	default:
		d.core.gsnDT.Pop(node)
	}
}

// flush discards a frame at this DT.
func (d *dtTile) flush(slot int, seq uint64) {
	if d.slotSeq[slot] != seq {
		return
	}
	d.wake()
	thread := d.slotThread[slot]
	d.lsqs[thread].FlushBlock(seq)
	d.slotSeq[slot] = 0
	filt := func(s []*pendingLoad) []*pendingLoad {
		kept := s[:0]
		for _, pl := range s {
			if !(pl.msg.slot == slot && pl.msg.seq == seq) {
				kept = append(kept, pl)
			}
		}
		return kept
	}
	d.stalled = filt(d.stalled)
	d.hitQ = filt(d.hitQ)
	d.conflictLoads = filt(d.conflictLoads)
	d.cacheRetry = filt(d.cacheRetry)
	d.uncachedQ.Filter(func(pl *pendingLoad) bool {
		return !(pl.msg.slot == slot && pl.msg.seq == seq)
	})
	d.outQ.Filter(func(m *opnMsg) bool {
		return !(m.slot == slot && m.seq == seq)
	})
	d.inQ.Filter(func(m *opnMsg) bool {
		return !(m.slot == slot && m.seq == seq)
	})
}

// extendValue sign- or zero-extends a loaded value per the load opcode.
func extendValue(v uint64, op isa.Opcode) uint64 {
	w := isa.MemWidth(op)
	if w == 8 {
		return v
	}
	v &= 1<<(uint(w)*8) - 1
	if isa.MemSigned(op) {
		shift := uint(64 - 8*w)
		v = uint64(int64(v<<shift) >> shift)
	}
	return v
}

func (d *dtTile) drainOutQ() {
	for !d.outQ.Empty() {
		msg := d.outQ.Front()
		if d.slotSeq[msg.slot] != msg.seq {
			d.outQ.Pop()
			continue
		}
		if !d.core.injectOPN(d.at, msg) {
			return
		}
		d.outQ.Pop()
	}
}
