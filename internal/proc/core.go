package proc

import (
	"fmt"

	"trips/internal/critpath"
	"trips/internal/isa"
	"trips/internal/micronet"
	"trips/internal/obs"
)

// horizonNever marks "no scheduled event" in NextEventCycle results (the
// shared sentinel; see micronet.MinHorizon for the fold helpers).
const horizonNever = micronet.HorizonNever

// haltAddr is the conventional halt target: a block whose committed exit
// branches to address 0 halts its thread.
const haltAddr = 0

// Config parameterizes one TRIPS core.
type Config struct {
	Program *Program
	Mem     MemBackend
	// Entries holds one entry address per SMT thread (1, 2 or 4 threads).
	Entries []uint64
	// TrackCritPath enables Fields-style critical-path accounting
	// (paper Section 5.4).
	TrackCritPath bool
	// OPNChannels is the number of operand-network channels per link
	// (1 in the prototype; 2 is the paper's proposed bandwidth extension).
	OPNChannels int
	// ConservativeLoads disables the dependence predictor's aggressive
	// issue: every load waits for all prior stores (ablation).
	ConservativeLoads bool
	// SlowOPNRouter adds one cycle of router latency to every OPN
	// delivery, the sensitivity the paper's timing analysis worries about
	// (Section 5.3: "increasing the latency in cycles would have a
	// significant effect on instruction throughput").
	SlowOPNRouter bool
	// MaxCycles bounds the simulation (0 = default bound).
	MaxCycles int64
	// TraceCommits logs every commit and flush (debugging aid).
	TraceCommits bool
	// ExternalMemTick suppresses the core's own memory-system tick so a
	// chip-level loop that shares one backend between two cores can tick
	// it exactly once per cycle.
	ExternalMemTick bool
	// RecordTimeline captures per-block protocol phase times (dispatch,
	// completion, commit command, commit acknowledgment) — the data behind
	// paper Figure 5b.
	RecordTimeline bool
	// NoFastPath selects the reference stepper of DESIGN.md §4, the oracle
	// every other discipline is checked against: every tile ticks every
	// cycle, no tile dozes and Run never warps the clock. The production
	// stepper (idle-tile gating, per-tile doze, clock warping) is
	// bit-identical by construction; this flag exists so the determinism
	// tests can prove it on every workload.
	NoFastPath bool
	// Trace, when non-nil, records block-protocol and operand-network
	// events into the ring. Tracing never mutates simulated state, so a
	// traced run's cycle counts are bit-identical to an untraced one.
	Trace *obs.Tracer
	// Metrics, when non-nil, samples core occupancy series (OPN occupancy,
	// LSQ depth, MSHR outstanding, in-flight blocks) once per sample
	// interval of stepped cycles.
	Metrics *obs.Sampler
}

// BlockTime is one block's protocol timeline (Figure 5b's phases).
type BlockTime struct {
	Seq                                  uint64
	Addr                                 uint64
	Dispatch, Complete, CommitCmd, Acked int64
}

// NumTiles is the tile count per core — the GT plus the IT, RT, ET and DT
// arrays (30 on the prototype) — and the denominator of the per-cycle tile
// tick/skip accounting identity.
const NumTiles = 1 + isa.NumITs + isa.NumRTs + isa.NumETs + isa.NumDTs

// Core is one TRIPS processor core.
type Core struct {
	cfg     Config
	program *Program
	mem     MemBackend

	gt  *gtTile
	its [isa.NumITs]*itTile
	rts [isa.NumRTs]*rtTile
	ets [isa.NumETs]*etTile
	dts [isa.NumDTs]*dtTile

	opns  []*micronet.Mesh[*opnMsg]
	gcn   *micronet.Broadcast[gcnWave]
	gsnRT *micronet.Chain[gsnMsg]
	gsnDT *micronet.Chain[gsnMsg]
	gsnIT *micronet.Chain[gsnMsg]
	dsn   *micronet.BiChain[dsnMsg]

	gcnQueue micronet.Queue[gcnWave]
	// waves is the GCN wave ring: the payload of every command between
	// issueGCN and its delivery at the farthest node, oldest at waveHead.
	// Waves retire in issue order, since the queue and the network are
	// both FIFO.
	waves     [gcnRingSize]gcnMsg
	waveHead  int
	waveCount int

	cycle int64
	// wheel is the delta-cycle event wheel behind scheduleEv: slot
	// cycle&wheelMask holds the events for that cycle. Every dispatch/refill
	// delay is far below wheelSize, so schedOverflow is a never-hit safety
	// net. Wheel slices are reused across revolutions, so steady-state
	// scheduling does not allocate.
	wheel         [wheelSize][]schedEvent
	schedOverflow map[int64][]schedEvent
	// payload holds each frame's dispatch cargo for its wheel events.
	payload [NumSlots]dispatchPayload

	// msgFree pools operand-network messages: the OPN moves one message per
	// dependent instruction pair, making opnMsg the hottest allocation in
	// the simulator. Messages are recycled at their final consumer.
	msgFree []*opnMsg

	// Store-arrival critical-path events per frame (tracked at DT0's view).
	storeEvs [NumSlots]critpath.Event
	storeSeq [NumSlots]uint64

	// Stats.
	CommittedBlocks uint64
	CommittedInsts  uint64
	FlushedBlocks   uint64
	// Warps counts clock-warp jumps; WarpedCycles the dead cycles skipped.
	Warps        uint64
	WarpedCycles int64
	// Per-tile stepping telemetry: across the SteppedCycles cycles this core
	// actually stepped (warped cycles excluded), TileTicks counts tile ticks
	// executed and TileSkips the tile ticks the gating elided (idle or dozing
	// tiles), with TileTicks+TileSkips == NumTiles*SteppedCycles. Host-side
	// observability only — deterministic for a given stepping discipline but
	// different across disciplines, so never part of simulated-state
	// comparisons and never serialized into checkpoints.
	TileTicks     uint64
	TileSkips     uint64
	SteppedCycles int64
	// eventDriven caches !NoFastPath: tiles may doze.
	eventDriven bool
	nonNopCount map[uint64]uint64 // block addr -> useful instruction count

	// Timeline holds per-block protocol phases when RecordTimeline is set.
	Timeline  []BlockTime
	timelineI map[uint64]int // seq -> Timeline index

	// trace and metrics are nil when observability is off; every hot-path
	// hook is a single pointer compare.
	trace   *obs.Tracer
	metrics *obs.Sampler

	// Checkpoint hook: ckptFn fires once at the first block-commit cycle
	// boundary past ckptAt, then disarms. Nil when no checkpoint is armed.
	ckptAt int64
	ckptFn func(cycle int64) error
	// Rollback hook: forwarded to LagConfig.OnRollback by RunLag so
	// observers (the flight recorder) see effect-gate rewinds.
	onRollback func(owner int, from, effect int64)
	// Fault-injection knobs forwarded to LagConfig by RunLag (see
	// LagConfig.HorizonOverride/DeadlinePad). Test/debug only.
	lagHorizonOverride int64
	lagDeadlinePad     int64
}

// NewCore builds a core over the given configuration.
func NewCore(cfg Config) (*Core, error) {
	if cfg.Program == nil {
		return nil, fmt.Errorf("proc: config needs a program")
	}
	if cfg.Mem == nil {
		return nil, fmt.Errorf("proc: config needs a memory backend")
	}
	if len(cfg.Entries) == 0 {
		cfg.Entries = []uint64{cfg.Program.Entry}
	}
	if n := len(cfg.Entries); n != 1 && n != 2 && n != 4 {
		return nil, fmt.Errorf("proc: %d threads unsupported (1, 2 or 4)", n)
	}
	if cfg.OPNChannels == 0 {
		cfg.OPNChannels = 1
	}
	c := &Core{
		cfg:         cfg,
		program:     cfg.Program,
		mem:         cfg.Mem,
		eventDriven: !cfg.NoFastPath,
		nonNopCount: make(map[uint64]uint64),
		timelineI:   make(map[uint64]int),
		trace:       cfg.Trace,
		metrics:     cfg.Metrics,
	}
	for i := 0; i < cfg.OPNChannels; i++ {
		c.opns = append(c.opns, micronet.NewMesh[*opnMsg](fmt.Sprintf("opn%d", i), 5, 5))
		if i < 2 {
			c.opns[i].Attach(cfg.Trace, obs.NetOPN0+uint8(i))
		}
	}
	c.gcn = micronet.NewBroadcast[gcnWave]("gcn", 5, 5)
	c.gsnRT = micronet.NewChain[gsnMsg]("gsn-rt", isa.NumRTs+1)
	c.gsnDT = micronet.NewChain[gsnMsg]("gsn-dt", isa.NumDTs+1)
	c.gsnIT = micronet.NewChain[gsnMsg]("gsn-it", isa.NumITs+1)
	c.dsn = micronet.NewBiChain[dsnMsg]("dsn", isa.NumDTs)

	c.gt = newGT(c)
	for i := range c.its {
		c.its[i] = newIT(c, i)
		c.its[i].port = c.mem.Port(fmt.Sprintf("it%d", i))
	}
	for i := range c.rts {
		c.rts[i] = newRT(c, i)
	}
	for i := range c.ets {
		c.ets[i] = newET(c, i)
	}
	for i := range c.dts {
		c.dts[i] = newDT(c, i)
		c.dts[i].port = c.mem.Port(fmt.Sprintf("dt%d", i))
		if cfg.ConservativeLoads {
			// Saturate the dependence predictor: every load stalls.
			for a := uint64(0); a < 1024; a++ {
				c.dts[i].dep.Mispredicted(a << 3)
			}
			c.dts[i].dep.ClearInterval = 1 << 60
		}
	}
	for a, b := range c.program.blocks {
		n := uint64(0)
		for i := range b.Insts {
			if b.Insts[i].Op != isa.NOP {
				n++
			}
		}
		c.nonNopCount[a] = n
	}
	if sm := cfg.Metrics; sm != nil {
		c.registerMetrics(sm)
	}
	for t, entry := range cfg.Entries {
		c.gt.startThread(t, entry)
	}
	return c, nil
}

// registerMetrics wires the core's occupancy series into a sampler. The
// closures read plain core state, so they must be sampled from the core's
// own stepping goroutine (Step calls Sample).
func (c *Core) registerMetrics(sm *obs.Sampler) {
	for i, m := range c.opns {
		m := m
		sm.Register(fmt.Sprintf("opn%d.occupancy", i), func() int64 { return int64(m.Occupancy()) })
		sm.Register(fmt.Sprintf("opn%d.links_busy", i), func() int64 { return int64(m.LinksBusy()) })
	}
	sm.Register("gsn.busy", func() int64 {
		return int64(c.gsnRT.Busy() + c.gsnDT.Busy() + c.gsnIT.Busy())
	})
	sm.Register("gcn.busy", func() int64 { return int64(c.gcn.Busy()) })
	sm.Register("lsq.occupancy", func() int64 {
		n := 0
		for _, d := range c.dts {
			for _, q := range d.lsqs {
				n += q.Len()
			}
		}
		return int64(n)
	})
	sm.Register("mshr.outstanding", func() int64 {
		n := 0
		for _, d := range c.dts {
			n += d.mshr.Outstanding()
		}
		return int64(n)
	})
	sm.Register("blocks.inflight", func() int64 {
		n := 0
		for s := range c.gt.slots {
			if c.gt.slots[s].valid {
				n++
			}
		}
		return int64(n)
	})
	sm.Register("warped.cycles", func() int64 { return c.WarpedCycles })
}

// traceBlock emits one block-protocol lifecycle event (nil-gated; callers
// on the hot path should guard with c.trace != nil themselves when they
// need to avoid computing arguments).
func (c *Core) traceBlock(kind obs.Kind, slot int, seq, addr uint64, cat critpath.Cat) {
	if c.trace == nil {
		return
	}
	var tag uint8
	if c.cfg.TrackCritPath {
		tag = uint8(cat) + 1
	}
	c.trace.Emit(obs.Event{
		Cycle: c.cycle, Seq: seq, Addr: addr,
		Kind: kind, Cat: tag, Slot: int16(slot),
	})
}

func (c *Core) activeThreads() int { return len(c.cfg.Entries) }

// Cycle returns the current cycle number.
func (c *Core) Cycle() int64 { return c.cycle }

// newEvent creates a critical-path event, or the zero "no event" when
// tracking is off.
func (c *Core) newEvent(cycle int64, parent critpath.Event, split critpath.Split, rem critpath.Cat) critpath.Event {
	if !c.cfg.TrackCritPath {
		return critpath.Event{}
	}
	return critpath.At(cycle, parent, split, rem)
}

// The event wheel replaces a map[int64][]func() of closures: GDN/GRN
// delivery delays are all bounded by a couple dozen cycles, so a
// power-of-two ring indexed by cycle&wheelMask covers every real schedule
// without hashing or per-event closure allocation.
const (
	wheelSize = 64
	wheelMask = wheelSize - 1
)

// evKind discriminates wheel events.
type evKind uint8

const (
	evBodyInst   evKind = iota // GDN body beat -> ET reservation station
	evHeaderBeat               // GDN header beat -> RT read/write queues
	evStoreMask                // store mask arrival at a DT
	evRefill                   // GRN refill command at an IT
	evSlowOPN                  // delayed OPN delivery (SlowOPNRouter ablation)
)

// schedEvent is one future delivery, interpreted by kind. It carries only
// indices: a GDN beat names its frame and position, and the instruction or
// header entry it delivers stays in the frame's dispatchPayload, written
// once per dispatch.
type schedEvent struct {
	kind evKind
	tile uint8  // receiving tile: ET, RT, DT or IT index by kind
	slot uint8  // block frame
	idx  uint8  // body: instruction index; header: beat number
	mask uint32 // evStoreMask: the block's store mask
	seq  uint64 // block seq; evRefill reuses it for the block address

	// evSlowOPN: the delayed delivery.
	at  micronet.Coord
	msg *opnMsg
}

// dispatchPayload is one frame's GDN cargo: the block's instructions and
// header entries and its dispatch critical-path event. scheduleDispatch
// rewrites it only while binding every tile's frame to the new block, so a
// wheel event whose seq still matches its tile's frame reads its own
// block's payload; a stale event fails that check before touching it.
type dispatchPayload struct {
	insts  [isa.MaxBlockInsts]isa.Inst
	reads  [isa.MaxBlockReads]isa.ReadInst
	writes [isa.MaxBlockWrites]isa.WriteInst
	ev     critpath.Event
}

// scheduleEv registers an event to run at the start of the given cycle.
func (c *Core) scheduleEv(cycle int64, e schedEvent) {
	if cycle <= c.cycle {
		cycle = c.cycle + 1
	}
	if cycle-c.cycle >= wheelSize {
		if c.schedOverflow == nil {
			c.schedOverflow = make(map[int64][]schedEvent)
		}
		c.schedOverflow[cycle] = append(c.schedOverflow[cycle], e)
		return
	}
	c.wheel[cycle&wheelMask] = append(c.wheel[cycle&wheelMask], e)
}

// runEvents fires the events scheduled for this cycle, in schedule order.
// Handlers never schedule for the current cycle (scheduleEv clamps to
// cycle+1) and never reach delta wheelSize, so the slot cannot grow while
// it runs.
func (c *Core) runEvents(now int64) {
	slot := &c.wheel[now&wheelMask]
	if evs := *slot; len(evs) > 0 {
		*slot = evs[:0]
		for i := range evs {
			c.runEvent(now, &evs[i])
			evs[i] = schedEvent{}
		}
	}
	if len(c.schedOverflow) > 0 {
		if evs, ok := c.schedOverflow[now]; ok {
			delete(c.schedOverflow, now)
			for i := range evs {
				c.runEvent(now, &evs[i])
			}
		}
	}
}

// runEvent fires one wheel event. Each GDN delivery checks that its
// tile's frame still holds the event's block before reading the frame's
// payload: after a flush rebinds the slot, the payload is the new block's.
func (c *Core) runEvent(now int64, e *schedEvent) {
	slot := int(e.slot)
	switch e.kind {
	case evBodyInst:
		et := c.ets[e.tile]
		et.wake()
		if et.slotSeq[slot] != e.seq {
			return // stale dispatch (frame was flushed and rebound)
		}
		p := &c.payload[slot]
		et.deliverInst(slot, int(e.idx), &p.insts[e.idx], c.newEvent(now, p.ev, critpath.Split{}, critpath.CatIFetch))
	case evHeaderBeat:
		rt := c.rts[e.tile]
		rt.active = true
		if rt.slotSeq[slot] != e.seq {
			return
		}
		p := &c.payload[slot]
		j := int(e.idx)*isa.NumRTs + rt.id
		rt.deliverHeaderBeat(slot, int(e.idx), p.reads[j], p.writes[j], c.newEvent(now, p.ev, critpath.Split{}, critpath.CatIFetch))
	case evStoreMask:
		d := c.dts[e.tile]
		d.wake()
		if d.slotSeq[slot] == e.seq {
			d.storeMask[slot] = e.mask
			d.maskKnown[slot] = true
			d.bindEv[slot] = c.newEvent(now, c.payload[slot].ev, critpath.Split{}, critpath.CatIFetch)
			if c.trace != nil {
				c.trace.Emit(obs.Event{
					Cycle: now, Seq: e.seq, Arg: uint64(d.id),
					Kind: obs.KindStoreMask, Slot: int16(slot),
				})
			}
		}
	case evRefill:
		it := c.its[e.tile]
		it.active = true
		it.onRefill(e.seq)
	case evSlowOPN:
		c.routeDelivered(now, e.at, e.msg)
	}
}

// newOPNMsg takes a message from the pool (or allocates one).
func (c *Core) newOPNMsg() *opnMsg {
	if n := len(c.msgFree); n > 0 {
		m := c.msgFree[n-1]
		c.msgFree = c.msgFree[:n-1]
		return m
	}
	return &opnMsg{}
}

// freeOPNMsg recycles a message whose final consumer has fully read it.
// Messages dropped on staleness/flush paths are deliberately NOT freed (the
// GC reclaims them): a flushed load's message can still be referenced from
// an MSHR waiter list, and leaking the rare flushed message is cheaper than
// proving every such path free of aliases.
func (c *Core) freeOPNMsg(m *opnMsg) {
	*m = opnMsg{}
	c.msgFree = append(c.msgFree, m)
}

// opnChannel selects the channel for a message (bandwidth ablation).
// Memory operations hash by cache line only, so accesses that could
// conflict (same line) stay ordered on one channel; operand deliveries
// spread by consumer.
func (c *Core) opnChannel(msg *opnMsg) *micronet.Mesh[*opnMsg] {
	if len(c.opns) == 1 {
		return c.opns[0]
	}
	var h uint64
	if msg.kind == opnLoadReq || msg.kind == opnStoreReq {
		h = msg.addr >> 6
	} else {
		h = uint64(msg.slot) + uint64(msg.target.Index)
	}
	return c.opns[h%uint64(len(c.opns))]
}

// injectOPN offers a message to the operand network.
func (c *Core) injectOPN(at micronet.Coord, msg *opnMsg) bool {
	return c.opnChannel(msg).Inject(at, msg)
}

// deliverOPN pops the next message delivered to a coordinate (GT pull).
func (c *Core) deliverOPN(at micronet.Coord) (*opnMsg, bool) {
	for _, m := range c.opns {
		if msg, ok := m.Deliver(at); ok {
			m.Pop(at)
			return msg, true
		}
	}
	return nil, false
}

// issueGCN queues a control command for broadcast (one launches per cycle;
// the queue is how commit commands pipeline, paper Section 4.4). The
// command is stored in the wave ring; the queue and network carry its id.
func (c *Core) issueGCN(msg gcnMsg) {
	if c.waveCount == gcnRingSize {
		panic(fmt.Sprintf("proc: GCN wave ring overflow: %d commands in flight", c.waveCount))
	}
	id := (c.waveHead + c.waveCount) % gcnRingSize
	c.waves[id] = msg
	c.waveCount++
	c.gcnQueue.Push(gcnWave(id))
}

// retireWave frees the ring entry of a wave the farthest node has applied.
func (c *Core) retireWave(id gcnWave) {
	if c.waveCount == 0 || int(id) != c.waveHead {
		panic(fmt.Sprintf("proc: GCN wave %d retired out of order (oldest %d, %d in flight)", id, c.waveHead, c.waveCount))
	}
	c.waveHead = (c.waveHead + 1) % gcnRingSize
	c.waveCount--
}

func (c *Core) canIssueGCN() bool { return true }

// issueGRN starts a distributed I-cache refill: the refill address reaches
// IT k after 1+k cycles (paper Section 4.1).
func (c *Core) issueGRN(addr uint64) {
	for k := range c.its {
		c.scheduleEv(c.cycle+1+int64(k), schedEvent{kind: evRefill, tile: uint8(k), seq: addr})
	}
}

// noteStoreEv tracks the last-arriving store event per frame, from DT0's
// DSN-complete view, for completion-phase attribution.
func (c *Core) noteStoreEv(slot int, seq uint64, ev critpath.Event) {
	if c.storeSeq[slot] != seq {
		c.storeEvs[slot] = critpath.Event{}
		c.storeSeq[slot] = seq
	}
	c.storeEvs[slot] = critpath.Latest(c.storeEvs[slot], ev)
}

func (c *Core) storeEv(slot int, seq uint64) critpath.Event {
	if c.storeSeq[slot] != seq {
		return critpath.Event{}
	}
	return c.storeEvs[slot]
}

// onBlockRetired records commit statistics.
func (c *Core) onBlockRetired(addr uint64) {
	c.CommittedBlocks++
	c.CommittedInsts += c.nonNopCount[addr]
}

// markTimeline records one protocol phase for a block.
func (c *Core) markTimeline(seq, addr uint64, phase string) {
	if !c.cfg.RecordTimeline {
		return
	}
	i, ok := c.timelineI[seq]
	if !ok {
		i = len(c.Timeline)
		c.Timeline = append(c.Timeline, BlockTime{Seq: seq, Addr: addr, Dispatch: -1, Complete: -1, CommitCmd: -1, Acked: -1})
		c.timelineI[seq] = i
	}
	bt := &c.Timeline[i]
	switch phase {
	case "dispatch":
		bt.Dispatch = c.cycle
	case "complete":
		bt.Complete = c.cycle
	case "commit":
		bt.CommitCmd = c.cycle
	case "acked":
		bt.Acked = c.cycle
	}
}

// scheduleDispatch plays out the pipelined GDN instruction distribution for
// one block (paper Section 4.1): the GT issues eight beat commands on
// consecutive cycles; ITs read their banks and stream four instructions per
// cycle eastward across their rows.
func (c *Core) scheduleDispatch(now int64, slot int, seq uint64, thread int, addr uint64, hdr *isa.HeaderInfo, dispEv critpath.Event) {
	// The instruction payloads come from the IT banks (refilled over the
	// GRN), not from the program map: the ITs are the architects of what
	// actually executes. They land in the frame's payload once; the beats
	// scheduled below carry only their positions in it.
	p := &c.payload[slot]
	for chunk := 0; chunk < hdr.BodyChunks; chunk++ {
		insts, err := c.its[chunk+1].bodyOf(addr)
		if err != nil {
			panic(fmt.Sprintf("proc: dispatch without chunk %d: %v", chunk, err))
		}
		copy(p.insts[chunk*isa.BodyChunkInsts:], insts[:])
	}
	p.reads = hdr.Reads
	p.writes = hdr.Writes
	p.ev = dispEv

	// Control-state binding happens as the dispatch command leaves the GT;
	// per-payload timing below models the pipelined distribution.
	for _, e := range c.ets {
		e.bindSlot(slot, seq, thread)
	}
	for _, r := range c.rts {
		r.bindSlot(slot, seq, thread)
	}
	for _, d := range c.dts {
		d.bindSlot(slot, seq, thread, 0)
		d.maskKnown[slot] = false
	}
	// The store mask reaches each DT a few cycles into dispatch.
	mask := hdr.StoreMask
	for i, d := range c.dts {
		c.scheduleEv(now+3+int64(i), schedEvent{
			kind: evStoreMask, tile: uint8(d.id), slot: uint8(slot), seq: seq, mask: mask,
		})
	}

	// Header beats: IT0 feeds row 0. Beat b carries read and write queue
	// entries with index b*4+rt for each RT (column rt+1).
	it0 := gdnCmdToIT + itBankCycles
	for b := 0; b < dispatchBeats; b++ {
		for rt := 0; rt < isa.NumRTs; rt++ {
			arrive := now + int64(it0+b+(rt+1)+1)
			c.scheduleEv(arrive, schedEvent{
				kind: evHeaderBeat, tile: uint8(rt), slot: uint8(slot), seq: seq, idx: uint8(b),
			})
		}
	}

	// Body beats: IT k+1 feeds ET row k with chunk k. Beat b carries chunk
	// positions b*4..b*4+3, one per column.
	for chunk := 0; chunk < hdr.BodyChunks; chunk++ {
		itk := gdnCmdToIT + (chunk + 1) + itBankCycles
		for b := 0; b < dispatchBeats; b++ {
			for col := 0; col < 4; col++ {
				idx := chunk*isa.BodyChunkInsts + b*4 + col
				if idx >= hdr.NumInsts {
					continue
				}
				arrive := now + int64(itk+b+(col+1)+1)
				c.scheduleEv(arrive, schedEvent{
					kind: evBodyInst, tile: uint8(isa.ETOf(idx)), slot: uint8(slot), seq: seq, idx: uint8(idx),
				})
			}
		}
	}
}

// Step advances the core (and its memory system) by one cycle.
//
// The fast-path discipline: a tile ticks only when it has registered work
// (its active flag, set by every delivery/wake path and cleared by the tile
// itself once provably idle) or when its status chain carries traffic the
// tile must forward. Skipped ticks are exactly the ticks that would have
// been no-ops under the original tick-everything loop, so simulated cycle
// counts and all stats are bit-identical; cfg.NoFastPath restores the full
// scan for the determinism regression tests.
func (c *Core) Step() {
	now := c.cycle
	full := c.cfg.NoFastPath
	// Scheduled GDN/GRN deliveries land first.
	c.runEvents(now)
	// Route the operand network, then hand deliveries to the tiles.
	for _, m := range c.opns {
		m.Tick()
	}
	c.pumpOPNDeliveries(now)
	// Control network wave and command delivery.
	c.gcn.Tick()
	c.pumpGCNDeliveries(now)
	c.dsn.Tick()
	// A tile must tick while its chain carries traffic: chain clients
	// forward and consume chain messages inside their own ticks.
	itBusy := full || !c.gsnIT.Quiet()
	rtBusy := full || !c.gsnRT.Quiet()
	dtBusy := full || !c.gsnDT.Quiet() || !c.dsn.Quiet() || c.dsn.Pending() > 0
	// Tiles. Under event-driven stepping (the per-tile clock-domain split) a
	// tile whose remaining work is provably deadline-held dozes — it skips
	// ticks until its wake cycle or an incoming delivery, whichever is first.
	// A skipped tick is exactly a tick that would have been a no-op, so
	// simulated state stays bit-identical to the tick-active-every-cycle
	// discipline; TileTicks/TileSkips record the split for telemetry.
	ed := c.eventDriven
	if !ed || c.gt.wakeAt <= now || c.gtDeliverable() {
		c.gt.tick(now)
		c.TileTicks++
	} else {
		c.TileSkips++
	}
	for _, it := range c.its {
		if it.active || itBusy {
			it.tick(now)
			c.TileTicks++
		} else {
			c.TileSkips++
		}
	}
	for _, r := range c.rts {
		if r.active || rtBusy {
			r.tick(now)
			c.TileTicks++
		} else {
			c.TileSkips++
		}
	}
	for _, e := range c.ets {
		switch {
		case full:
			e.tick(now)
			c.TileTicks++
		case !e.active || (ed && e.wakeAt > now):
			c.TileSkips++
		default:
			e.tick(now)
			c.TileTicks++
		}
	}
	for _, d := range c.dts {
		switch {
		case dtBusy:
			d.tick(now)
			c.TileTicks++
		case !d.active || (ed && d.wakeAt > now):
			c.TileSkips++
		default:
			d.tick(now)
			c.TileTicks++
		}
	}
	// Launch at most one queued GCN command per cycle.
	if !c.gcnQueue.Empty() && c.gcn.CanInject() {
		if c.gcn.Inject(c.gcnQueue.Front()) {
			c.gcnQueue.Pop()
		}
	}
	// Advance all transports.
	for _, m := range c.opns {
		m.Propagate()
	}
	c.gcn.Propagate()
	c.gsnRT.Propagate()
	c.gsnDT.Propagate()
	c.gsnIT.Propagate()
	c.dsn.Propagate()
	if !c.cfg.ExternalMemTick {
		c.mem.Tick()
	}
	if sm := c.metrics; sm != nil {
		sm.Sample(now)
	}
	c.SteppedCycles++
	c.cycle++
}

// gtDeliverable reports whether a message is waiting for the GT right now:
// a status message at the head of any GSN chain, or an operand-network
// delivery addressed to the GT's node. A dozing GT must tick on any of
// these — its doze horizon (warpIdle) is only valid while no delivery can
// reach it, exactly the contract the whole-core warp gate establishes
// globally and this check establishes per-cycle.
func (c *Core) gtDeliverable() bool {
	if _, ok := c.gsnRT.Recv(0); ok {
		return true
	}
	if _, ok := c.gsnDT.Recv(0); ok {
		return true
	}
	if _, ok := c.gsnIT.Recv(0); ok {
		return true
	}
	for _, m := range c.opns {
		if m.PendingDeliveries() == 0 {
			continue
		}
		if _, ok := m.Deliver(gtCoord()); ok {
			return true
		}
	}
	return false
}

// pumpOPNDeliveries routes delivered operand-network messages into ET and
// RT state (the GT and DTs pull from their own queues).
func (c *Core) pumpOPNDeliveries(now int64) {
	for _, m := range c.opns {
		if m.PendingDeliveries() == 0 {
			continue
		}
		for row := 0; row < 5; row++ {
			for col := 0; col < 5; col++ {
				at := micronet.Coord{Row: row, Col: col}
				if at == gtCoord() {
					continue // the GT pulls in its own tick
				}
				for {
					msg, ok := m.Deliver(at)
					if !ok {
						break
					}
					m.Pop(at)
					if c.cfg.SlowOPNRouter {
						c.scheduleEv(now+1, schedEvent{kind: evSlowOPN, at: at, msg: msg})
						continue
					}
					c.routeDelivered(now, at, msg)
				}
			}
		}
	}
}

func (c *Core) routeDelivered(now int64, at micronet.Coord, msg *opnMsg) {
	switch {
	case at.Col == 0:
		// DT column: memory requests queue for the one-per-cycle LSQ port.
		c.dts[at.Row-1].enqueue(msg)
	case at.Row == 0:
		// RT row: register write values (and read-to-write copies).
		if msg.kind != opnOperand || !msg.target.IsWrite() {
			panic("proc: RT received non-write OPN message")
		}
		ev := c.newEvent(now, msg.ev, critpath.Split{
			critpath.CatOPNHop:        int64(msg.hops),
			critpath.CatOPNContention: int64(msg.waits),
		}, critpath.CatOPNHop)
		// Write entry j lives at local queue slot j/4 of RT j%4.
		c.rts[at.Col-1].deliverWrite(now, msg.slot, msg.seq, isa.RTSlotOf(msg.target.Index), msg.val, ev)
		if c.trace != nil {
			c.traceOperand(now, at, msg)
		}
		c.freeOPNMsg(msg)
	default:
		// ET array: operand deliveries.
		if msg.kind != opnOperand {
			panic("proc: ET received non-operand OPN message")
		}
		ev := c.newEvent(now, msg.ev, critpath.Split{
			critpath.CatOPNHop:        int64(msg.hops),
			critpath.CatOPNContention: int64(msg.waits),
		}, critpath.CatOPNHop)
		et := (at.Row-1)*4 + (at.Col - 1)
		c.ets[et].deliverOperand(msg.slot, msg.seq, msg.target, msg.val, ev)
		if c.trace != nil {
			c.traceOperand(now, at, msg)
		}
		c.freeOPNMsg(msg)
	}
}

// traceOperand records one operand delivery with its transport cost (hops
// and contention waits packed into Arg).
func (c *Core) traceOperand(now int64, at micronet.Coord, msg *opnMsg) {
	var tag uint8
	if c.cfg.TrackCritPath {
		tag = uint8(critpath.CatOPNHop) + 1
	}
	c.trace.Emit(obs.Event{
		Cycle: now, Seq: msg.seq, Addr: obs.PackCoord(at.Row, at.Col),
		Arg:  obs.PackPair(msg.hops, msg.waits),
		Kind: obs.KindOperand, Cat: tag, Slot: int16(msg.slot),
	})
}

// pumpGCNDeliveries hands arriving control commands to every tile.
func (c *Core) pumpGCNDeliveries(now int64) {
	if c.gcn.Pending() == 0 {
		return
	}
	for row := 0; row < 5; row++ {
		for col := 0; col < 5; col++ {
			at := micronet.Coord{Row: row, Col: col}
			for {
				id, ok := c.gcn.Deliver(at)
				if !ok {
					break
				}
				c.gcn.Pop(at)
				c.applyGCN(now, at, &c.waves[id])
				if at == gcnLastCoord() {
					c.retireWave(id)
				}
			}
		}
	}
}

func (c *Core) applyGCN(now int64, at micronet.Coord, cmd *gcnMsg) {
	if at == gtCoord() {
		return // the GT issued it
	}
	switch cmd.kind {
	case gcnCommit:
		switch {
		case at.Row == 0:
			c.rts[at.Col-1].onCommitCommand(now, cmd.slot, cmd.seq, cmd.ev)
		case at.Col == 0:
			c.dts[at.Row-1].onCommitCommand(now, cmd.slot, cmd.seq, cmd.ev)
		default:
			et := (at.Row-1)*4 + (at.Col - 1)
			c.ets[et].onCommit(cmd.slot, cmd.seq)
		}
	case gcnFlush:
		for s := 0; s < NumSlots; s++ {
			if cmd.mask&(1<<uint(s)) == 0 {
				continue
			}
			switch {
			case at.Row == 0:
				c.rts[at.Col-1].flush(s, cmd.seqs[s])
			case at.Col == 0:
				c.dts[at.Row-1].flush(s, cmd.seqs[s])
			default:
				et := (at.Row-1)*4 + (at.Col - 1)
				c.ets[et].flush(s, cmd.seqs[s])
			}
		}
	}
}

// Result summarizes a finished run.
type Result struct {
	Cycles          int64
	CommittedBlocks uint64
	CommittedInsts  uint64
	Flushes         uint64
	Mispredicts     uint64
	Violations      uint64
	IPC             float64
	CritPath        critpath.Report
}

// EventHorizon is optionally implemented by memory backends that can
// fast-forward through idle time. Quiet reports that the backend's next tick
// would do no per-cycle work beyond checking deadline-held completions;
// NextEventCycle returns the earliest backend cycle holding such a
// completion (horizonNever when none is outstanding) — note the backend
// clock runs one ahead of its owner's, so the owner services a backend event
// at cycle R during its own step at cycle R-1; Warp advances the backend
// clock by delta cycles, replaying whatever deterministic state changes the
// skipped ticks would have made (the caller guarantees delta never crosses a
// reported deadline).
//
// Quiet does not mean drained: a backend may report quiet with work in
// flight, as long as every outstanding action resolves at a deadline
// NextEventCycle accounts for — a drain deadline rather than a busy flag.
// nuca.System uses this to let the clock warp across a memory round-trip
// whose only traffic is a single OCN message in transit, whose per-hop
// progress Warp replays exactly.
type EventHorizon interface {
	Quiet() bool
	NextEventCycle() int64
	Warp(delta int64)
}

// Quiescent reports whether the core's next Step would be a pure no-op
// absent scheduled events: every micronet quiet with nothing awaiting
// delivery, no queued GCN command, every tile idle, and the GT in a
// pure-wait state. When the core is quiescent its entire future is a
// function of deadline-held events — the wheel, the GT's fetch-stage
// deadlines, and memory-system completions — so the clock may warp to the
// earliest such horizon (NextEventCycle) without changing any simulated
// outcome.
func (c *Core) Quiescent() bool {
	for _, m := range c.opns {
		if !m.Quiet() {
			return false
		}
	}
	if !c.gcn.Quiet() || c.gcn.Pending() > 0 || !c.gcnQueue.Empty() {
		return false
	}
	if !c.gsnRT.Quiet() || !c.gsnDT.Quiet() || !c.gsnIT.Quiet() {
		return false
	}
	if !c.dsn.Quiet() || c.dsn.Pending() > 0 {
		return false
	}
	for _, it := range c.its {
		if it.active {
			return false
		}
	}
	for _, r := range c.rts {
		if r.active {
			return false
		}
	}
	// A dozing ET or DT counts as quiescent: its remaining work resolves at
	// a wake deadline NextEventCycle folds in, so warping up to that horizon
	// skips only cycles the tile would have skipped anyway. This is how the
	// per-tile clock-domain split generalizes the whole-core warp — a core
	// whose only activity is an ET waiting out a divide or a DT waiting out
	// cache-hit latency can now warp through the wait.
	for _, e := range c.ets {
		if e.active && !(c.eventDriven && e.wakeAt > c.cycle) {
			return false
		}
	}
	for _, d := range c.dts {
		if d.active && !(c.eventDriven && d.wakeAt > c.cycle) {
			return false
		}
	}
	_, ok := c.gt.warpIdle(c.cycle)
	return ok
}

// NextEventCycle returns the earliest future cycle at which a core-internal
// scheduled event fires: the event wheel, its overflow safety map, and the
// GT's deadline-held fetch stages. horizonNever when nothing is scheduled.
// Only meaningful on a Quiescent core (otherwise per-cycle work exists that
// no deadline describes).
func (c *Core) NextEventCycle() int64 {
	h := horizonNever
	for delta := int64(0); delta < wheelSize; delta++ {
		if len(c.wheel[(c.cycle+delta)&wheelMask]) > 0 {
			h = c.cycle + delta
			break
		}
	}
	for cyc := range c.schedOverflow {
		h = micronet.MinHorizon(h, cyc)
	}
	if gh, ok := c.gt.warpIdle(c.cycle); ok {
		h = micronet.MinHorizon(h, gh)
	}
	// Dozing tiles hold deadline-bound work; their wake cycles are events.
	if c.eventDriven {
		for _, e := range c.ets {
			if e.active && e.wakeAt > c.cycle {
				h = micronet.MinHorizon(h, e.wakeAt)
			}
		}
		for _, d := range c.dts {
			if d.active && d.wakeAt > c.cycle {
				h = micronet.MinHorizon(h, d.wakeAt)
			}
		}
	}
	return h
}

// WarpTo jumps the core clock to target. The caller must have established
// quiescence and that no event fires before target: every skipped cycle is
// then exactly a no-op Step, whose only state change — the operand meshes'
// arbitration counters — is replayed here so post-warp arbitration matches
// an unwarped run bit for bit.
func (c *Core) WarpTo(target int64) {
	delta := target - c.cycle
	if delta <= 0 {
		return
	}
	for _, m := range c.opns {
		m.SkipTicks(delta)
	}
	c.cycle = target
}

// RewindTo is the inverse of WarpTo for a warp-only segment: it moves the
// core clock back to target and un-replays the operand meshes' skipped
// arbitration ticks. It is only sound when every cycle in [target, cycle)
// was reached by WarpTo — a warped cycle is exactly a no-op Step, so
// undoing the mesh tick counters restores the pre-warp state bit for bit.
// The bounded-lag coordinator uses this to roll a core back to the effect
// cycle of a response that arrived earlier than its stride assumed.
func (c *Core) RewindTo(target int64) {
	delta := c.cycle - target
	if delta <= 0 {
		return
	}
	for _, m := range c.opns {
		m.RewindTicks(delta)
	}
	c.cycle = target
	c.WarpedCycles -= delta
}

// respCycle is the cycle a memory response is serviced in, as seen from
// its Done callback: the step in progress when the core ticks its own
// backend, or the step just finished when an outside loop (the chip, the
// bounded-lag coordinator) ticks the backend between core steps. Stamping
// critical-path events with it keeps the attribution identical under
// every stepper.
func (c *Core) respCycle() int64 {
	if c.cfg.ExternalMemTick {
		return c.cycle - 1
	}
	return c.cycle
}

// drainsIdle reports whether every DT has finished pushing committed
// stores into its bank (the background tail of the commit protocol).
func (c *Core) drainsIdle() bool {
	for _, d := range c.dts {
		if d.drainOrder.Len() > 0 || d.wb.valid || len(d.uncachedSt) > 0 {
			return false
		}
	}
	return true
}

// DefaultMaxCycles is the simulated-cycle budget of a run whose
// configuration leaves MaxCycles zero.
const DefaultMaxCycles = 200_000_000

// CommitWatchdog is the number of cycles without a block commit after
// which a run gives up and reports a deadlock.
const CommitWatchdog = 200_000

// DeadlockError is the commit watchdog's error: no block committed in
// CommitWatchdog cycles, as of the given cycle.
func DeadlockError(cycle int64, committed uint64) error {
	return fmt.Errorf("proc: no commit in %d cycles at cycle %d (%d blocks committed): deadlock", CommitWatchdog, cycle, committed)
}

// limitError is the error of a run that passed its cycle limit with work
// outstanding.
func limitError(limit int64, committed uint64) error {
	return fmt.Errorf("proc: cycle limit %d exceeded (%d blocks committed)", limit, committed)
}

// Run executes until every thread halts and all committed stores have
// drained, returning summary statistics. This is the sequential
// interleave: each cycle steps the core, which ticks its memory backend.
func (c *Core) Run() (Result, error) {
	limit := c.cfg.MaxCycles
	if limit == 0 {
		limit = DefaultMaxCycles
	}
	lastCommit := c.cycle
	lastCount := c.CommittedBlocks
	eh, hasEH := c.mem.(EventHorizon)
	warp := hasEH && !c.cfg.NoFastPath && !c.cfg.ExternalMemTick
	for !(c.gt.allRetired() && c.drainsIdle()) {
		// Quiescent() is checked first: it fails O(1) on the first busy
		// operand mesh, which is the common case on a loaded core, while
		// the backend's Quiet() walks its banks and ports.
		if warp && c.Quiescent() && eh.Quiet() {
			h := c.NextEventCycle()
			// The backend clock runs one ahead: its event at cycle R is
			// serviced during our step at R-1.
			h = micronet.FoldBackendHorizon(h, eh.NextEventCycle())
			// Clamp so the limit check and commit watchdog below fire at
			// exactly the cycles an unwarped run would report. The clamps
			// also convert a horizonNever result (deadlock: nothing
			// scheduled anywhere) into a warp straight to the nearer
			// boundary, where the same checks fire as in an unwarped run.
			if h > limit {
				h = limit
			}
			if wl := lastCommit + CommitWatchdog; h > wl {
				h = wl
			}
			if h > c.cycle {
				c.Warps++
				c.WarpedCycles += h - c.cycle
				eh.Warp(h - c.cycle)
				c.WarpTo(h)
			}
		}
		// The step at cycle == limit still runs (a core retiring during
		// that very cycle succeeds); the error fires only once the clock
		// has passed the limit with blocks outstanding.
		if c.cycle > limit {
			return Result{}, limitError(limit, c.CommittedBlocks)
		}
		c.Step()
		if c.CommittedBlocks != lastCount {
			lastCount = c.CommittedBlocks
			lastCommit = c.cycle
			if c.ckptFn != nil && c.cycle > c.ckptAt {
				fn := c.ckptFn
				c.ckptFn = nil
				if err := fn(c.cycle); err != nil {
					return Result{}, fmt.Errorf("proc: checkpoint at cycle %d: %w", c.cycle, err)
				}
			}
		} else if c.cycle-lastCommit > CommitWatchdog {
			return Result{}, DeadlockError(c.cycle, c.CommittedBlocks)
		}
	}
	return c.buildResult()
}

// buildResult summarizes a finished run for Run and the bounded-lag
// runners: Result, failing with a *critpath.OverflowError when the critical
// path outran its counters.
func (c *Core) buildResult() (Result, error) {
	if c.cfg.TrackCritPath {
		if _, err := critpath.Finish(c.gt.lastCommitEv); err != nil {
			return Result{}, fmt.Errorf("proc: %w", err)
		}
	}
	return c.Result(), nil
}

// Done reports whether every thread has halted with all blocks retired and
// all committed stores drained.
func (c *Core) Done() bool { return c.gt.allRetired() && c.drainsIdle() }

// SetCheckpointHook arms fn to run once, at the first cycle boundary after
// `at` at which a block committed during the preceding cycle. Committing is
// the quiesce point of the distributed protocols: at that boundary every
// tile's state is a pure function of the architecture, so a checkpoint
// taken there restores bit-identically. fn receives the capture cycle.
func (c *Core) SetCheckpointHook(at int64, fn func(cycle int64) error) {
	c.ckptAt = at
	c.ckptFn = fn
}

// SetRollbackHook arms fn to observe bounded-lag effect-gate rewinds when
// this core runs under RunLag: owner is the memory-port owner id,
// from the cycle the core had run ahead to, effect the rewound-to cycle.
// Observability only — fn must not touch simulated state.
func (c *Core) SetRollbackHook(fn func(owner int, from, effect int64)) {
	c.onRollback = fn
}

// SetLagFaults sets the bounded-lag fault-injection knobs RunLag forwards
// to the coordinator: horizonOverride forces every stride
// horizon to G+n, deadlinePad overshoots every response deadline by n
// cycles (see LagConfig). Both make rollbacks reachable on demand while
// results stay bit-identical; never set them outside tests or debugging
// walkthroughs.
func (c *Core) SetLagFaults(horizonOverride, deadlinePad int64) {
	c.lagHorizonOverride = horizonOverride
	c.lagDeadlinePad = deadlinePad
}

// Result returns the current run statistics (used by chip-level loops
// that step cores manually instead of calling Run). A critical path that
// outran its counters leaves CritPath empty here; Run and RunLag report it
// as an error.
func (c *Core) Result() Result {
	res := Result{
		Cycles:          c.cycle,
		CommittedBlocks: c.CommittedBlocks,
		CommittedInsts:  c.CommittedInsts,
		Flushes:         c.gt.Flushes,
		Mispredicts:     c.gt.Mispredicts,
		Violations:      c.gt.ViolationFlushes,
	}
	if res.Cycles > 0 {
		res.IPC = float64(res.CommittedInsts) / float64(res.Cycles)
	}
	if c.cfg.TrackCritPath && c.gt.lastCommitEv.Valid() {
		res.CritPath, _ = critpath.Finish(c.gt.lastCommitEv)
	}
	return res
}

// Register reads an architectural register after (or during) a run.
func (c *Core) Register(thread, r int) uint64 {
	return c.rts[r%4].regs[thread][r/4]
}

// SetRegister initializes an architectural register before a run.
func (c *Core) SetRegister(thread, r int, v uint64) {
	c.rts[r%4].regs[thread][r/4] = v
}

// FlushCaches writes all dirty data-cache lines back to memory so final
// results are visible in the backing store, retrying submissions that the
// port backpressures and ticking the memory system until they land.
func (c *Core) FlushCaches() {
	// Drain the commit pipelines and write buffers into the banks first.
	for i := 0; i < 1_000_000; i++ {
		busy := false
		for _, d := range c.dts {
			if d.drainOrder.Len() > 0 || d.wb.valid {
				busy = true
				d.pumpDrain(c.cycle)
				d.pumpFetch()
				d.drainWriteBuffer()
			}
		}
		if !busy {
			break
		}
		c.mem.Tick()
	}
	outstanding := 0
	for _, d := range c.dts {
		for _, v := range d.bank.DirtyLines() {
			req := &MemRequest{Addr: v.Addr, Data: v.Data, IsWrite: true,
				Done: func([]byte) { outstanding-- }}
			outstanding++
			for !d.port.Submit(req) {
				c.mem.Tick()
			}
		}
	}
	for i := 0; outstanding > 0 && i < 1_000_000; i++ {
		c.mem.Tick()
	}
}
