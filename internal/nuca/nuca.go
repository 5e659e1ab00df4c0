// Package nuca implements the TRIPS secondary memory system (paper
// Section 3.6): a 1MB static NUCA array of sixteen memory tiles (MTs), each
// a 4-way 64KB bank with an on-chip-network router and a single-entry MSHR,
// embedded in a 4x10 wormhole-routed OCN mesh with 16-byte links. Network
// tiles (NTs) around the array hold programmable routing tables that
// translate memory-system requests, letting a programmer configure the
// array as a single shared L2, as two independent 512KB L2s, or as on-chip
// scratchpad memory. Two SDRAM controllers (SDCs) sit at the mesh ends.
//
// The package satisfies proc.MemBackend, so a core's DT and IT ports plug
// directly into the OCN, each IT/DT pair getting its own private port as in
// the prototype.
package nuca

import (
	"fmt"
	"math"

	"trips/internal/cache"
	"trips/internal/mem"
	"trips/internal/micronet"
	"trips/internal/obs"
	"trips/internal/proc"
)

// horizonNever means no deadline-held event is outstanding (matches the
// sentinel convention of proc.EventHorizon).
const horizonNever = int64(math.MaxInt64)

// Mesh geometry (paper Section 3.6, Figure 2): 4 columns x 10 rows. The
// sixteen MTs occupy columns 0-1 of rows 1-8's even positions — concretely
// rows 1..8 in columns 0 and 1. Processor-facing NTs occupy columns 2-3;
// the SDCs attach at rows 0 and 9.
const (
	Rows      = 10
	Cols      = 4
	NumMTs    = 16
	LineBytes = 64
	// FlitBytes is the OCN link width; a 64-byte line moves as 4 flits
	// (Section 3.6: 16-byte data links).
	FlitBytes = 16
)

// Mode selects what an MT bank does.
type Mode int

const (
	// ModeL2: the bank caches DRAM lines.
	ModeL2 Mode = iota
	// ModeScratchpad: the bank is directly addressed on-chip memory
	// (no refills; the bank is the backing store for its range).
	ModeScratchpad
)

// Config parameterizes the memory system.
type Config struct {
	// Backing is the SDRAM contents.
	Backing *mem.Memory
	// SDRAMLatency is the SDC access time in OCN cycles.
	SDRAMLatency int
	// Partition splits the MTs between the two processors: 0 = one shared
	// L2 (any port may reach any MT); 1 = two independent halves.
	Partition bool
	// Scratchpad switches every MT to scratchpad mode.
	Scratchpad bool
	// Trace, when non-nil, records per-message OCN transport events.
	Trace *obs.Tracer
	// Metrics, when non-nil, samples OCN occupancy and MSHR/SDRAM queue
	// depth once per sample interval of ticked cycles.
	Metrics *obs.Sampler
}

// msgKind discriminates OCN transactions.
type msgKind uint8

const (
	mkReq msgKind = iota
	mkResp
	mkSDCReq
	mkSDCResp
)

// ocnMsg is one OCN transaction. Multi-flit payloads are modeled as a
// serialization delay added at delivery (flits - 1 cycles), a documented
// approximation of wormhole flit pipelining.
type ocnMsg struct {
	dst    micronet.Coord
	kind   msgKind
	addr   uint64
	n      int
	data   []byte
	write  bool
	id     int
	origin micronet.Coord // requester NT for the reply
	mt     micronet.Coord // MT awaiting an SDC response
	flits  int
	hops   int
	waits  int
	tid    uint64 // trace id stamped by a traced mesh at Inject
}

func (m *ocnMsg) Dest() micronet.Coord { return m.dst }
func (m *ocnMsg) NoteHop()             { m.hops++ }
func (m *ocnMsg) NoteWait()            { m.waits++ }

// SetTraceID / TraceID implement micronet.TraceIdent.
func (m *ocnMsg) SetTraceID(id uint64) { m.tid = id }
func (m *ocnMsg) TraceID() uint64      { return m.tid }

// pending tracks an outstanding client request, possibly split across
// several line-sized OCN transactions (a 128-byte I-cache chunk spans two
// interleaved MT banks).
type pending struct {
	req  *proc.MemRequest
	port *ntPort
	// Assembly state for split reads.
	left  int
	buf   []byte
	base  uint64
	parts map[int]part // transaction id -> slice position
}

type part struct {
	off, n int
}

// ntPort is one client port (an NT on the processor-facing columns).
type ntPort struct {
	sys  *System
	name string
	at   micronet.Coord
	outQ micronet.Queue[outItem]
	// half selects the MT partition this port may address (when the
	// system is partitioned).
	half int
	// owner identifies the core this port belongs to for bounded-lag
	// stepping (-1: unowned, e.g. a DMA port — always drained immediately).
	owner int
	// clock, when non-nil, stamps staged transactions with the owning
	// core's local cycle so the serial drain can replay the sequential
	// injection schedule even when the core has run ahead of the memory
	// clock.
	clock func() int64
	// mtDist[i] is the wormhole Manhattan distance from this port to MT i,
	// precomputed at port creation: the per-(bank, port) generalization of
	// the single CrossCoreLag minimum, used to seed per-transaction response
	// deadlines at drain time.
	mtDist [NumMTs]int64
}

// outItem is a staged transaction awaiting injection. Submit builds the
// message but leaves the transaction id unassigned and the system-wide
// pending tables untouched: ports are driven from per-core step code, which
// under bounded lag runs ahead of the memory system's clock, so Submit
// touches only port-local state. Ids are assigned and pending entries
// registered when Tick drains the queue, in fixed port order.
type outItem struct {
	msg    *ocnMsg
	req    *proc.MemRequest
	pd     *pending // nil for unsplit requests
	off, n int
	// stamp is the submitting clock's cycle at Submit time (0 when the port
	// has no bound clock). The serial drain only injects an item once the
	// backend clock has passed its stamp, which reproduces the sequential
	// drain schedule when the submitting core has run ahead under
	// bounded-lag stepping.
	stamp int64
}

// Submit implements proc.MemPort. Requests that cross line boundaries are
// split into per-line OCN transactions, since consecutive lines live on
// different MTs; the port reassembles read data before completing.
func (p *ntPort) Submit(req *proc.MemRequest) bool {
	if p.outQ.Len() >= 8 {
		return false
	}
	n := req.N
	if req.IsWrite {
		n = len(req.Data)
	}
	start := req.Addr
	end := req.Addr + uint64(n)
	firstLine := start / LineBytes
	lastLine := (end - 1) / LineBytes
	if firstLine == lastLine {
		p.submitPart(req, nil, req.Addr, n, 0)
		return true
	}
	pd := &pending{req: req, port: p, base: start, parts: make(map[int]part)}
	if !req.IsWrite {
		pd.buf = make([]byte, n)
	}
	for line := firstLine; line <= lastLine; line++ {
		a := line * LineBytes
		if a < start {
			a = start
		}
		e := (line + 1) * LineBytes
		if e > end {
			e = end
		}
		pd.left++
		p.submitPart(req, pd, a, int(e-a), int(a-start))
	}
	return true
}

// submitPart stages one line-contained transaction. pd is nil for unsplit
// requests. route() reads only construction-time state.
func (p *ntPort) submitPart(req *proc.MemRequest, pd *pending, addr uint64, n, off int) {
	mt := p.sys.route(p.half, addr)
	msg := &ocnMsg{
		dst: mt, kind: mkReq, addr: addr, n: n,
		write: req.IsWrite, origin: p.at,
		flits: 1 + (n+FlitBytes-1)/FlitBytes,
	}
	if req.IsWrite {
		msg.data = req.Data[off : off+n]
	}
	var stamp int64
	switch {
	case p.sys.inTick:
		// Submission issued from inside a Done callback during the serial
		// backend tick (e.g. a line fill evicting a dirty victim). The
		// sequential schedule drains it later in this same tick, but the
		// owning core's clock already reads the current backend cycle under
		// lockstep, so stamping from the clock would delay it one tick.
		// Stamp one behind the backend cycle to replay the sequential drain.
		stamp = p.sys.cycle - 1
	case p.clock != nil:
		stamp = p.clock()
	}
	p.outQ.Push(outItem{msg: msg, req: req, pd: pd, off: off, n: n, stamp: stamp})
	if p.owner >= 0 {
		// Owner counters are per-port-owner cells: each core's steps touch
		// only its own cell, and drains (which decrement) run in the memory
		// phase.
		p.sys.stagedByOwner[p.owner]++
	} else {
		// Unowned (DMA) ports submit from the memory phase and share one
		// counter.
		p.sys.stagedUnowned++
	}
}

// mtState is one memory tile.
type mtState struct {
	at    micronet.Coord
	index int // position in System.mts (partition half, distance tables)
	bank  *cache.Bank
	mode  Mode
	// sdcDist is the Manhattan distance to this MT's nearest SDC,
	// precomputed at construction for the fill-deadline terms.
	sdcDist int64
	// Single-entry MSHR (Section 3.6): one outstanding SDC fetch.
	busy     bool
	waiters  []*ocnMsg
	waitLine uint64
	// fillDeadline, while busy, is a lower bound (backend cycles) on the
	// tick at which the in-flight SDC fetch can install its line: staged
	// fetch transit + SDRAM latency + return transit, raised to the exact
	// completion time once the SDC accepts the job. Waiter response
	// deadlines build on it.
	fillDeadline int64
	outQ         micronet.Queue[*ocnMsg]
	// Stats.
	Hits, Misses uint64
	// MSHRCoalesced counts misses absorbed by the in-flight fetch for the
	// same line; MSHRBlocked counts misses to a different line that had to
	// wait behind the single-entry MSHR (Section 3.6).
	MSHRCoalesced, MSHRBlocked uint64
}

// maxOwners bounds the per-owner accounting arrays (the prototype has two
// processors per chip).
const maxOwners = 2

// System is the full secondary memory system.
type System struct {
	cfg       Config
	mesh      *micronet.Mesh[*ocnMsg]
	mts       []*mtState
	mtGrid    [Rows][2]*mtState // MT lookup by coordinate (MTs live in cols 0-1)
	ports     map[string]*ntPort
	order     []*ntPort
	sdcs      [2]micronet.Coord
	sdcQ      [2][]sdcJob // per-SDC in-flight jobs
	pending   map[int]pending
	pendSplit map[int]*pending
	nextID    int
	cycle     int64
	// delivery delay queue for multi-flit serialization
	delayed []delayedMsg
	// free is the ocnMsg recycle list. Messages created and consumed inside
	// the serial Tick/dispatch path (responses, SDC traffic) cycle through
	// it; Submit-side request shells may enter it when consumed, but
	// Submit never takes from it.
	free []*ocnMsg
	// inTick is set for the duration of the serial Tick so submissions
	// issued from inside Done callbacks (serviced by this very tick) can be
	// stamped to drain on the sequential schedule rather than the owning
	// core's already-advanced clock.
	inTick bool
	// mtStaged counts staged messages across all MT output queues, and
	// stagedUnowned counts staged port transactions on unowned (DMA) ports;
	// together with the per-owner staging cells they make the empty-queue
	// checks in Tick and horizon O(1). Unowned ports submit only from the
	// serial chip phase, so a plain counter is race-free.
	mtStaged      int
	stagedUnowned int64

	// Bounded-lag support: per-owner outstanding-work accounting, the
	// memoized cross-core visibility lag, and the optional effect gate a
	// bounded-lag coordinator installs to detect responses that would land
	// behind a core's already-simulated cycles (rollback trigger).
	ownerFn        func(name string) int
	stagedByOwner  [maxOwners]int64
	pendingByOwner [maxOwners]int
	lagCache       int64
	gate           func(owner int, effectCycle int64)

	// Per-transaction response deadlines for owned-port transactions: a
	// lower bound (backend cycles) on the tick at which the transaction's
	// response can dispatch at its port. Seeded at drain from the
	// per-(bank, port) distance table, ratcheted upward as the transaction's
	// slow path reveals itself (MSHR fetch, SDC acceptance), and checked
	// against the actual dispatch cycle before deletion. Unowned (DMA)
	// transactions are never tracked, keeping the DMA hot path untouched.
	respDeadline map[int]rdEntry
	deadlineAt   int64 // memo key for deadlineFor (-1: dirty)
	deadlineFor  [maxOwners]int64

	// Horizon memoization: Quiet and NextEventCycle are consulted together
	// on every coordinator iteration; both derive from one scan of the
	// deadline sources, cached per backend cycle.
	horizonAt    int64
	horizonQuiet bool
	horizonNEC   int64

	// Stats.
	Requests, LineTransfers uint64
	// SDRAMReads/Writes count jobs accepted by the two SDCs (counted at
	// dispatch so a backpressured response retry is not double-counted).
	SDRAMReads, SDRAMWrites uint64

	metrics *obs.Sampler
}

// newMsg takes a recycled message shell from the pool (serial contexts
// only) and freeMsg returns a fully consumed one, dropping its payload
// reference. Callers always overwrite every field on allocation, so reuse
// cannot leak state between transactions.
func (s *System) newMsg() *ocnMsg {
	if n := len(s.free); n > 0 {
		m := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return m
	}
	return &ocnMsg{}
}

func (s *System) freeMsg(m *ocnMsg) {
	*m = ocnMsg{}
	s.free = append(s.free, m)
}

// mtPush stages a message on an MT output queue, keeping the system-wide
// staged count that lets Tick and horizon skip the per-MT scan when every
// queue is empty.
func (s *System) mtPush(mt *mtState, m *ocnMsg) {
	mt.outQ.Push(m)
	s.mtStaged++
}

// rdEntry is one tracked transaction's response deadline: the bound itself
// and the owning port (whose distance table prices waiter re-deadlines).
type rdEntry struct {
	at   int64
	port *ntPort
}

type sdcJob struct {
	msg     *ocnMsg
	readyAt int64
}

type delayedMsg struct {
	msg     *ocnMsg
	readyAt int64
}

// New builds the memory system.
func New(cfg Config) *System {
	if cfg.Backing == nil {
		cfg.Backing = mem.New()
	}
	if cfg.SDRAMLatency == 0 {
		cfg.SDRAMLatency = 60
	}
	s := &System{
		cfg:          cfg,
		mesh:         micronet.NewMesh[*ocnMsg]("ocn", Rows, Cols),
		ports:        make(map[string]*ntPort),
		pending:      make(map[int]pending),
		pendSplit:    make(map[int]*pending),
		respDeadline: make(map[int]rdEntry),
		horizonAt:    -1,
		deadlineAt:   -1,
	}
	s.mesh.DeliveryCap = 2
	mode := ModeL2
	if cfg.Scratchpad {
		mode = ModeScratchpad
	}
	for i := 0; i < NumMTs; i++ {
		at := micronet.Coord{Row: 1 + i/2, Col: i % 2}
		mt := &mtState{at: at, index: i, bank: cache.NewBank(64<<10, 4, LineBytes), mode: mode}
		s.mts = append(s.mts, mt)
		s.mtGrid[at.Row][at.Col] = mt
	}
	s.sdcs = [2]micronet.Coord{{Row: 0, Col: 0}, {Row: Rows - 1, Col: 0}}
	for _, mt := range s.mts {
		mt.sdcDist = int64(mt.at.Manhattan(s.nearestSDC(mt.at)))
	}
	s.mesh.Attach(cfg.Trace, obs.NetOCN)
	if sm := cfg.Metrics; sm != nil {
		s.metrics = sm
		sm.Register("ocn.occupancy", func() int64 { return int64(s.mesh.Occupancy()) })
		sm.Register("ocn.links_busy", func() int64 { return int64(s.mesh.LinksBusy()) })
		sm.Register("mshr.busy_mts", func() int64 {
			n := 0
			for _, mt := range s.mts {
				if mt.busy {
					n++
				}
			}
			return int64(n)
		})
		sm.Register("sdram.queue", func() int64 {
			return int64(len(s.sdcQ[0]) + len(s.sdcQ[1]))
		})
	}
	return s
}

// Port implements proc.MemBackend. Port names follow the proc convention
// ("dt0".."dt3", "it0".."it4"), optionally prefixed "p1:" for the second
// processor, which attaches to the east column's southern half.
func (s *System) Port(name string) proc.MemPort {
	if p, ok := s.ports[name]; ok {
		return p
	}
	half := 0
	base := name
	if len(name) > 3 && name[:3] == "p1:" {
		half = 1
		base = name[3:]
	}
	row := 1 + len(s.orderForHalf(half))%(Rows-2)
	_ = base
	at := micronet.Coord{Row: row, Col: 3}
	p := &ntPort{sys: s, name: name, at: at, half: half, owner: -1}
	for _, mt := range s.mts {
		p.mtDist[mt.index] = int64(p.at.Manhattan(mt.at))
	}
	if s.ownerFn != nil {
		p.owner = s.ownerFn(name)
	}
	s.ports[name] = p
	s.order = append(s.order, p)
	s.lagCache = 0 // port set changed: recompute the cross-core lag
	return p
}

// AssignOwners maps port names to bounded-lag owners (core indices 0..1, or
// -1 for unowned ports such as the DMA controllers'). The function is applied
// to every existing port and remembered for ports created later.
func (s *System) AssignOwners(fn func(name string) int) {
	s.ownerFn = fn
	for _, p := range s.order {
		p.owner = fn(p.name)
	}
	s.lagCache = 0
}

// BindClock attaches a local-cycle stamp source to every port of the given
// owner. Staged submissions carry the clock's value so the serial drain can
// replay the sequential injection schedule while the core runs ahead.
func (s *System) BindClock(owner int, clock func() int64) {
	for _, p := range s.order {
		if p.owner == owner {
			p.clock = clock
		}
	}
}

// SetEffectGate installs the bounded-lag coordinator's response observer: it
// is called with the owning core and the backend cycle at which each client
// response's effects become core-visible, before the response's Done callback
// runs. A coordinator uses it to detect (and roll back from) responses that
// land behind a core's already-simulated cycles. nil uninstalls.
func (s *System) SetEffectGate(fn func(owner int, effectCycle int64)) { s.gate = fn }

// StagedFor returns the number of staged (not yet drained) transactions
// across the owner's ports, and OutstandingFor adds the in-flight ones: a
// core with OutstandingFor == 0 has no memory transaction anywhere in the
// system, so no response can reach it without a future Submit.
func (s *System) StagedFor(owner int) int { return int(s.stagedByOwner[owner]) }

// OutstandingFor returns staged plus in-flight transactions for one owner.
func (s *System) OutstandingFor(owner int) int {
	return int(s.stagedByOwner[owner]) + s.pendingByOwner[owner]
}

// ResponseDeadlineFor returns the earliest backend cycle at which any of the
// owner's outstanding transactions can have its response dispatch at the
// owning core's port — the per-owner aggregation of the per-transaction
// deadlines, which a bounded-lag coordinator may use directly as a stride
// horizon in place of one-cycle lockstep. Returns horizonNever (MaxInt64)
// when the owner has no outstanding transactions. Memoized per backend cycle
// alongside the horizon scan; HorizonDirty invalidates.
func (s *System) ResponseDeadlineFor(owner int) int64 {
	if s.deadlineAt != s.cycle {
		s.scanDeadlines()
	}
	return s.deadlineFor[owner]
}

// scanDeadlines recomputes the per-owner deadline minima. Before folding, it
// tightens tracked per-transaction deadlines from the live state whose
// timing is now better known than at seed time: responses resident in the
// mesh cannot dispatch sooner than their remaining Manhattan transit (the
// multi-message earliest-arrival bound — position-now implies a permanent
// floor, so ratcheting the stored entry is sound under any later
// contention), and responses in multi-flit serialization dispatch exactly at
// their readyAt. Staged (undrained) port transactions are priced on the fly
// from their drain stamp plus round-trip transit, mirroring the drain-time
// seeding without registering ids early.
func (s *System) scanDeadlines() {
	for i := range s.deadlineFor {
		s.deadlineFor[i] = horizonNever
	}
	if len(s.respDeadline) > 0 {
		s.mesh.VisitResidents(func(m *ocnMsg, at micronet.Coord) {
			if m.kind != mkResp {
				return
			}
			if e, ok := s.respDeadline[m.id]; ok {
				if nd := s.cycle + int64(at.Manhattan(m.dst)); nd > e.at {
					e.at = nd
					s.respDeadline[m.id] = e
				}
			}
		})
		for _, d := range s.delayed {
			if d.msg.kind != mkResp {
				continue
			}
			if e, ok := s.respDeadline[d.msg.id]; ok && d.readyAt > e.at {
				e.at = d.readyAt
				s.respDeadline[d.msg.id] = e
			}
		}
		for _, e := range s.respDeadline {
			if e.at < s.deadlineFor[e.port.owner] {
				s.deadlineFor[e.port.owner] = e.at
			}
		}
	}
	if s.stagedByOwner[0] > 0 || s.stagedByOwner[1] > 0 {
		for _, p := range s.order {
			if p.owner < 0 || p.outQ.Empty() {
				continue
			}
			for i := 0; i < p.outQ.Len(); i++ {
				it := p.outQ.At(i)
				t := it.stamp
				if t < s.cycle {
					t = s.cycle
				}
				mt := s.mtGrid[it.msg.dst.Row][it.msg.dst.Col]
				if d := t + 1 + 2*p.mtDist[mt.index]; d < s.deadlineFor[p.owner] {
					s.deadlineFor[p.owner] = d
				}
			}
		}
	}
	s.deadlineAt = s.cycle
}

// CrossCoreLag returns L, the bounded-lag visibility horizon: a core whose
// memory system holds none of its transactions cannot observe any response
// effect for at least L cycles after a Submit. The fastest possible effect
// chain is a single-flit write hit: injection on the tick after the stamp,
// one hop per tick to the nearest reachable MT (Manhattan distance D >= 2 —
// ports sit on column 3, MTs on columns 0-1), a same-tick bank hit and
// response injection, D hops back, and a delivery tick — effects become
// visible 2D+3 cycles after the stamp. L = 2D+1 keeps a two-cycle safety
// margin and is asserted against observed response timing by a property
// test. The value is memoized and recomputed when the port set changes.
func (s *System) CrossCoreLag() int64 {
	if s.lagCache > 0 {
		return s.lagCache
	}
	minD := int64(-1)
	for _, p := range s.order {
		if p.owner < 0 {
			continue
		}
		for _, mt := range s.mts {
			if s.cfg.Partition && s.mtHalf(mt) != p.half {
				continue
			}
			if d := p.mtDist[mt.index]; minD < 0 || d < minD {
				minD = d
			}
		}
	}
	if minD < 0 {
		minD = 2 // no owned ports yet: the geometric minimum (|Δrow|=0, col 3 -> col 1)
	}
	s.lagCache = 2*minD + 1
	return s.lagCache
}

// mtHalf returns which partition half an MT belongs to (mts[0..7] are half
// 0, mts[8..15] half 1 — the route() interleave).
func (s *System) mtHalf(mt *mtState) int {
	if mt.index >= NumMTs/2 {
		return 1
	}
	return 0
}

func (s *System) orderForHalf(h int) []*ntPort {
	var out []*ntPort
	for _, p := range s.order {
		if p.half == h {
			out = append(out, p)
		}
	}
	return out
}

// route maps an address to its home MT. The default policy interleaves
// 64-byte lines across the sixteen banks; a partitioned system restricts
// each half's ports to its eight banks (Section 3.6's "two independent
// 512KB level-2 caches").
func (s *System) route(half int, addr uint64) micronet.Coord {
	line := addr / LineBytes
	if s.cfg.Partition {
		idx := int(line % (NumMTs / 2))
		if half == 1 {
			idx += NumMTs / 2
		}
		return s.mts[idx].at
	}
	return s.mts[int(line%NumMTs)].at
}

// MTFor exposes the routing decision (used by tests and tools).
func (s *System) MTFor(addr uint64) int {
	at := s.route(0, addr)
	for i, mt := range s.mts {
		if mt.at == at {
			return i
		}
	}
	return -1
}

// Tick implements proc.MemBackend: one OCN cycle.
func (s *System) Tick() {
	s.cycle++
	s.inTick = true
	// Deliver delayed (multi-flit) messages whose serialization elapsed.
	kept := s.delayed[:0]
	for _, d := range s.delayed {
		if d.readyAt <= s.cycle {
			s.dispatch(d.msg)
		} else {
			kept = append(kept, d)
		}
	}
	s.delayed = kept

	s.mesh.Tick()
	// Drain deliveries at every node (skipped outright on cycles where the
	// mesh delivered nothing — the common case on a memory-idle OCN).
	if s.mesh.PendingDeliveries() > 0 {
		for r := 0; r < Rows; r++ {
			for c := 0; c < Cols; c++ {
				at := micronet.Coord{Row: r, Col: c}
				for {
					msg, ok := s.mesh.Deliver(at)
					if !ok {
						break
					}
					s.mesh.Pop(at)
					if msg.flits > 1 {
						s.delayed = append(s.delayed, delayedMsg{msg: msg, readyAt: s.cycle + int64(msg.flits-1)})
					} else {
						s.dispatch(msg)
					}
				}
			}
		}
	}
	// SDC completions. Filtered in place: jobs wait out the full SDRAM
	// latency here, so a fresh slice per tick would reallocate once per
	// waiting cycle per job.
	for sdc := 0; sdc < 2; sdc++ {
		if len(s.sdcQ[sdc]) == 0 {
			continue
		}
		still := s.sdcQ[sdc][:0]
		for _, j := range s.sdcQ[sdc] {
			if j.readyAt > s.cycle {
				still = append(still, j)
				continue
			}
			m := j.msg
			if m.write {
				s.cfg.Backing.WriteBytes(m.addr, m.data)
				s.freeMsg(m)
				continue
			}
			resp := s.newMsg()
			*resp = ocnMsg{
				dst: m.mt, kind: mkSDCResp, addr: m.addr, n: m.n,
				data: s.cfg.Backing.ReadBytes(m.addr, m.n), id: m.id,
				origin: m.origin, mt: m.mt,
				flits: 1 + (m.n+FlitBytes-1)/FlitBytes,
			}
			if !s.mesh.Inject(s.sdcs[sdc], resp) {
				s.freeMsg(resp)
				still = append(still, sdcJob{msg: m, readyAt: s.cycle + 1})
				continue
			}
			s.freeMsg(m)
		}
		s.sdcQ[sdc] = still
	}
	// MT output queues (skipped outright when nothing is staged anywhere).
	if s.mtStaged > 0 {
		for _, mt := range s.mts {
			for !mt.outQ.Empty() {
				if !s.mesh.Inject(mt.at, mt.outQ.Front()) {
					break
				}
				mt.outQ.Pop()
				s.mtStaged--
			}
		}
	}
	// Port output queues: transaction ids are assigned here, at the serial
	// drain in fixed port order, so Submit stays port-local. Ids are correlation keys only (map lookups, echoed in
	// responses), so the assignment point does not affect simulated timing.
	// Stamped items (bounded-lag cores that ran ahead) wait until the
	// backend clock passes their stamp, replaying the sequential injection
	// schedule.
	if s.stagedUnowned > 0 || s.stagedByOwner[0] > 0 || s.stagedByOwner[1] > 0 {
		for _, p := range s.order {
			for !p.outQ.Empty() {
				if p.outQ.Front().stamp >= s.cycle || !s.mesh.CanInject(p.at) {
					break
				}
				it := p.outQ.Pop()
				id := s.nextID
				s.nextID++
				it.msg.id = id
				if it.pd == nil {
					s.pending[id] = pending{req: it.req, port: p}
				} else {
					it.pd.parts[id] = part{off: it.off, n: it.n}
					s.pendSplit[id] = it.pd
				}
				if p.owner >= 0 {
					s.stagedByOwner[p.owner]--
					s.pendingByOwner[p.owner]++
					// Seed the response deadline: a request injected this tick
					// needs D hops out, and its response D hops back, before it
					// can dispatch at the port — the fastest chain (single-flit
					// hit) dispatches at cycle+2D+2, so cycle+2D keeps the same
					// two-cycle safety margin CrossCoreLag documents. Slow
					// paths (MSHR miss, SDRAM) ratchet the bound upward later.
					mt := s.mtGrid[it.msg.dst.Row][it.msg.dst.Col]
					s.respDeadline[id] = rdEntry{at: s.cycle + 2*p.mtDist[mt.index], port: p}
				} else {
					s.stagedUnowned--
				}
				s.mesh.Inject(p.at, it.msg)
				s.Requests++
			}
		}
	}
	// Sample before the propagate pass latches links into router buffers:
	// at this point linkBusy still counts the messages the routers sent
	// this cycle, which is the OCN link-utilization signal.
	if sm := s.metrics; sm != nil {
		sm.Sample(s.cycle)
	}
	s.mesh.Propagate()
	s.inTick = false
}

// horizon computes quiescence and the next-event deadline in one scan,
// memoized per backend cycle: coordinators consult Quiet and NextEventCycle
// together on every iteration, and both derive from the same deadline
// sources. The cache is keyed on s.cycle (every Tick or Warp moves it);
// callers that stage new submissions without ticking — bounded-lag core
// strides — must call HorizonDirty before re-reading.
func (s *System) horizon() (bool, int64) {
	if s.horizonAt == s.cycle {
		return s.horizonQuiet, s.horizonNEC
	}
	// All outstanding OCN work is held behind computable drain deadlines
	// rather than boolean busy flags: resident messages whose trajectories
	// are provably conflict-free advance one hop per tick until the bound
	// (mesh.TransitBoundMulti), staged injections in MT/port output queues
	// drain once the backend clock passes their stamp, and multi-flit
	// serializations and SDRAM jobs carry explicit readyAt stamps. Only a
	// mesh state whose future arbitration must be resolved by per-cycle
	// routing (a message mid-link, an unpopped delivery, contending
	// trajectories past their window) makes the system non-quiet.
	quiet := true
	h := horizonNever
	if !s.mesh.Quiet() {
		if t, ok := s.mesh.TransitBoundMulti(); ok {
			h = micronet.MinHorizon(h, s.cycle+t)
		} else {
			// Contended trajectories must be resolved by per-cycle routing,
			// so warping stays unsound (quiet stays false) — but the earliest
			// possible arrival still floors the next event: no delivery can
			// surface before it, so coordinators waiting on this domain need
			// not treat the horizon as "now".
			quiet = false
			if ea := s.mesh.EarliestArrival(); ea != micronet.HorizonNever {
				h = micronet.MinHorizon(h, s.cycle+ea)
			}
		}
	}
	for _, d := range s.delayed {
		h = micronet.MinHorizon(h, d.readyAt)
	}
	for sdc := 0; sdc < 2; sdc++ {
		for _, j := range s.sdcQ[sdc] {
			h = micronet.MinHorizon(h, j.readyAt)
		}
	}
	if s.mtStaged > 0 && s.cycle+1 < h {
		h = s.cycle + 1
	}
	if s.stagedUnowned > 0 || s.stagedByOwner[0] > 0 || s.stagedByOwner[1] > 0 {
		for _, p := range s.order {
			if p.outQ.Empty() {
				continue
			}
			// A stamped item drains on the tick after its stamp; an unstamped
			// one (stamp 0) on the very next tick.
			d := p.outQ.Front().stamp + 1
			if d < s.cycle+1 {
				d = s.cycle + 1
			}
			if d < h {
				h = d
			}
		}
	}
	s.horizonAt, s.horizonQuiet, s.horizonNEC = s.cycle, quiet, h
	return quiet, h
}

// HorizonDirty invalidates the memoized Quiet/NextEventCycle scan and the
// per-owner deadline aggregation. Tick and Warp invalidate implicitly (both
// caches are keyed on the backend cycle); bounded-lag coordinators call this
// after core strides stage new submissions without moving the backend clock.
func (s *System) HorizonDirty() {
	s.horizonAt = -1
	s.deadlineAt = -1
}

// Cycle returns the backend clock. The backend runs one tick ahead of the
// chip cycle whose step it services: between ticks, Cycle() is the index of
// the next chip cycle the memory system will execute.
func (s *System) Cycle() int64 { return s.cycle }

// Quiet implements proc.EventHorizon: every resident piece of OCN work has
// a computable drain deadline (see horizon), so clock-warping is sound.
func (s *System) Quiet() bool {
	q, _ := s.horizon()
	return q
}

// NextEventCycle implements proc.EventHorizon: the earliest drain deadline
// across delayed multi-flit deliveries, in-flight SDRAM jobs, in-transit
// messages, and staged MT/port injections, in the backend cycle domain
// (serviced during the owner's step one cycle earlier). Even when Quiet is
// false — contended mesh trajectories needing per-cycle routing — the result
// is a sound next-event floor via the mesh's earliest-arrival bound; warping
// remains gated on Quiet.
func (s *System) NextEventCycle() int64 {
	_, h := s.horizon()
	return h
}

// Warp implements proc.EventHorizon: advance the clock and replay the mesh's
// skipped-cycle state changes (arbitration counter, and the per-hop movement
// of resident messages inside their conflict-free transit window). The
// caller guarantees delta stays below every deadline NextEventCycle
// reported, so the warp can never jump a message past its delivery, a
// trajectory into a link conflict, or an SDRAM job past its completion.
func (s *System) Warp(delta int64) {
	s.cycle += delta
	s.mesh.SkipTicks(delta)
}

// Outstanding returns the number of client transactions still registered in
// the pending tables (unsplit and split parts). A drained system — all
// requests completed, nothing in flight — must report zero; a nonzero value
// after a run means a response was lost or a pending entry leaked.
func (s *System) Outstanding() int {
	return len(s.pending) + len(s.pendSplit)
}

// dispatch handles a message arriving at its destination node.
func (s *System) dispatch(msg *ocnMsg) {
	switch msg.kind {
	case mkReq:
		s.mtRequest(msg)
	case mkSDCResp:
		s.mtFill(msg)
	case mkSDCReq:
		sdc := 0
		if msg.dst == s.sdcs[1] {
			sdc = 1
		}
		if msg.write {
			s.SDRAMWrites++
		} else {
			s.SDRAMReads++
			// The SDC accepted the fetch: its completion time is now exact,
			// so raise the MT's fill deadline from the staged-transit estimate
			// to completion plus return transit, and re-price every waiter's
			// response deadline on top of it.
			if mt := s.mtGrid[msg.mt.Row][msg.mt.Col]; mt != nil && mt.busy {
				if nd := s.cycle + int64(s.cfg.SDRAMLatency) + mt.sdcDist; nd > mt.fillDeadline {
					mt.fillDeadline = nd
					for _, w := range mt.waiters {
						s.raiseDeadline(w.id, mt)
					}
				}
			}
		}
		s.sdcQ[sdc] = append(s.sdcQ[sdc], sdcJob{msg: msg, readyAt: s.cycle + int64(s.cfg.SDRAMLatency)})
	case mkResp:
		if e, ok := s.respDeadline[msg.id]; ok {
			if s.cycle < e.at {
				panic(fmt.Sprintf("nuca: response %d dispatched at cycle %d, before its computed deadline %d", msg.id, s.cycle, e.at))
			}
			delete(s.respDeadline, msg.id)
		}
		if pd, ok := s.pendSplit[msg.id]; ok {
			delete(s.pendSplit, msg.id)
			s.respArrived(pd.port)
			pt := pd.parts[msg.id]
			if !pd.req.IsWrite {
				copy(pd.buf[pt.off:pt.off+pt.n], msg.data)
			}
			pd.left--
			if pd.left == 0 && pd.req.Done != nil {
				pd.req.Done(pd.buf)
			}
			s.freeMsg(msg)
			return
		}
		p, ok := s.pending[msg.id]
		if !ok {
			panic("nuca: response for unknown request")
		}
		delete(s.pending, msg.id)
		s.respArrived(p.port)
		if p.req.Done != nil {
			p.req.Done(msg.data)
		}
		s.freeMsg(msg)
	}
}

// respArrived updates per-owner accounting for a completed transaction and
// notifies the bounded-lag effect gate. Response effects (Done callbacks,
// request completion) become visible to the owning core at the current
// backend cycle — the tick executing now services the owner's step one cycle
// earlier, whose effects the core observes on its next cycle, which is
// exactly s.cycle.
func (s *System) respArrived(p *ntPort) {
	if p == nil || p.owner < 0 {
		return
	}
	s.pendingByOwner[p.owner]--
	if s.gate != nil {
		s.gate(p.owner, s.cycle)
	}
}

// nearestSDC picks the SDC closer to an MT.
func (s *System) nearestSDC(at micronet.Coord) micronet.Coord {
	if at.Row <= Rows/2 {
		return s.sdcs[0]
	}
	return s.sdcs[1]
}

// mtRequest services a client request at its home MT.
func (s *System) mtRequest(msg *ocnMsg) {
	mt := s.mtGrid[msg.dst.Row][msg.dst.Col]
	if mt == nil {
		panic(fmt.Sprintf("nuca: request routed to non-MT node %v", msg.dst))
	}
	if mt.mode == ModeScratchpad {
		s.scratchAccess(mt, msg)
		return
	}
	if msg.write {
		if mt.bank.Write(msg.addr, msg.data) {
			mt.Hits++
			resp := s.newMsg()
			*resp = ocnMsg{dst: msg.origin, kind: mkResp, id: msg.id, flits: 1}
			s.mtPush(mt, resp)
			s.freeMsg(msg)
			return
		}
	} else if data, ok := s.bankRead(mt, msg.addr, msg.n); ok {
		mt.Hits++
		resp := s.newMsg()
		*resp = ocnMsg{
			dst: msg.origin, kind: mkResp, id: msg.id, data: data,
			flits: 1 + (msg.n+FlitBytes-1)/FlitBytes,
		}
		s.mtPush(mt, resp)
		s.freeMsg(msg)
		return
	}
	// Miss: single-entry MSHR — a second missing line stalls behind the
	// first (retried on fill).
	mt.Misses++
	line := mt.bank.LineAddr(msg.addr)
	if mt.busy {
		if line == mt.waitLine {
			mt.MSHRCoalesced++
			mt.waiters = append(mt.waiters, msg)
		} else {
			// Retry by self-requeueing into the MT next cycle.
			mt.MSHRBlocked++
			mt.waiters = append(mt.waiters, msg)
		}
		// Either way the request cannot answer before the in-flight fetch
		// fills (a blocked different-line waiter then needs its own fetch on
		// top — the current fill stays a valid lower bound).
		s.raiseDeadline(msg.id, mt)
		return
	}
	mt.busy = true
	mt.waitLine = line
	mt.waiters = append(mt.waiters, msg)
	// Fill lower bound for the fetch staged this tick: the fetch needs
	// sdcDist hops plus a delivery tick to reach the SDC, the SDRAM latency,
	// and sdcDist hops back — cycle + 2*sdcDist + latency undercounts the
	// delivery ticks and flit serialization, keeping it a sound bound. The
	// SDC acceptance raises it to the exact completion time later.
	mt.fillDeadline = s.cycle + 2*mt.sdcDist + int64(s.cfg.SDRAMLatency)
	s.raiseDeadline(msg.id, mt)
	sdc := s.nearestSDC(mt.at)
	fetch := s.newMsg()
	*fetch = ocnMsg{
		dst: sdc, kind: mkSDCReq, addr: line, n: LineBytes,
		id: msg.id, origin: msg.origin, mt: mt.at, flits: 1,
	}
	s.mtPush(mt, fetch)
}

// raiseDeadline ratchets a tracked transaction's response deadline to the
// MT's fill deadline plus the return transit to its port: a waiter's response
// cannot dispatch before the line it waits on (or the fetch ahead of it)
// fills and the response crosses back. Untracked ids (unowned DMA traffic)
// are skipped; deadlines only ever move up, so replayed waiters that miss
// again simply ratchet further.
func (s *System) raiseDeadline(id int, mt *mtState) {
	e, ok := s.respDeadline[id]
	if !ok {
		return
	}
	if nd := mt.fillDeadline + e.port.mtDist[mt.index]; nd > e.at {
		e.at = nd
		s.respDeadline[id] = e
	}
}

// bankRead reads n bytes, splitting line-straddling accesses.
func (s *System) bankRead(mt *mtState, addr uint64, n int) ([]byte, bool) {
	la := mt.bank.LineAddr(addr)
	if mt.bank.LineAddr(addr+uint64(n)-1) == la {
		return mt.bank.Read(addr, n)
	}
	first := int(la + LineBytes - addr)
	d1, ok := mt.bank.Read(addr, first)
	if !ok {
		return nil, false
	}
	d2, ok := mt.bank.Read(addr+uint64(first), n-first)
	if !ok {
		return nil, false
	}
	return append(d1, d2...), true
}

// mtFill installs a refilled line and replays waiters.
func (s *System) mtFill(msg *ocnMsg) {
	mt := s.mtGrid[msg.mt.Row][msg.mt.Col]
	if v := mt.bank.Fill(msg.addr, msg.data); v.Valid {
		sdc := s.nearestSDC(mt.at)
		wb := s.newMsg()
		*wb = ocnMsg{dst: sdc, kind: mkSDCReq, addr: v.Addr, data: v.Data, write: true, flits: 1 + LineBytes/FlitBytes}
		s.mtPush(mt, wb)
	}
	s.LineTransfers++
	mt.busy = false
	mt.fillDeadline = 0
	waiters := mt.waiters
	mt.waiters = nil
	for _, w := range waiters {
		s.mtRequest(w)
	}
	s.freeMsg(msg)
}

// scratchAccess services a scratchpad-mode access: the bank IS the memory
// for its interleaved slice; untouched lines are zero-filled on first use.
func (s *System) scratchAccess(mt *mtState, msg *ocnMsg) {
	line := mt.bank.LineAddr(msg.addr)
	if !mt.bank.Probe(line) {
		mt.bank.Fill(line, make([]byte, LineBytes))
	}
	end := mt.bank.LineAddr(msg.addr + uint64(msg.n) - 1)
	if end != line && !mt.bank.Probe(end) {
		mt.bank.Fill(end, make([]byte, LineBytes))
	}
	if msg.write {
		mt.bank.Write(msg.addr, msg.data)
		resp := s.newMsg()
		*resp = ocnMsg{dst: msg.origin, kind: mkResp, id: msg.id, flits: 1}
		s.mtPush(mt, resp)
		s.freeMsg(msg)
		return
	}
	data, _ := s.bankRead(mt, msg.addr, msg.n)
	resp := s.newMsg()
	*resp = ocnMsg{
		dst: msg.origin, kind: mkResp, id: msg.id, data: data,
		flits: 1 + (msg.n+FlitBytes-1)/FlitBytes,
	}
	s.mtPush(mt, resp)
	s.freeMsg(msg)
}

// flushDrainLimit bounds Flush's drain. It is far beyond any OCN transit
// plus SDRAM access, so reaching it means work that never completes.
const flushDrainLimit = 1_000_000

// Flush drains the memory system and then writes every dirty L2 line back
// to the backing store (end-of-run and test aid). A run can end while an
// evicted dirty line is still on its way to SDRAM, so Flush first ticks
// until nothing is in flight or scheduled, then writes back the resident
// lines. The drain panics if the system is still busy after
// flushDrainLimit ticks.
func (s *System) Flush() {
	for t := 0; !s.Quiet() || s.NextEventCycle() != horizonNever; t++ {
		if t == flushDrainLimit {
			panic(fmt.Sprintf("nuca: memory system still busy %d ticks into Flush", flushDrainLimit))
		}
		s.Tick()
	}
	for _, mt := range s.mts {
		if mt.mode == ModeScratchpad {
			continue
		}
		for _, v := range mt.bank.DirtyLines() {
			s.cfg.Backing.WriteBytes(v.Addr, v.Data)
		}
	}
}

// Stats returns per-MT hit/miss counters.
func (s *System) Stats() (hits, misses uint64) {
	for _, mt := range s.mts {
		hits += mt.Hits
		misses += mt.Misses
	}
	return
}

// StatsReport aggregates the memory system's counters for reporting.
type StatsReport struct {
	Requests      uint64 // client transactions injected at the NT ports
	LineTransfers uint64 // SDC line fills installed at MTs
	OCNInjected   uint64 // messages entering the OCN mesh
	OCNDelivered  uint64 // messages delivered by the OCN mesh
	Hits, Misses  uint64 // MT bank hits/misses
	MSHRCoalesced uint64 // misses absorbed by an in-flight fetch of the same line
	MSHRBlocked   uint64 // misses stalled behind the single-entry MSHR
	SDRAMReads    uint64 // read jobs accepted by the SDCs
	SDRAMWrites   uint64 // write(-back) jobs accepted by the SDCs
}

// Report snapshots the system-wide counters.
func (s *System) Report() StatsReport {
	r := StatsReport{
		Requests:      s.Requests,
		LineTransfers: s.LineTransfers,
		OCNInjected:   s.mesh.Injected(),
		OCNDelivered:  s.mesh.Delivered(),
		SDRAMReads:    s.SDRAMReads,
		SDRAMWrites:   s.SDRAMWrites,
	}
	for _, mt := range s.mts {
		r.Hits += mt.Hits
		r.Misses += mt.Misses
		r.MSHRCoalesced += mt.MSHRCoalesced
		r.MSHRBlocked += mt.MSHRBlocked
	}
	return r
}

func (r StatsReport) String() string {
	return fmt.Sprintf(
		"NUCA: requests=%d hits=%d misses=%d line-fills=%d\n"+
			"OCN:  injected=%d delivered=%d\n"+
			"MSHR: coalesced=%d blocked=%d\n"+
			"SDRAM: reads=%d writes=%d",
		r.Requests, r.Hits, r.Misses, r.LineTransfers,
		r.OCNInjected, r.OCNDelivered,
		r.MSHRCoalesced, r.MSHRBlocked,
		r.SDRAMReads, r.SDRAMWrites)
}
