// Package proc assembles the TRIPS processor core: one global control tile,
// five instruction tiles, four register tiles, sixteen execution tiles and
// four data tiles, connected by the seven micronetworks of paper Figure 3,
// and running the four distributed protocols of Section 4 — block fetch,
// distributed execution, block/pipeline flush, and three-phase block commit.
package proc

import (
	"trips/internal/critpath"
	"trips/internal/isa"
	"trips/internal/micronet"
)

// Value is a 64-bit operand with a null bit. Nullified values propagate
// along untaken predicate paths so that stores and register writes on those
// paths still issue (as nullified outputs) and the block's output counts
// hold on every execution (paper Section 2.1).
type Value struct {
	Bits uint64
	Null bool
}

// opnKind discriminates the payloads carried on the operand network.
type opnKind uint8

const (
	opnOperand  opnKind = iota // value -> ET reservation station or RT write entry
	opnBranch                  // block exit -> GT
	opnLoadReq                 // ET -> DT: load address
	opnStoreReq                // ET -> DT: store address + data (possibly nullified)
)

// opnMsg is one operand-network message (141-bit links: a 64-bit data
// payload preceded by a control header, paper Section 3). The control
// header launched a cycle ahead of the data is modeled by delivering the
// message and allowing the consumer to wake and issue in back-to-back
// cycles, so each hop between dependent instructions costs exactly one
// cycle (Section 4.2).
type opnMsg struct {
	dst    micronet.Coord
	kind   opnKind
	slot   int    // block frame 0..7
	seq    uint64 // dynamic block number, for staleness filtering
	thread int

	// opnOperand / load reply payload.
	target isa.Target
	val    Value

	// opnBranch payload.
	brOp     isa.Opcode
	brExit   int
	brOffset int32

	// opnLoadReq / opnStoreReq payload.
	lsid  int
	memOp isa.Opcode
	addr  uint64
	data  Value
	ldT0  isa.Target // load reply targets
	ldT1  isa.Target

	// Transport accounting (paper Table 3: OPN hops vs contention).
	hops, waits int

	// tid is the per-message trace id stamped by a traced mesh at Inject
	// (0 when tracing is off; cleared by the pool reset in freeOPNMsg).
	tid uint64

	// Critical-path dependency carried with the message.
	ev critpath.Event
}

func (m *opnMsg) Dest() micronet.Coord { return m.dst }
func (m *opnMsg) NoteHop()             { m.hops++ }
func (m *opnMsg) NoteWait()            { m.waits++ }

// SetTraceID / TraceID implement micronet.TraceIdent so a traced OPN can
// stitch a message's inject/hop/deliver events into one flow.
func (m *opnMsg) SetTraceID(id uint64) { m.tid = id }
func (m *opnMsg) TraceID() uint64      { return m.tid }

// gsnKind discriminates global status network messages.
type gsnKind uint8

const (
	gsnFinishR   gsnKind = iota // all register writes for a block received (RT chain)
	gsnFinishS                  // all stores for a block received (DT chain)
	gsnAckR                     // register commit acknowledged (RT chain)
	gsnAckS                     // store commit acknowledged (DT chain)
	gsnRefill                   // I-cache refill complete (IT chain)
	gsnViolation                // memory-ordering violation detected (DT chain)
)

// gsnMsg is one global status network message (6-bit links in Table 2; the
// violation report rides the same wires over multiple beats in hardware).
// seq names the block; a refill reuses it for the block address and a
// violation for the block holding the violated load.
type gsnMsg struct {
	kind gsnKind
	slot uint8
	seq  uint64
	ev   critpath.Event
}

// gcnKind discriminates global control network commands.
type gcnKind uint8

const (
	gcnCommit gcnKind = iota
	gcnFlush
)

// gcnMsg is one global control network command (13-bit links): commit one
// block, or flush a set of blocks identified by a slot mask (Section 4.3:
// "The GCN includes a block identifier mask indicating which block or
// blocks must be flushed"). A command is stored once, in the core's wave
// ring; the network carries its gcnWave id.
type gcnMsg struct {
	kind gcnKind
	slot int    // commit: the committing block's frame
	seq  uint64 // commit: its dynamic number
	mask uint8  // flush: bit per slot
	seqs [8]uint64
	ev   critpath.Event
}

// gcnWave names one GCN command in flight: its index in the core's wave
// ring (Core.waves).
type gcnWave uint8

// gcnRingSize bounds the GCN commands in flight at once, from issue until
// the wave reaches the farthest node. Every commit wave retires a
// dispatched block and every flush wave squashes at least one, the GDN
// dispatches at most one block per eight cycles into at most eight frames,
// and a wave lives about nine cycles (one launch per cycle, eight hops), so
// the ring never fills; issueGCN checks it.
const gcnRingSize = 32

// grnMsg is one global refill network command (36-bit links): the physical
// address of the block whose chunks the ITs must fetch (Section 4.1).
type grnMsg struct {
	addr uint64
	slot int
	seq  uint64
}

// dsnMsg is one data status network notice (72-bit links): an executed
// store's LSID and block identity, broadcast among the DTs so each can
// track store completion without knowing the store's address (Section 4.4).
type dsnMsg struct {
	slot uint8
	lsid uint8
	seq  uint64
	ev   critpath.Event
}
