// Package obs is the simulator's observability layer: a ring-buffered
// structured event tracer for block-protocol lifecycle and micronet hop
// events (exported as Chrome/Perfetto trace-event JSON), cycle-sampled
// metrics with occupancy histograms, and a debug HTTP endpoint serving
// expvar and pprof for long evaluation runs.
//
// Everything here is nil-gated at the call sites: a component holds a
// *Tracer or *Sampler pointer that is nil when observability is off, and
// every hot-path hook is a single pointer compare. With tracing disabled
// the simulated cycle counts are bit-identical (observation never mutates
// simulated state) and the hot path allocates nothing extra — both are
// enforced by tests.
package obs

// Kind discriminates trace events.
type Kind uint8

const (
	// Block protocol lifecycle (paper Figure 5: fetch, execute, commit).
	KindBlockFetch    Kind = iota + 1 // GT began fetching Addr (no seq yet)
	KindBlockDispatch                 // frame allocated, GDN dispatch scheduled
	KindOperand                       // OPN operand delivered to an ET/RT; Arg packs hops<<32|waits
	KindStoreMask                     // store mask arrived at DT Arg
	KindWritesDone                    // GSN finish-R reached the GT
	KindStoresDone                    // GSN finish-S reached the GT
	KindBlockComplete                 // branch + writes + stores all seen
	KindCommitCmd                     // GCN commit command issued
	KindCommitAckR                    // GSN register-commit ack reached the GT
	KindCommitAckS                    // GSN store-commit ack reached the GT
	KindBlockAcked                    // block deallocated (phase three done)
	KindFlushWave                     // GCN flush wave; Seq = oldest flushed seq, Arg = slot mask

	// Micronet transport (per-message; Seq carries the message trace id).
	KindNetInject  // Addr = packed source coord, Arg = packed dest coord
	KindNetHop     // Addr = packed coord the message left
	KindNetDeliver // Addr = packed destination coord

	// Checkpoint capture: a framed machine-state checkpoint was written at
	// this cycle (a block-commit boundary); Arg = payload length in bytes.
	KindCkpt
)

func (k Kind) String() string {
	switch k {
	case KindBlockFetch:
		return "fetch"
	case KindBlockDispatch:
		return "dispatch"
	case KindOperand:
		return "operand"
	case KindStoreMask:
		return "store-mask"
	case KindWritesDone:
		return "writes-done"
	case KindStoresDone:
		return "stores-done"
	case KindBlockComplete:
		return "complete"
	case KindCommitCmd:
		return "commit-cmd"
	case KindCommitAckR:
		return "commit-ack-r"
	case KindCommitAckS:
		return "commit-ack-s"
	case KindBlockAcked:
		return "acked"
	case KindFlushWave:
		return "flush"
	case KindNetInject:
		return "inject"
	case KindNetHop:
		return "hop"
	case KindNetDeliver:
		return "deliver"
	case KindCkpt:
		return "ckpt"
	}
	return "?"
}

// Network ids for Event.Net (Table 2's micronetworks; only the two meshes
// carry per-message trace hooks, the rest contribute aggregate counters).
const (
	NetOPN0 uint8 = iota
	NetOPN1
	NetOCN
	NumNets
)

// NetName names a network id in trace output.
func NetName(n uint8) string {
	switch n {
	case NetOPN0:
		return "OPN0"
	case NetOPN1:
		return "OPN1"
	case NetOCN:
		return "OCN"
	}
	return "net?"
}

// Event is one fixed-size trace record. The meaning of Seq/Addr/Arg depends
// on Kind (see the Kind constants). Cat carries critpath.Cat+1 when the
// critical-path analyzer is on, 0 when untagged.
type Event struct {
	Cycle int64
	Seq   uint64
	Addr  uint64
	Arg   uint64
	Kind  Kind
	Net   uint8
	Cat   uint8
	Slot  int16
}

// PackCoord packs a mesh coordinate into an Event field.
func PackCoord(row, col int) uint64 {
	return uint64(uint32(row))<<32 | uint64(uint32(col))
}

// UnpackCoord reverses PackCoord.
func UnpackCoord(v uint64) (row, col int) {
	return int(uint32(v >> 32)), int(uint32(v))
}

// PackPair packs two 32-bit counters (e.g. hops and waits) into an Arg.
func PackPair(hi, lo int) uint64 {
	return uint64(uint32(hi))<<32 | uint64(uint32(lo))
}

// UnpackPair reverses PackPair.
func UnpackPair(v uint64) (hi, lo int) {
	return int(uint32(v >> 32)), int(uint32(v))
}

// Tracer records events into a preallocated ring buffer. Emit never
// allocates; once the ring wraps, the oldest events are overwritten (the
// export notes how many were dropped). A Tracer is single-goroutine: machines
// that run concurrently (the eval worker pools) each need their own Tracer.
type Tracer struct {
	buf    []Event
	n      uint64 // total events ever emitted
	nextID uint64 // message trace-id allocator
}

// DefaultTracerCap is the default ring capacity (~48MB of events); plenty
// for the Figure 5 workloads and bounded for long runs.
const DefaultTracerCap = 1 << 20

// NewTracer builds a tracer with the given ring capacity (0 = default).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTracerCap
	}
	return &Tracer{buf: make([]Event, 0, capacity)}
}

// Emit records one event. Hot-path callers must guard with a nil check on
// their tracer pointer; Emit itself is also nil-safe for cold paths.
func (t *Tracer) Emit(ev Event) {
	if t == nil {
		return
	}
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, ev)
	} else {
		t.buf[t.n%uint64(cap(t.buf))] = ev
	}
	t.n++
}

// NextID allocates a message trace id (never 0).
func (t *Tracer) NextID() uint64 {
	t.nextID++
	return t.nextID
}

// ReserveIDs advances the trace-id allocator so every id up to and
// including max is considered spent. Restore paths call it with the largest
// trace id found in a checkpoint: in-flight messages keep their
// checkpointed ids, so without the reservation a restored run's fresh
// allocations would eventually collide with them. Nil-safe (untraced runs
// restore with no tracer attached).
func (t *Tracer) ReserveIDs(max uint64) {
	if t == nil {
		return
	}
	if max > t.nextID {
		t.nextID = max
	}
}

// Total returns the number of events ever emitted (including overwritten).
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	return t.n
}

// Dropped returns how many events the ring overwrote.
func (t *Tracer) Dropped() uint64 {
	if t == nil || t.n <= uint64(len(t.buf)) {
		return 0
	}
	return t.n - uint64(len(t.buf))
}

// Events returns the retained events oldest-first.
func (t *Tracer) Events() []Event {
	if t == nil || len(t.buf) == 0 {
		return nil
	}
	if t.n <= uint64(cap(t.buf)) {
		return t.buf
	}
	// Ring wrapped: unroll around the write cursor.
	cut := int(t.n % uint64(cap(t.buf)))
	out := make([]Event, 0, len(t.buf))
	out = append(out, t.buf[cut:]...)
	out = append(out, t.buf[:cut]...)
	return out
}
