// Package chip assembles the full TRIPS prototype of paper Figure 2: two
// 16-wide processor cores, the 1MB NUCA secondary memory system on the
// on-chip network, two DMA controllers, the chip-to-chip controller and the
// external bus controller. The OCN carries all inter-processor, L2, DRAM,
// I/O and DMA traffic (Section 3.6); the two processors communicate through
// the secondary memory system.
package chip

import (
	"fmt"
	"strings"

	"trips/internal/mem"
	"trips/internal/nuca"
	"trips/internal/obs"
	"trips/internal/proc"
)

// Config parameterizes a chip instance.
type Config struct {
	// Programs for the two cores; nil leaves a core powered down.
	Programs [2]*proc.Program
	// Backing is the SDRAM image (programs are loaded into it by the EBC
	// before boot).
	Backing *mem.Memory
	// Partition splits the NUCA array into two private 512KB L2s.
	Partition bool
	// Scratchpad configures the MTs as on-chip memory.
	Scratchpad bool
	MaxCycles  int64
	// NoFastPath selects the reference stepper of DESIGN.md §4 in place of
	// the bounded-lag coordinator: Run calls Step until Done, and every
	// core ticks every tile every cycle with no doze and no warp (see
	// proc.Config.NoFastPath). Both steppers are bit-identical; the flag
	// exists so the determinism tests can prove it.
	NoFastPath bool
	// LagHorizonOverride is a test-only fault-injection hook: when
	// positive, bounded-lag strides use G+n as their horizon instead of
	// the provably safe bounds, making rollbacks reachable.
	LagHorizonOverride int64
	// LagDeadlinePad is a test-only fault-injection hook: when positive,
	// every computed response deadline is padded by n cycles past the
	// provable bound, so cores waiting on memory overshoot the true effect
	// cycle and exercise the rollback path.
	LagDeadlinePad int64
	// Trace holds one optional tracer per core.
	Trace [2]*obs.Tracer
	// OCNTrace optionally records the shared OCN's per-message transport
	// events.
	OCNTrace *obs.Tracer
	// Metrics optionally samples chip-level series (OCN occupancy, MSHR
	// and SDRAM queue depth, DMA progress, warp engagement) from the OCN
	// tick.
	Metrics *obs.Sampler
}

// Chip is one TRIPS prototype chip.
type Chip struct {
	Cores [2]*proc.Core
	Mem   *nuca.System
	DMA   [2]*DMA
	C2C   *C2C
	cfg   Config
	cycle int64

	// Warps counts the bounded-lag coordinator's joint and memory-domain
	// clock warps; WarpedCycles the simulated cycles they skipped. Together
	// with the per-core counters they make warp engagement observable
	// without a trace. Both stay zero under NoFastPath.
	Warps        uint64
	WarpedCycles int64

	// Lag holds the bounded-lag coordinator's telemetry (stride lengths,
	// stall reasons, rollbacks); zero after a NoFastPath run.
	Lag proc.LagStats

	// Checkpoint hook: ckptFn fires once at the first chip cycle past
	// ckptAt on which a block commits on any core, then disarms. Both
	// steppers honor it; the bounded-lag stepper parks every clock at
	// ckptAt and locksteps to the commit boundary first.
	ckptAt int64
	ckptFn func(cycle int64) error
	// Rollback hook: forwarded to LagConfig.OnRollback so observers (the
	// flight recorder) see effect-gate rewinds.
	onRollback func(owner int, from, effect int64)
}

// SetCheckpointHook arms fn to run once at the first block-commit boundary
// past cycle at. Commits are the chip's quiesce points: the hook fires
// between cycles, when every tile, network and memory structure is a pure
// function of the architectural state SaveState serializes.
func (c *Chip) SetCheckpointHook(at int64, fn func(cycle int64) error) {
	c.ckptAt = at
	c.ckptFn = fn
}

// SetRollbackHook arms fn to observe bounded-lag effect-gate rewinds:
// owner is the memory-port owner id (core index), from the cycle
// the core had run ahead to, effect the rewound-to cycle. Observability
// only — fn must not touch simulated state.
func (c *Chip) SetRollbackHook(fn func(owner int, from, effect int64)) {
	c.onRollback = fn
}

// committedBlocks sums block commits across the active cores.
func (c *Chip) committedBlocks() uint64 {
	var n uint64
	for _, core := range c.Cores {
		if core != nil {
			n += core.CommittedBlocks
		}
	}
	return n
}

// New builds and boots a chip: the external bus controller's PowerPC host
// loads the program images into SDRAM (paper Section 5.1: "we chose to
// off-load much of the operating system and runtime control to this
// PowerPC"), then the cores come up at their entry addresses.
func New(cfg Config) (*Chip, error) {
	if cfg.Backing == nil {
		cfg.Backing = mem.New()
	}
	c := &Chip{cfg: cfg}
	c.Mem = nuca.New(nuca.Config{
		Backing:    cfg.Backing,
		Partition:  cfg.Partition,
		Scratchpad: cfg.Scratchpad,
		Trace:      cfg.OCNTrace,
		Metrics:    cfg.Metrics,
	})
	for i, prog := range cfg.Programs {
		if prog == nil {
			continue
		}
		if err := prog.Image(cfg.Backing); err != nil {
			return nil, err
		}
		backend := &coreBackend{sys: c.Mem, prefix: ""}
		if i == 1 {
			backend.prefix = "p1:"
		}
		core, err := proc.NewCore(proc.Config{
			Program:         prog,
			Mem:             backend,
			ExternalMemTick: true,
			MaxCycles:       cfg.MaxCycles,
			NoFastPath:      cfg.NoFastPath,
			Trace:           cfg.Trace[i],
		})
		if err != nil {
			return nil, err
		}
		c.Cores[i] = core
	}
	c.DMA[0] = &DMA{chip: c, id: 0}
	c.DMA[1] = &DMA{chip: c, id: 1}
	c.C2C = &C2C{}
	// Port owners map each port to the core whose steps may touch it: the
	// bounded-lag coordinator gates drains and strides per owner. The DMA
	// controllers stay ownerless — they submit from the memory phase
	// itself.
	c.Mem.AssignOwners(func(name string) int {
		if strings.HasPrefix(name, "p1:") {
			return 1
		}
		if strings.HasPrefix(name, "dma") {
			return -1
		}
		return 0
	})
	if sm := cfg.Metrics; sm != nil {
		// These closures read core and DMA state from the OCN tick.
		sm.Register("chip.warped_cycles", func() int64 { return c.WarpedCycles })
		sm.Register("dma.moved", func() int64 {
			return int64(c.DMA[0].Moved + c.DMA[1].Moved)
		})
		sm.Register("dma.completions", func() int64 {
			return int64(c.DMA[0].Completions + c.DMA[1].Completions)
		})
		// Bounded-lag coordinator series: a bad horizon bound shows up here
		// as a rollback storm instead of a silent slowdown.
		sm.Register("lag.strides", func() int64 { return int64(c.Lag.TotalStrides()) })
		sm.Register("lag.rollbacks", func() int64 { return int64(c.Lag.TotalRollbacks()) })
		sm.Register("lag.horizon_stalls", func() int64 {
			var n uint64
			for i := range c.Lag.Core {
				n += c.Lag.Core[i].HorizonLimited
			}
			return int64(n)
		})
		sm.Register("lag.deadline_strides", func() int64 {
			var n uint64
			for i := range c.Lag.Core {
				n += c.Lag.Core[i].DeadlineLimited
			}
			return int64(n)
		})
		sm.Register("lag.quiesce_stalls", func() int64 {
			var n uint64
			for i := range c.Lag.Core {
				n += c.Lag.Core[i].QuiesceLimited
			}
			return int64(n)
		})
		sm.Register("lag.mem_warped_cycles", func() int64 { return c.Lag.MemWarpedCycles })
	}
	return c, nil
}

// coreBackend namespaces one core's ports on the shared OCN and defers
// ticking to the chip loop.
type coreBackend struct {
	sys    *nuca.System
	prefix string
}

func (b *coreBackend) Port(name string) proc.MemPort { return b.sys.Port(b.prefix + name) }
func (b *coreBackend) Tick()                         {} // the chip ticks the OCN once per cycle

// Step advances the whole chip one cycle in the fixed order of the
// synchronous machine: each running core steps, then the DMA engines tick,
// then the OCN and memory system tick once (draining port queues and
// assigning transaction ids in fixed order).
func (c *Chip) Step() {
	for _, core := range c.Cores {
		if core != nil && !core.Done() {
			core.Step()
		}
	}
	for _, d := range c.DMA {
		d.tick()
	}
	c.Mem.Tick()
	c.cycle++
}

// Done reports whether every active core has retired and the DMAs are idle.
func (c *Chip) Done() bool {
	for _, core := range c.Cores {
		if core != nil && !core.Done() {
			return false
		}
	}
	for _, d := range c.DMA {
		if d.Busy() {
			return false
		}
	}
	return true
}

// Run executes until completion under the configured stepper. Both
// steppers are bit-identical for every observable: identical cycle counts,
// registers, stats, and identical errors at identical cycles on the limit
// boundary.
func (c *Chip) Run() error {
	if c.cfg.NoFastPath {
		return c.runOracle()
	}
	return c.runLag()
}

// limit returns the configured cycle budget.
func (c *Chip) limit() int64 {
	if c.cfg.MaxCycles == 0 {
		return proc.DefaultMaxCycles
	}
	return c.cfg.MaxCycles
}

// limitError is the error of a chip that passed its cycle limit with work
// outstanding.
func limitError(limit int64) error {
	return fmt.Errorf("chip: cycle limit %d exceeded", limit)
}

// runOracle is the reference stepper: one globally synchronous Step per
// cycle until Done. The step at cycle == limit still runs (a chip
// completing during that very cycle succeeds); the limit error fires only
// once the clock has passed the limit with work outstanding.
func (c *Chip) runOracle() error {
	limit := c.limit()
	lastBlocks := c.committedBlocks()
	for !c.Done() {
		if c.cycle > limit {
			return limitError(limit)
		}
		c.Step()
		if c.ckptFn != nil {
			if nb := c.committedBlocks(); nb != lastBlocks {
				lastBlocks = nb
				if c.cycle > c.ckptAt {
					fn := c.ckptFn
					c.ckptFn = nil
					if err := fn(c.cycle); err != nil {
						return fmt.Errorf("chip: checkpoint at cycle %d: %w", c.cycle, err)
					}
				}
			}
		}
	}
	return nil
}

// runLag executes until completion under the bounded-lag coordinator:
// per-core local clocks, per-core warps on locally quiet cores, and a
// serial memory catch-up that replays the sequential drain schedule. The
// port owners assigned at construction gate each owned port's drains by its
// core's clock.
func (c *Chip) runLag() error {
	// Checkpoint capture under bounded-lag stepping: park every clock at
	// the arm cycle (LagConfig.StopAt aligns core and backend clocks at a
	// lockstep boundary), lockstep sequentially to the next block-commit
	// boundary, capture, and resume the coordinator. fn may re-arm the hook
	// via SetCheckpointHook for rolling captures (the flight recorder). The
	// composition is observable-identical to an uninterrupted bounded-lag
	// run; only the warp telemetry may differ across the phase seams.
	for c.ckptFn != nil {
		at := c.ckptAt
		if err := c.runLagPhase(at); err != nil {
			return err
		}
		last := c.committedBlocks()
		var guard int64
		for !c.Done() && c.committedBlocks() == last {
			c.Step()
			if guard++; guard > 2*proc.CommitWatchdog {
				return fmt.Errorf("chip: no block commit within %d lockstep cycles after checkpoint arm cycle %d", guard-1, at)
			}
		}
		fn := c.ckptFn
		c.ckptFn = nil
		if err := fn(c.cycle); err != nil {
			return fmt.Errorf("chip: checkpoint at cycle %d: %w", c.cycle, err)
		}
		// A finished chip cannot reach another commit boundary: drop any
		// re-arm rather than spin on the terminal state.
		if c.Done() {
			c.ckptFn = nil
		}
	}
	return c.runLagPhase(0)
}

// runLagPhase runs the bounded-lag coordinator until completion, or until
// every clock parks at stopAt (stopAt > 0). Warp accounting is by delta:
// the coordinator accumulates into c.Lag across phases.
func (c *Chip) runLagPhase(stopAt int64) error {
	var cores []proc.LagCore
	for i, core := range c.Cores {
		if core != nil {
			cores = append(cores, proc.LagCore{Core: core, Owner: i})
		}
	}
	preWarps := c.Lag.JointWarps + c.Lag.MemWarps
	preWarped := c.Lag.JointWarpedCycles + c.Lag.MemWarpedCycles
	g, err := proc.RunBoundedLag(c.Mem, cores, proc.LagConfig{
		Limit:           c.limit(),
		HorizonOverride: c.cfg.LagHorizonOverride,
		DeadlinePad:     c.cfg.LagDeadlinePad,
		OnRollback:      c.onRollback,
		StopAt:          stopAt,
		PreTick: func(int64) {
			for _, d := range c.DMA {
				d.tick()
			}
		},
		ExtraBusy: func() bool {
			return c.DMA[0].Busy() || c.DMA[1].Busy()
		},
		CanWarpExtra: func() bool {
			for _, d := range c.DMA {
				// A DMA between OCN transactions (line boundary, or a
				// refused Submit) issues on the very next tick, so no warp
				// is possible. In flight it is a pure waiter: its Done
				// closure fires from the OCN tick, whose deadlines the
				// memory system reports.
				if d.Busy() && !d.inFlight {
					return false
				}
			}
			return true
		},
		Stats:    &c.Lag,
		LimitErr: limitError,
	})
	c.cycle = g
	c.Warps += c.Lag.JointWarps + c.Lag.MemWarps - preWarps
	c.WarpedCycles += c.Lag.JointWarpedCycles + c.Lag.MemWarpedCycles - preWarped
	return err
}

// Cycle returns the chip cycle count.
func (c *Chip) Cycle() int64 { return c.cycle }

// TileActivity sums the per-core tile stepping telemetry: ticks (tile ticks
// actually executed), skips (tile ticks elided by the event-driven doze
// overlay), and stepped (per-core Step invocations; warped cycles excluded).
// ticks+skips == 30*stepped always; the skip share is the doze coverage.
func (c *Chip) TileActivity() (ticks, skips uint64, stepped int64) {
	for _, core := range c.Cores {
		if core == nil {
			continue
		}
		ticks += core.TileTicks
		skips += core.TileSkips
		stepped += core.SteppedCycles
	}
	return
}

// DMA is one of the two direct memory access controllers: programmable to
// transfer data between any two regions of the physical address space
// (paper Section 5.1), implemented as an OCN client moving one cache line
// per transaction.
type DMA struct {
	chip *Chip
	id   int
	port proc.MemPort

	src, dst uint64
	left     int
	inFlight bool
	buf      []byte
	phase    int // 0 idle, 1 reading, 2 writing
	Moved    uint64
	// Completions counts finished line transfers (read + write round trips).
	Completions uint64

	// rdReq/wrReq are persistent request records: the Done closures are
	// bound once, so a long transfer issues thousands of transactions
	// without allocating per line.
	rdReq, wrReq *proc.MemRequest
}

// onReadDone and onWriteDone are the transaction completion actions. They
// are methods (not closure bodies) so a checkpoint restore can rebuild the
// Done callback of an in-flight request to the exact live behavior.
func (d *DMA) onReadDone(data []byte) {
	d.buf = data
	d.inFlight = false
	d.phase = 2
}

func (d *DMA) onWriteDone() {
	d.inFlight = false
	d.phase = 1
	d.Moved += uint64(len(d.buf))
	d.Completions++
	d.src += uint64(len(d.buf))
	d.dst += uint64(len(d.buf))
	d.left -= len(d.buf)
	if d.left <= 0 {
		d.phase = 0
	}
}

// bind lazily creates the DMA's OCN port and its persistent request
// records: the Done closures are bound once, so a long transfer issues
// thousands of transactions without allocating per line.
func (d *DMA) bind() {
	if d.port == nil {
		d.port = d.chip.Mem.Port(fmt.Sprintf("dma%d", d.id))
	}
	if d.rdReq == nil {
		d.rdReq = &proc.MemRequest{
			Origin: proc.Origin{Kind: proc.OriginDMARead, Tile: d.id},
			Done:   d.onReadDone,
		}
		d.wrReq = &proc.MemRequest{
			IsWrite: true,
			Origin:  proc.Origin{Kind: proc.OriginDMAWrite, Tile: d.id},
			Done:    func([]byte) { d.onWriteDone() },
		}
	}
}

// Program arms the DMA to copy n bytes (line-aligned) from src to dst.
func (d *DMA) Program(src, dst uint64, n int) {
	d.bind()
	d.src, d.dst, d.left = src, dst, n
	d.phase = 0
}

// Busy reports whether a transfer is in progress.
func (d *DMA) Busy() bool { return d.left > 0 || d.inFlight }

func (d *DMA) tick() {
	if d.inFlight || (d.left <= 0 && d.phase == 0) {
		return
	}
	switch d.phase {
	case 0, 1:
		if d.left <= 0 {
			return
		}
		n := nuca.LineBytes
		if d.left < n {
			n = d.left
		}
		d.rdReq.Addr = d.src
		d.rdReq.N = n
		if d.port.Submit(d.rdReq) {
			d.inFlight = true
		}
	case 2:
		d.wrReq.Addr = d.dst
		d.wrReq.Data = d.buf
		if d.port.Submit(d.wrReq) {
			d.inFlight = true
		}
	}
}

// C2C is the chip-to-chip controller: it extends the OCN to a four-port
// mesh router gluelessly connecting other TRIPS chips at up to half the
// core clock (paper Section 5.1). Multi-chip simulation is out of scope;
// the controller is modeled as a counted endpoint.
type C2C struct {
	MessagesOut uint64
}
