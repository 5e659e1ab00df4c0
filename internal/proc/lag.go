package proc

import (
	"fmt"
	"strings"

	"trips/internal/micronet"
	"trips/internal/obs"
)

// This file implements bounded-lag stepping: each core carries its own local
// clock and runs ahead of the shared memory system in strides, synchronizing
// only at provable cross-core visibility horizons instead of every cycle.
//
// The causality argument has three legs, each enforced structurally:
//
//  1. Response deadlines under outstanding work. A core with transactions
//     pending in the memory system (OutstandingFor > 0) strides up to the
//     earliest cycle any of those transactions' responses can dispatch at
//     its port (ResponseDeadlineFor): per-transaction bounds built from the
//     per-(bank, port) wormhole Manhattan transit tables, the MSHR fill
//     state, and SDRAM completion times, each a provable lower bound on the
//     effect cycle. The stride therefore ends at or before the first cycle
//     a response could touch the core, so no rollback is ever needed —
//     where PR 5 held such a core to one-cycle lockstep (horizon G+1), a
//     core waiting out a 60-cycle SDRAM access now strides those cycles in
//     one piece.
//
//  2. The staged-submission gate. A core may step cycle u > G only while its
//     owned port queues are empty. In a sequential run the backend drains
//     staged submissions every tick; a run-ahead core has not had those
//     ticks yet, so a non-empty queue could change a later Submit from
//     accepted to refused relative to the sequential interleave. Requiring
//     emptiness makes both runs see identical queue states at every Submit:
//     submissions carry the submitting core's cycle as a drain stamp, so the
//     deferred backend ticks drain them on exactly the sequential schedule.
//
//  3. Free run without outstanding work. A core with no transactions
//     anywhere in the memory system cannot be affected by it before its own
//     next Submit completes a round trip — and leg 2 ends the stride one
//     cycle after any Submit, after which leg 1's deadline for that very
//     transaction takes over. The stride is therefore bounded only by the
//     cycle limit; the effect gate still
//     cross-checks every response against the owner's clock and rolls back
//     the (warp-only, hence cheaply rewindable) overshoot if a
//     fault-injected override let the core run past a real effect.
//     CrossCoreLag remains the geometric floor all deadline terms are
//     asserted against by the property tests.
//
// The coordinator alternates three phases per round: a joint warp when every
// component is quiescent at the same cycle (the old whole-machine fast
// path, now one special case), per-core strides run one after another on
// the calling goroutine, and a serial memory catch-up that ticks the
// backend to the slowest core's clock.

// LagMem is the backend contract for bounded-lag stepping: an EventHorizon
// that additionally exposes its clock, per-owner staging/outstanding
// counters, the cross-core visibility bound, and the effect gate used to
// detect (and roll back) horizon violations.
type LagMem interface {
	EventHorizon
	Tick()
	Cycle() int64
	HorizonDirty()
	CrossCoreLag() int64
	OutstandingFor(owner int) int
	StagedFor(owner int) int
	// ResponseDeadlineFor returns the earliest backend cycle at which any of
	// the owner's outstanding transactions can have its response dispatch at
	// the owner's port, or MaxInt64 when none are outstanding. The
	// coordinator uses it directly as the stride horizon under outstanding
	// work, so it must be a sound lower bound on every response's effect
	// cycle.
	ResponseDeadlineFor(owner int) int64
	BindClock(owner int, clock func() int64)
	SetEffectGate(fn func(owner int, effectCycle int64))
}

// LagCore pairs a core with the owner id its memory ports carry.
type LagCore struct {
	Core  *Core
	Owner int
}

// LagCoreStats aggregates per-core stride telemetry.
type LagCoreStats struct {
	Strides      uint64
	StrideCycles int64
	StrideHist   obs.Histogram
	// Why strides ended: the core ran out of horizon (HorizonLimited, e.g. a
	// fault-injection cap), reached the computed response
	// deadline of its outstanding memory work (DeadlineLimited), degenerated
	// to one-cycle lockstep because that deadline was already at hand
	// (QuiesceLimited), staged a submission the backend must drain first
	// (Backpressure), or finished.
	HorizonLimited  uint64
	DeadlineLimited uint64
	QuiesceLimited  uint64
	Backpressure    uint64
	// Rollbacks counts strides invalidated by an early-arriving response;
	// structurally zero unless a horizon override disables the safe bounds.
	Rollbacks        uint64
	RolledBackCycles int64
}

// LagStats aggregates coordinator telemetry across a bounded-lag run.
type LagStats struct {
	Core   []LagCoreStats
	Rounds uint64
	// Joint warps skip dead cycles on every clock at once (the old
	// whole-machine fast path); mem warps skip backend-only dead ticks
	// while cores are parked at their horizons.
	JointWarps        uint64
	JointWarpedCycles int64
	MemWarps          uint64
	MemWarpedCycles   int64
}

// TotalStrides sums stride counts across cores.
func (s *LagStats) TotalStrides() uint64 {
	var n uint64
	for i := range s.Core {
		n += s.Core[i].Strides
	}
	return n
}

// TotalRollbacks sums rollback counts across cores.
func (s *LagStats) TotalRollbacks() uint64 {
	var n uint64
	for i := range s.Core {
		n += s.Core[i].Rollbacks
	}
	return n
}

// Summary renders the coordinator telemetry for terminal output: per-core
// stride histograms with stall reasons, plus round and warp totals.
func (s *LagStats) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "  bounded-lag: %d rounds, %d joint warps (%d cycles), %d mem warps (%d cycles)\n",
		s.Rounds, s.JointWarps, s.JointWarpedCycles, s.MemWarps, s.MemWarpedCycles)
	for k := range s.Core {
		cs := &s.Core[k]
		if cs.Strides == 0 {
			continue
		}
		fmt.Fprintf(&b, "  core %d: %d strides (%d cycles, avg %.1f), stalls horizon=%d deadline=%d quiesce=%d backpressure=%d, rollbacks=%d (%d cycles)\n",
			k, cs.Strides, cs.StrideCycles, float64(cs.StrideCycles)/float64(cs.Strides),
			cs.HorizonLimited, cs.DeadlineLimited, cs.QuiesceLimited, cs.Backpressure, cs.Rollbacks, cs.RolledBackCycles)
		fmt.Fprintf(&b, "    stride-length hist: %s\n", cs.StrideHist.String())
	}
	return b.String()
}

// LagConfig parameterizes RunBoundedLag.
type LagConfig struct {
	// Limit is the simulated-cycle budget (0 means DefaultMaxCycles,
	// matching Run).
	Limit int64
	// Watchdog enables Run's per-core CommitWatchdog deadlock check.
	Watchdog bool
	// HorizonOverride, when positive, forces every stride horizon to G+n
	// regardless of outstanding work — a fault-injection hook that makes
	// horizon violations (and thus rollbacks) reachable for testing.
	HorizonOverride int64
	// DeadlinePad, when positive, adds n cycles to every computed response
	// deadline — past the provable bound, so a waiting core overshoots the
	// true effect cycle and the effect gate must roll it back. A
	// fault-injection hook for exercising the rollback path; never set it
	// outside tests.
	DeadlinePad int64
	// PreTick runs before each backend tick with the tick index — the chip
	// hangs its DMA engines here.
	PreTick func(tick int64)
	// ExtraBusy reports chip-level work (DMA) that must keep the clock
	// running after every core has finished.
	ExtraBusy func() bool
	// CanWarpExtra gates warping on chip-level work: false while a DMA
	// engine is between transactions and needs per-cycle ticks.
	CanWarpExtra func() bool
	// OnRollback, when non-nil, is invoked after the effect gate rewinds a
	// core: owner is the memory-port owner id, from the cycle the core had
	// run ahead to, effect the cycle it was rewound to. Observability hook
	// only (the flight recorder hangs dump triggers here); it runs after
	// the rewind and before the response's completion callback, and must
	// not touch simulated state.
	OnRollback func(owner int, from, effect int64)
	// StopAt, when positive, pauses the run at that cycle: every stride,
	// joint warp, and backend catch-up is clamped so no clock passes it, and
	// the coordinator returns once every active core and the backend have
	// reached it. At the pause point core and backend clocks agree — the
	// lockstep boundary a checkpoint capture needs. Resume by calling
	// RunBoundedLag again with StopAt 0.
	StopAt int64
	// Stats, when non-nil, receives coordinator telemetry.
	Stats *LagStats
	// LimitErr formats the cycle-limit error (chip and proc wordings
	// differ); nil gets a generic message.
	LimitErr func(limit int64) error
}

// stride end reasons.
const (
	rsHorizon = iota
	rsDeadline
	rsQuiesce
	rsBackpressure
	rsDone
)

type strideRes struct {
	len    int64
	reason int
}

type lagRunner struct {
	mem   LagMem
	cores []LagCore
	cfg   LagConfig
	limit int64
	G     int64 // backend clock: index of the next backend tick

	doneCore    []bool
	lastStepped []int64 // rollback validity: cycles past this were warp-only
	lastCommit  []int64
	lastCount   []uint64
	errs        []error
	sres        []strideRes
	ran         []bool
	horizons    []int64
	endReasons  []int
	ownerIdx    map[int]int
	catchTarget int64

	stats *LagStats
}

// RunBoundedLag drives cores and a shared memory backend to completion
// under bounded-lag stepping, returning the final backend cycle. It is
// bit-identical to the sequential interleave (cores step cycle u, then the
// backend ticks u) for every observable: core cycles, registers, stats, and
// backend state.
func RunBoundedLag(mem LagMem, cores []LagCore, cfg LagConfig) (int64, error) {
	limit := cfg.Limit
	if limit == 0 {
		limit = DefaultMaxCycles
	}
	n := len(cores)
	r := &lagRunner{
		mem: mem, cores: cores, cfg: cfg, limit: limit,
		G:           mem.Cycle(),
		doneCore:    make([]bool, n),
		lastStepped: make([]int64, n),
		lastCommit:  make([]int64, n),
		lastCount:   make([]uint64, n),
		errs:        make([]error, n),
		sres:        make([]strideRes, n),
		ran:         make([]bool, n),
		horizons:    make([]int64, n),
		endReasons:  make([]int, n),
		ownerIdx:    make(map[int]int, n),
		stats:       cfg.Stats,
	}
	if r.stats == nil {
		r.stats = &LagStats{}
	}
	for len(r.stats.Core) < n {
		r.stats.Core = append(r.stats.Core, LagCoreStats{})
	}
	for k := range cores {
		c := cores[k].Core
		r.lastStepped[k] = c.Cycle()
		r.lastCommit[k] = c.Cycle()
		r.lastCount[k] = c.CommittedBlocks
		if cores[k].Owner >= 0 {
			r.ownerIdx[cores[k].Owner] = k
			mem.BindClock(cores[k].Owner, c.Cycle)
		}
	}
	mem.SetEffectGate(r.onEffect)
	defer mem.SetEffectGate(nil)
	for {
		r.refreshDone()
		if r.allDone() && !r.extraBusy() && r.G >= r.maxCoreCycle() {
			return r.G, nil
		}
		if cfg.StopAt > 0 && r.G >= cfg.StopAt && r.parkedAt(cfg.StopAt) {
			return r.G, nil
		}
		if r.G > limit {
			if cfg.LimitErr != nil {
				return r.G, cfg.LimitErr(limit)
			}
			return r.G, fmt.Errorf("bounded-lag: cycle limit %d exceeded", limit)
		}
		r.jointWarp()
		r.strideAll()
		for k := range r.errs {
			if r.errs[k] != nil {
				return r.G, r.errs[k]
			}
		}
		// Strides staged submissions without moving the backend clock, so
		// the memoized horizon scan must be recomputed before catch-up.
		r.mem.HorizonDirty()
		r.catchUp()
	}
}

func (r *lagRunner) refreshDone() {
	for k := range r.cores {
		if !r.doneCore[k] && r.cores[k].Core.Done() {
			r.doneCore[k] = true
		}
	}
}

// parkedAt reports whether every unfinished core has reached the pause
// cycle.
func (r *lagRunner) parkedAt(stop int64) bool {
	for k := range r.cores {
		if !r.doneCore[k] && r.cores[k].Core.Cycle() < stop {
			return false
		}
	}
	return true
}

func (r *lagRunner) allDone() bool {
	for k := range r.doneCore {
		if !r.doneCore[k] {
			return false
		}
	}
	return true
}

func (r *lagRunner) maxCoreCycle() int64 {
	var m int64
	for k := range r.cores {
		if t := r.cores[k].Core.Cycle(); t > m {
			m = t
		}
	}
	return m
}

func (r *lagRunner) extraBusy() bool {
	return r.cfg.ExtraBusy != nil && r.cfg.ExtraBusy()
}

func (r *lagRunner) canWarpExtra() bool {
	return r.cfg.CanWarpExtra == nil || r.cfg.CanWarpExtra()
}

// jointWarp is the whole-machine fast path: when every active core sits
// quiescent at exactly the backend clock and the backend itself is quiet,
// all clocks jump together to the earliest scheduled event, exactly like
// the sequential warp gate.
func (r *lagRunner) jointWarp() {
	if r.allDone() || !r.canWarpExtra() {
		return
	}
	h := horizonNever
	for k := range r.cores {
		if r.doneCore[k] {
			continue
		}
		c := r.cores[k].Core
		if c.Cycle() != r.G || !c.Quiescent() {
			return
		}
		h = micronet.MinHorizon(h, c.NextEventCycle())
	}
	if !r.mem.Quiet() {
		return
	}
	h = micronet.FoldBackendHorizon(h, r.mem.NextEventCycle())
	if h > r.limit {
		h = r.limit
	}
	if r.cfg.StopAt > 0 && h > r.cfg.StopAt {
		h = r.cfg.StopAt
	}
	if r.cfg.Watchdog {
		for k := range r.cores {
			if r.doneCore[k] {
				continue
			}
			if wl := r.lastCommit[k] + CommitWatchdog; h > wl {
				h = wl
			}
		}
	}
	if h <= r.G {
		return
	}
	for k := range r.cores {
		if r.doneCore[k] {
			continue
		}
		c := r.cores[k].Core
		c.Warps++
		c.WarpedCycles += h - c.Cycle()
		c.WarpTo(h)
	}
	r.mem.Warp(h - r.G)
	r.stats.JointWarps++
	r.stats.JointWarpedCycles += h - r.G
	r.G = h
}

// strideAll advances every active core up to its horizon for this round.
// Every horizon is taken before the first stride runs. Strides are
// independent by construction — each touches only its own core, its own
// owner's staging counters, and per-core coordinator slots — so the order
// the cores stride in cannot change simulated results.
func (r *lagRunner) strideAll() {
	active := 0
	for k := range r.cores {
		r.ran[k] = false
		if r.doneCore[k] {
			continue
		}
		active++
		r.horizons[k], r.endReasons[k] = r.horizon(k)
		// A core already parked at (or past) its horizon has nothing to do
		// this round; skip it so zero-length strides don't dilute the
		// stride statistics. Progress is still guaranteed: the slowest
		// active core sits at G and its horizon is always at least G+1.
		r.ran[k] = r.horizons[k] > r.cores[k].Core.Cycle()
	}
	if active == 0 {
		return
	}
	for k := range r.cores {
		if !r.ran[k] {
			continue
		}
		r.stride(k, r.horizons[k], r.endReasons[k])
		cs := &r.stats.Core[k]
		cs.Strides++
		cs.StrideCycles += r.sres[k].len
		cs.StrideHist.Add(r.sres[k].len)
		switch r.sres[k].reason {
		case rsHorizon:
			cs.HorizonLimited++
		case rsDeadline:
			cs.DeadlineLimited++
		case rsQuiesce:
			cs.QuiesceLimited++
		case rsBackpressure:
			cs.Backpressure++
		}
	}
	r.stats.Rounds++
}

// horizon returns core k's stride horizon for this round and the reason a
// stride that runs all the way to it ends with: rsHorizon for a free run
// or override cap, rsDeadline for a computed response deadline, rsQuiesce
// when that deadline degenerated to one-cycle lockstep.
func (r *lagRunner) horizon(k int) (int64, int) {
	var h int64
	reason := rsHorizon
	switch owner := r.cores[k].Owner; {
	case r.cfg.HorizonOverride > 0:
		h = r.G + r.cfg.HorizonOverride
	case owner >= 0 && r.mem.OutstandingFor(owner) > 0:
		// Outstanding memory work: stride to the earliest cycle any of its
		// responses can dispatch at the core's port. The deadline is an
		// absolute backend cycle; clamp to at least G+1 so the slowest core
		// always makes progress.
		h = r.mem.ResponseDeadlineFor(owner)
		if h == horizonNever {
			// Accounting says outstanding but no deadline source knows a
			// bound — fall back to the provably safe lockstep leg.
			h = r.G + 1
		}
		if r.cfg.DeadlinePad > 0 {
			h += r.cfg.DeadlinePad
		}
		if h <= r.G {
			h = r.G + 1
		}
		reason = rsDeadline
		if h == r.G+1 {
			reason = rsQuiesce
		}
	default:
		// No outstanding work: nothing in the memory system can affect this
		// core before its own next Submit, and the staged-submission gate
		// ends the stride one cycle after any Submit — so the free run is
		// bounded only by the limit.
		h = r.limit + 1
	}
	// A core may step the cycle at limit but never past it, matching the
	// sequential limit checks cycle for cycle.
	if h > r.limit+1 {
		h = r.limit + 1
	}
	if r.cfg.StopAt > 0 && h > r.cfg.StopAt {
		h = r.cfg.StopAt
	}
	return h, reason
}

// stride runs one core forward until it finishes, reaches its horizon, or
// stages a submission the backend must drain first. Locally quiet stretches
// are warped per-core — this is where bounded lag beats the global gate:
// the warp no longer waits for the whole machine to quiesce.
func (r *lagRunner) stride(k int, horizon int64, endReason int) {
	c := r.cores[k].Core
	owner := r.cores[k].Owner
	start := c.Cycle()
	res := &r.sres[k]
	*res = strideRes{reason: endReason}
	for {
		t := c.Cycle()
		if c.Done() {
			res.reason = rsDone
			r.doneCore[k] = true
			break
		}
		if t >= horizon {
			break
		}
		if t > r.G && owner >= 0 && r.mem.StagedFor(owner) > 0 {
			res.reason = rsBackpressure
			break
		}
		if c.Quiescent() {
			wt := horizon
			// Mirror Run's warp clamps so limit and watchdog errors fire
			// at exactly the cycles a sequential run reports.
			if wt > r.limit {
				wt = r.limit
			}
			wt = micronet.MinHorizon(wt, c.NextEventCycle())
			if r.cfg.Watchdog {
				if wl := r.lastCommit[k] + CommitWatchdog; wt > wl {
					wt = wl
				}
			}
			if wt > t {
				c.Warps++
				c.WarpedCycles += wt - t
				c.WarpTo(wt)
				continue
			}
		}
		c.Step()
		r.lastStepped[k] = c.Cycle()
		if r.cfg.Watchdog {
			if c.CommittedBlocks != r.lastCount[k] {
				r.lastCount[k] = c.CommittedBlocks
				r.lastCommit[k] = c.Cycle()
			} else if c.Cycle()-r.lastCommit[k] > CommitWatchdog {
				r.errs[k] = DeadlockError(c.Cycle(), c.CommittedBlocks)
				break
			}
		}
	}
	res.len = c.Cycle() - start
}

// catchUp ticks the backend serially up to the slowest active core's clock
// (or through trailing DMA work once every core is done), warping across
// event-free stretches. Each tick drains exactly the submissions a
// sequential run would have drained at that tick, via the drain stamps.
func (r *lagRunner) catchUp() {
	allDone := r.allDone()
	var target int64
	if allDone {
		target = r.limit + 1
	} else {
		target = horizonNever
		for k := range r.cores {
			if !r.doneCore[k] {
				if t := r.cores[k].Core.Cycle(); t < target {
					target = t
				}
			}
		}
		if target > r.limit+1 {
			target = r.limit + 1
		}
	}
	if r.cfg.StopAt > 0 && target > r.cfg.StopAt {
		target = r.cfg.StopAt
	}
	r.catchTarget = target
	maxCore := r.maxCoreCycle()
	for r.G < r.catchTarget {
		if allDone && !r.extraBusy() && r.G >= maxCore {
			break
		}
		if r.canWarpExtra() && r.mem.Quiet() {
			v := r.catchTarget
			// With every core finished and no chip-level work left, the run
			// ends at the last core's cycle — don't warp past it.
			if allDone && v > maxCore && !r.extraBusy() {
				v = maxCore
			}
			v = micronet.FoldBackendHorizon(v, r.mem.NextEventCycle())
			if v > r.G {
				r.mem.Warp(v - r.G)
				r.stats.MemWarps++
				r.stats.MemWarpedCycles += v - r.G
				r.G = v
				continue
			}
		}
		if r.cfg.PreTick != nil {
			r.cfg.PreTick(r.G)
		}
		r.mem.Tick()
		r.G++
	}
}

// onEffect is the effect gate, invoked by the backend as each response
// reaches its owner's port during catch-up. effect is the first core cycle
// whose step observes the response. A core past that cycle ran ahead on a
// stale premise: its overshoot is provably warp-only under the safe
// horizons (anything else means the L bound itself is broken, which panics
// as a simulator bug), so rolling back is a cheap clock rewind. The rewind
// happens before the response's completion callback runs, so the callback
// schedules against the corrected clock.
func (r *lagRunner) onEffect(owner int, effect int64) {
	k, ok := r.ownerIdx[owner]
	if !ok {
		return
	}
	c := r.cores[k].Core
	t := c.Cycle()
	if t <= effect {
		return
	}
	if r.lastStepped[k] > effect {
		panic(fmt.Sprintf("proc: bounded-lag horizon violated: response effective at cycle %d but core %d already stepped to %d", effect, k, r.lastStepped[k]))
	}
	c.RewindTo(effect)
	cs := &r.stats.Core[k]
	cs.Rollbacks++
	cs.RolledBackCycles += t - effect
	if r.cfg.OnRollback != nil {
		r.cfg.OnRollback(owner, t, effect)
	}
	// The backend must not tick past the rewound clock.
	if effect < r.catchTarget {
		r.catchTarget = effect
	}
}

// RunLag executes the core to completion against a bounded-lag backend
// with Run's limit and watchdog semantics, returning the same Result and
// the same error strings. It honours a hook armed with SetCheckpointHook:
// the coordinator parks core and backend clocks together at the arm cycle,
// the pair then steps sequentially to the first block commit — the
// protocol quiesce point SaveState requires — the hook fires there, and
// bounded-lag stepping resumes. The hook may re-arm itself from inside the
// callback (the convention Run follows), which is how rolling-checkpoint
// consumers like the flight recorder capture a whole sequence of frames
// from one run. The composition is observable-identical to an
// uninterrupted run: strides replay the sequential interleave exactly, and
// the lockstep stretch is the sequential interleave (only the host-side
// Warps/WarpedCycles telemetry differs).
func (c *Core) RunLag(mem LagMem, stats *LagStats) (Result, error) {
	limit := c.cfg.MaxCycles
	if limit == 0 {
		limit = DefaultMaxCycles
	}
	cfg := LagConfig{
		Limit:           limit,
		Watchdog:        true,
		Stats:           stats,
		OnRollback:      c.onRollback,
		HorizonOverride: c.lagHorizonOverride,
		DeadlinePad:     c.lagDeadlinePad,
		LimitErr: func(l int64) error {
			return limitError(l, c.CommittedBlocks)
		},
	}
	cores := []LagCore{{Core: c, Owner: 0}}
	for c.ckptFn != nil {
		at := c.ckptAt
		cfg.StopAt = at
		if _, err := RunBoundedLag(mem, cores, cfg); err != nil {
			return Result{}, err
		}
		// Sequential lockstep to the first commit boundary. A finished core
		// checkpoints its terminal state instead.
		last := c.CommittedBlocks
		var guard int64
		for !c.Done() && c.CommittedBlocks == last {
			c.Step()
			mem.Tick()
			if guard++; guard > 2*CommitWatchdog {
				return Result{}, fmt.Errorf("proc: no block commit within %d lockstep cycles after checkpoint arm cycle %d", guard-1, at)
			}
		}
		fn := c.ckptFn
		c.ckptFn = nil
		if err := fn(c.Cycle()); err != nil {
			return Result{}, fmt.Errorf("proc: checkpoint at cycle %d: %w", c.Cycle(), err)
		}
		// A finished core cannot reach another commit boundary: ignore any
		// re-arm and fall through to the final drain.
		if c.Done() {
			c.ckptFn = nil
			break
		}
	}
	cfg.StopAt = 0
	if _, err := RunBoundedLag(mem, cores, cfg); err != nil {
		return Result{}, err
	}
	return c.buildResult()
}
