package chip

import (
	"testing"

	"trips/internal/eval"
	"trips/internal/isa"
	"trips/internal/mem"
	"trips/internal/proc"
	"trips/internal/tcc"
	"trips/internal/workloads"
)

// chaseProgram builds a pointer chase as a single self-looping block: load
// the next pointer from uncached memory into r12, loop while it is nonzero.
// Every hop is a full OCN round trip the core must block on before it can
// issue the next, and the one-block footprint means the I-cache is warm
// after the first iteration — so in steady state the core has exactly one
// transaction outstanding at a time and is quiescent while it waits. That
// blocking-wait shape is what makes warp-overshoot (and therefore rollback
// under fault injection) reachable.
func chaseProgram(t *testing.T, base uint64) *proc.Program {
	t.Helper()
	b := &isa.Block{Addr: base, Name: "chase"}
	b.Reads[0] = isa.ReadInst{Valid: true, GR: 12, RT0: isa.ToLeft(0)}
	b.Writes[0] = isa.WriteInst{Valid: true, GR: 12}
	b.Insts = []isa.Inst{
		{Op: isa.LD, Imm: 0, LSID: 0, T0: isa.ToLeft(1)},
		{Op: isa.MOV, T0: isa.ToWrite(0), T1: isa.ToLeft(2)},
		{Op: isa.TNEI, Imm: 0, T0: isa.ToLeft(3)},
		{Op: isa.MOV, T0: isa.ToPred(4), T1: isa.ToPred(5)},
		{Op: isa.BRO, Pred: isa.PredOnTrue, Exit: 0, Offset: 0},
		{Op: isa.BRO, Pred: isa.PredOnFalse, Exit: 1, Offset: int32(-(int64(base) / isa.ChunkBytes))},
	}
	p, err := proc.NewProgram(base, []*isa.Block{b})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// chaseChain seeds backing memory with a linked chain of uncached pointers
// ending in a 0 terminator and returns the head pointer to preload into r12.
func chaseChain(backing *mem.Memory, head uint64, hops int) uint64 {
	ptr := func(i int) uint64 { return proc.Uncached(head + uint64(i)*0x40) }
	for i := 0; i < hops-1; i++ {
		backing.Write(head+uint64(i)*0x40, 8, ptr(i+1))
	}
	backing.Write(head+uint64(hops-1)*0x40, 8, 0)
	return ptr(0)
}

// chipScenario builds a chip for one of the parity workloads. The three
// cover distinct traffic shapes: pure core compute (count), DMA-dominated
// OCN streaming (dma), and a real benchmark on both cores with L1 misses,
// dirty evictions and writebacks through the partitioned NUCA (vadd) — the
// eviction path is the one where a response's Done callback submits new
// OCN work from inside the serial tick, historically the subtlest drain
// schedule to replay.
func chipScenario(t *testing.T, name string, mut func(*Config)) *Chip {
	t.Helper()
	switch name {
	case "count":
		p0 := countProgram(t, 0x100000, 40)
		p1 := countProgram(t, 0x200000, 15)
		cfg := Config{Programs: [2]*proc.Program{p0, p1}, MaxCycles: 5_000_000}
		mut(&cfg)
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return c
	case "dma":
		const bytes = 4 << 10
		backing := mem.New()
		for i := 0; i < bytes/8; i++ {
			backing.Write(0x700000+uint64(i)*8, 8, uint64(i+1))
		}
		p0 := countProgram(t, 0x100000, 3)
		p1 := countProgram(t, 0x200000, 2)
		cfg := Config{Programs: [2]*proc.Program{p0, p1}, Backing: backing, MaxCycles: 10_000_000}
		mut(&cfg)
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.DMA[0].Program(0x700000, 0x740000, bytes)
		return c
	case "chase":
		const hops = 24
		backing := mem.New()
		head0 := chaseChain(backing, 0x600000, hops)
		head1 := chaseChain(backing, 0x680000, hops)
		p0 := chaseProgram(t, 0x100000)
		p1 := chaseProgram(t, 0x200000)
		cfg := Config{Programs: [2]*proc.Program{p0, p1}, Backing: backing, MaxCycles: 10_000_000}
		mut(&cfg)
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.Cores[0].SetRegister(0, 12, head0)
		c.Cores[1].SetRegister(0, 12, head1)
		return c
	case "vadd":
		w, err := workloads.ByName("vadd")
		if err != nil {
			t.Fatal(err)
		}
		spec0, spec1 := w.Build(true), w.Build(true)
		prog0, meta0, err := tcc.Compile(spec0.F, tcc.Options{Mode: tcc.Hand, BaseAddr: 0x10000})
		if err != nil {
			t.Fatal(err)
		}
		prog1, meta1, err := tcc.Compile(spec1.F, tcc.Options{Mode: tcc.Hand, BaseAddr: 0x40000})
		if err != nil {
			t.Fatal(err)
		}
		backing := mem.New()
		spec0.SetupMem(backing)
		cfg := Config{
			Programs:  [2]*proc.Program{prog0, prog1},
			Backing:   backing,
			Partition: true,
			MaxCycles: 50_000_000,
		}
		mut(&cfg)
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for v, val := range spec0.Init {
			if gr, ok := meta0.RegOf[v]; ok {
				c.Cores[0].SetRegister(0, gr, val)
			}
		}
		for v, val := range spec1.Init {
			if gr, ok := meta1.RegOf[v]; ok {
				c.Cores[1].SetRegister(0, gr, val)
			}
		}
		return c
	}
	t.Fatalf("unknown scenario %q", name)
	return nil
}

type chipOutcome struct {
	cycles int64
	r0, r1 proc.Result
	moved  uint64
}

func outcome(c *Chip) chipOutcome {
	return chipOutcome{
		cycles: c.Cycle(),
		r0:     c.Cores[0].Result(),
		r1:     c.Cores[1].Result(),
		moved:  c.DMA[0].Moved + c.DMA[1].Moved,
	}
}

// oracle selects the NoFastPath reference stepper every chip parity test
// compares the production stepper (the zero Config) against.
func oracle(cfg *Config) { cfg.NoFastPath = true }

func production(*Config) {}

func runScenario(t *testing.T, scenario string, mut func(*Config)) *Chip {
	t.Helper()
	c := chipScenario(t, scenario, mut)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestChipStepModesBitIdentical is the chip's ground-truth sweep: the
// production stepper (bounded-lag coordinator, per-core warps, per-tile
// doze) must reproduce the NoFastPath reference stepper on every traffic
// shape — chip cycles, full core snapshots, and DMA byte counts. It also
// pins the tile stepping telemetry: ticks+skips == NumTiles x stepped
// cycles under both steppers, the oracle never skips a tile, and the
// production stepper's idle gating and doze actually engage.
func TestChipStepModesBitIdentical(t *testing.T) {
	for _, scenario := range []string{"count", "dma", "chase", "vadd"} {
		t.Run(scenario, func(t *testing.T) {
			ref := runScenario(t, scenario, oracle)
			got := runScenario(t, scenario, production)
			if outcome(got) != outcome(ref) {
				t.Errorf("production stepper diverged:\n  got:  %+v\n  want: %+v", outcome(got), outcome(ref))
			}
			for _, m := range []struct {
				name string
				c    *Chip
			}{{"oracle", ref}, {"production", got}} {
				ticks, skips, stepped := m.c.TileActivity()
				if want := uint64(proc.NumTiles) * uint64(stepped); ticks+skips != want {
					t.Errorf("%s: ticks+skips = %d, want %d (%d tiles x %d stepped cycles)",
						m.name, ticks+skips, want, proc.NumTiles, stepped)
				}
			}
			if _, skips, _ := ref.TileActivity(); skips != 0 {
				t.Errorf("oracle skipped %d tile ticks; it must tick every tile every cycle", skips)
			}
			if _, skips, _ := got.TileActivity(); skips == 0 {
				t.Error("production stepper skipped no tile ticks — idle gating and doze never engaged")
			}
		})
	}
}

// TestChipSteppingThreeWayBitIdentical adds the third way to drive a chip
// to the oracle-vs-production sweep: a production-configured chip stepped
// by a plain `for !Done() { Step() }` loop, as callers that drive the chip
// cycle by cycle do. That loop keeps the per-tile doze but has no bounded
// lag and no warp, so it isolates the tile clock domain; it must reproduce
// both the oracle and the production Run on every traffic shape.
func TestChipSteppingThreeWayBitIdentical(t *testing.T) {
	for _, scenario := range []string{"count", "dma", "chase", "vadd"} {
		t.Run(scenario, func(t *testing.T) {
			ref := outcome(runScenario(t, scenario, oracle))
			stepped := chipScenario(t, scenario, production)
			for !stepped.Done() {
				stepped.Step()
			}
			if got := outcome(stepped); got != ref {
				t.Errorf("Step loop diverged from the oracle:\n  got:  %+v\n  want: %+v", got, ref)
			}
			if got := outcome(runScenario(t, scenario, production)); got != ref {
				t.Errorf("production Run diverged from the oracle:\n  got:  %+v\n  want: %+v", got, ref)
			}
			if stepped.Warps != 0 {
				t.Errorf("Step loop recorded %d warps; only Run may warp", stepped.Warps)
			}
			if _, skips, _ := stepped.TileActivity(); skips == 0 {
				t.Error("Step loop dozed no tile — the tile clock domain is off outside Run")
			}
		})
	}
}

// TestChipLagRollbackInjectionBitIdentical disables the provable horizon via
// the fault-injection override, letting quiescent cores warp past their
// visibility bound so early-arriving responses trigger real rollbacks — and
// requires the rolled-back runs to remain bit-identical to the reference
// stepper. The chase workload is the one shape where this is reachable:
// cores block on every hop, so the overshoot past a response's effect cycle
// is pure warp, which the coordinator can cheaply rewind. With the derived
// horizon rollbacks are structurally impossible, which the zero-rollback
// assertion on the normal run cross-checks.
func TestChipLagRollbackInjectionBitIdentical(t *testing.T) {
	ref := outcome(runScenario(t, "chase", oracle))
	normal := runScenario(t, "chase", production)
	if n := normal.Lag.TotalRollbacks(); n != 0 {
		t.Fatalf("derived horizon produced %d rollbacks — the bound no longer proves safety", n)
	}
	faulted := runScenario(t, "chase", func(cfg *Config) {
		cfg.LagHorizonOverride = 64
	})
	if got := outcome(faulted); got != ref {
		t.Errorf("faulted run diverged:\n  got:  %+v\n  want: %+v", got, ref)
	}
	if faulted.Lag.TotalRollbacks() == 0 {
		t.Errorf("horizon override 64 never triggered a rollback — fault injection is dead")
	}
}

// TestChipLagDeadlinePadRollbackBitIdentical fault-injects the response
// deadlines themselves: LagDeadlinePad stretches every computed deadline
// past the provable bound, so a core blocked on a pointer-chase load warps
// beyond the true effect cycle and the effect gate must roll it back. The
// run must stay bit-identical to the reference stepper — rollback recovery,
// not just rollback detection — and the unpadded run must keep rollbacks at
// zero, pinning that the deadlines themselves never overshoot.
func TestChipLagDeadlinePadRollbackBitIdentical(t *testing.T) {
	ref := outcome(runScenario(t, "chase", oracle))
	faulted := runScenario(t, "chase", func(cfg *Config) {
		cfg.LagDeadlinePad = 64
	})
	if got := outcome(faulted); got != ref {
		t.Errorf("deadline-padded run diverged:\n  got:  %+v\n  want: %+v", got, ref)
	}
	if faulted.Lag.TotalRollbacks() == 0 {
		t.Errorf("deadline pad 64 never triggered a rollback — fault injection is dead")
	}
}

// TestChipLagDeadlineCountersPopulated runs the memory-bound chase normally
// and requires the deadline-stride telemetry to be live: a core blocking on
// OCN round trips must end strides at computed response deadlines (not
// one-cycle lockstep) and must do so without a single rollback.
func TestChipLagDeadlineCountersPopulated(t *testing.T) {
	c := runScenario(t, "chase", production)
	var deadline uint64
	for i := range c.Lag.Core {
		deadline += c.Lag.Core[i].DeadlineLimited
	}
	if deadline == 0 {
		t.Errorf("chase run ended no strides at a response deadline — the computed-horizon leg is dead")
	}
	if c.Lag.TotalStrides() == 0 {
		t.Errorf("chase run recorded no strides")
	}
	if n := c.Lag.TotalRollbacks(); n != 0 {
		t.Errorf("derived deadlines produced %d rollbacks — a bound overshoots", n)
	}
}

// TestChipRollbackHookObserves pins the OnRollback observability hook the
// flight recorder hangs on: under horizon-override fault injection every
// effect-gate rewind must invoke the hook with a sane (from > effect) pair,
// and the hook count must match the coordinator's rollback telemetry.
func TestChipRollbackHookObserves(t *testing.T) {
	c := chipScenario(t, "chase", func(cfg *Config) {
		cfg.LagHorizonOverride = 64
	})
	var fired uint64
	c.SetRollbackHook(func(owner int, from, effect int64) {
		fired++
		if from <= effect {
			t.Errorf("rollback hook: from %d <= effect %d", from, effect)
		}
		if owner != 0 && owner != 1 {
			t.Errorf("rollback hook: bogus owner %d", owner)
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if n := c.Lag.TotalRollbacks(); n == 0 {
		t.Fatalf("horizon override produced no rollbacks — cannot exercise the hook")
	} else if fired != n {
		t.Errorf("rollback hook fired %d times, coordinator counted %d", fired, n)
	}
}

// sweepLimitBoundary sweeps MaxCycles across the final commit of a
// scenario and requires the production stepper and the oracle to agree on
// the outcome (success vs limit error, in identical words) and the final
// cycle at every limit. A chip finishing its last step during cycle `limit`
// (final Cycle() == limit+1) must succeed; one needing more must report the
// limit error. engaged names the production fast path the caller pins: it
// returns "" when that path ran in the limited production run, else what
// was missing — a sweep the path never entered would prove nothing about
// its clamp onto the limit.
func sweepLimitBoundary(t *testing.T, scenario string, engaged func(*Chip) string) {
	t.Helper()
	n := runScenario(t, scenario, oracle).Cycle() // the final step ran at cycle n-1
	for lim := n - 3; lim <= n+1; lim++ {
		withLimit := func(mut func(*Config)) (*Chip, error) {
			c := chipScenario(t, scenario, func(cfg *Config) {
				mut(cfg)
				cfg.MaxCycles = lim
			})
			return c, c.Run()
		}
		co, errO := withLimit(oracle)
		cp, errP := withLimit(production)
		if (errO == nil) != (errP == nil) || co.Cycle() != cp.Cycle() {
			t.Errorf("limit=%d: oracle cyc=%d err=%v | production cyc=%d err=%v",
				lim, co.Cycle(), errO, cp.Cycle(), errP)
			continue
		}
		if errO != nil && errO.Error() != errP.Error() {
			t.Errorf("limit=%d: error wording differs: %q vs %q", lim, errO, errP)
		}
		if wantOK := lim >= n-1; (errO == nil) != wantOK {
			t.Errorf("limit=%d (completion step at %d): err=%v, want success=%v",
				lim, n-1, errO, wantOK)
		}
		if missing := engaged(cp); missing != "" {
			t.Errorf("limit=%d: %s", lim, missing)
		}
	}
}

// TestChipLagLimitBoundaryParity pins the bounded-lag coordinator's clamp:
// every stride and DMA-only memory catch-up must stop on exactly `limit`,
// and the step at that cycle must still run.
func TestChipLagLimitBoundaryParity(t *testing.T) {
	for _, scenario := range []string{"count", "dma"} {
		t.Run(scenario, func(t *testing.T) {
			sweepLimitBoundary(t, scenario, func(c *Chip) string {
				if c.Lag.TotalStrides() == 0 {
					return "production run recorded no bounded-lag strides"
				}
				return ""
			})
		})
	}
}

// TestChipLimitBoundaryWarpParity pins the warp's clamp: a joint or
// memory-domain warp over a quiet stretch must land exactly on `limit`,
// never past it, so the limit error fires at the oracle's cycle.
func TestChipLimitBoundaryWarpParity(t *testing.T) {
	for _, sc := range []struct{ name, scenario string }{{"cores", "count"}, {"dma", "dma"}} {
		t.Run(sc.name, func(t *testing.T) {
			sweepLimitBoundary(t, sc.scenario, func(c *Chip) string {
				if c.Warps == 0 {
					return "production run never warped"
				}
				return ""
			})
		})
	}
}

// TestChipLimitBoundaryDozeParity pins the per-tile doze at the limit: a
// tile dozing through the limit cycle must not move where the limit error
// fires or whether the final step completes the program.
func TestChipLimitBoundaryDozeParity(t *testing.T) {
	for _, sc := range []struct{ name, scenario string }{{"cores", "count"}, {"dma", "dma"}} {
		t.Run(sc.name, func(t *testing.T) {
			sweepLimitBoundary(t, sc.scenario, func(c *Chip) string {
				if _, skips, _ := c.TileActivity(); skips == 0 {
					return "production run dozed no tile"
				}
				return ""
			})
		})
	}
}

// TestChipLagVaddMatchesGolden anchors the bounded-lag chip against the
// golden interpreter directly: bit-identity between steppers proves nothing
// if both drift from correct outputs together.
func TestChipLagVaddMatchesGolden(t *testing.T) {
	w, err := workloads.ByName("vadd")
	if err != nil {
		t.Fatal(err)
	}
	gold, _, _, err := eval.RunGolden(w.Build(true))
	if err != nil {
		t.Fatal(err)
	}
	spec := w.Build(true)
	_, meta, err := tcc.Compile(spec.F, tcc.Options{Mode: tcc.Hand, BaseAddr: 0x10000})
	if err != nil {
		t.Fatal(err)
	}
	c := runScenario(t, "vadd", production)
	for _, out := range spec.Outputs {
		gr, ok := meta.RegOf[out]
		if !ok {
			t.Fatalf("output r%d untracked", out)
		}
		if got := c.Cores[0].Register(0, gr); got != gold[out] {
			t.Errorf("bounded-lag core 0: r%d = %d, golden %d", out, got, gold[out])
		}
	}
}
