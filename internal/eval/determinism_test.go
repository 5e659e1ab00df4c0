package eval

import (
	"fmt"
	"reflect"
	"testing"

	"trips/internal/chip"
	"trips/internal/critpath"
	"trips/internal/mem"
	"trips/internal/proc"
	"trips/internal/tcc"
	"trips/internal/workloads"
)

// microNames are the paper's four microbenchmarks — small enough to run
// repeatedly in a unit test.
var microNames = []string{"dct8x8", "matrix", "sha", "vadd"}

// summarize flattens the result fields that must be bit-identical across
// replays and across the fast-path ablation.
type runSummary struct {
	Cycles  int64
	Blocks  uint64
	Insts   uint64
	Flushes uint64
	IPC     float64
	Crit    critpath.Report
	Stats   proc.TileStats
}

func summarize(r *TRIPSResult) runSummary {
	return runSummary{
		Cycles:  r.Cycles,
		Blocks:  r.Blocks,
		Insts:   r.Insts,
		Flushes: r.Flushes,
		IPC:     r.IPC,
		Crit:    r.Crit,
		Stats:   r.Stats,
	}
}

// TestDeterministicReplay runs each microbenchmark twice with identical
// options and requires every simulated statistic — cycles, committed
// blocks/instructions, flushes, the critical-path breakdown, and all tile
// stats — to match exactly. The simulator holds no hidden host-dependent
// state (maps iterated for side effects, pointers compared for order, ...),
// so a replay must be a bit-identical re-execution.
func TestDeterministicReplay(t *testing.T) {
	for _, name := range microNames {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		opt := TRIPSOptions{Mode: tcc.Hand, TrackCritPath: true}
		first, err := RunTRIPS(w.Build(true), opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		second, err := RunTRIPS(w.Build(true), opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a, b := summarize(first), summarize(second); a != b {
			t.Errorf("%s: replay diverged:\n  first:  %+v\n  second: %+v", name, a, b)
		}
	}
}

// steppers are the two legs every eval parity test runs: the NoFastPath
// reference stepper of DESIGN.md §4 (the oracle, run first) and the
// production stepper.
var steppers = []struct {
	name       string
	noFastPath bool
}{
	{"oracle", true},
	{"production", false},
}

// TestFastPathBitIdentical is the tentpole invariant: the production
// stepper (idle-tile gating, per-tile doze, clock warping over quiescent
// stretches) may change host time only. Cycles, stats, critical path and
// architectural registers must match the oracle's exactly.
func TestFastPathBitIdentical(t *testing.T) {
	for _, name := range microNames {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []tcc.Mode{tcc.Hand, tcc.Compiled} {
			runParity(t, fmt.Sprintf("%s (mode %v)", name, mode), w.Build(mode == tcc.Hand), TRIPSOptions{Mode: mode, TrackCritPath: true})
		}
	}
}

// runParity runs spec under both steppers and requires the production
// result to match the oracle's in every simulated observable.
func runParity(t *testing.T, label string, spec *workloads.Spec, opt TRIPSOptions) {
	t.Helper()
	var ref *TRIPSResult
	for _, st := range steppers {
		opt.NoFastPath = st.noFastPath
		res, err := RunTRIPS(spec, opt)
		if err != nil {
			t.Fatalf("%s (%s): %v", label, st.name, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if a, b := summarize(ref), summarize(res); a != b {
			t.Errorf("%s: %s diverged from the oracle:\n  oracle: %+v\n  %s: %+v", label, st.name, a, st.name, b)
		}
		if !reflect.DeepEqual(res.Regs, ref.Regs) {
			t.Errorf("%s: %s final registers diverge from the oracle", label, st.name)
		}
		if !reflect.DeepEqual(res.NUCA, ref.NUCA) {
			t.Errorf("%s: %s NUCA counters diverge from the oracle:\n  oracle: %+v\n  %s: %+v", label, st.name, ref.NUCA, st.name, res.NUCA)
		}
	}
}

// TestNUCAFastPathBitIdentical repeats the check behind the full NUCA
// secondary memory system, where the production stepper also moves the
// memory system into its own clock domain (the bounded-lag coordinator)
// while the oracle keeps the sequential core-drives-backend interleave.
// vadd is the load-bearing workload here: its working set evicts dirty L2
// lines, and a victim writeback is submitted from inside a response's Done
// callback during the backend tick — the one submission whose drain stamp
// cannot come from the owning core's clock (the clock already reads the
// in-progress tick) and must be phased to replay the sequential drain
// schedule. Divergence on vadd means the stamp phasing broke.
func TestNUCAFastPathBitIdentical(t *testing.T) {
	w, err := workloads.ByName("vadd")
	if err != nil {
		t.Fatal(err)
	}
	runParity(t, "NUCA vadd", w.Build(true), TRIPSOptions{Mode: tcc.Hand, UseNUCA: true, TrackCritPath: true})
}

// TestNUCASteppingModesBitIdentical covers the third NUCA discipline: the
// sequential interleave RunSampled and ReplayBundle drive restored machines
// on. It keeps the production core's fast paths but has the core tick its
// memory system itself instead of handing it to the bounded-lag
// coordinator, so it must match the oracle on vadd's cycles, statistics,
// registers and NUCA counters — the property that lets a frame captured
// under RunTRIPS replay cycle by cycle.
func TestNUCASteppingModesBitIdentical(t *testing.T) {
	w, err := workloads.ByName("vadd")
	if err != nil {
		t.Fatal(err)
	}
	opt := TRIPSOptions{Mode: tcc.Hand, UseNUCA: true}
	ref, err := RunTRIPS(w.Build(true), TRIPSOptions{Mode: tcc.Hand, UseNUCA: true, NoFastPath: true})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := buildTRIPS(w.Build(true), opt, true)
	if err != nil {
		t.Fatal(err)
	}
	if seq.lag {
		t.Fatal("the sequential interleave selected the bounded-lag coordinator")
	}
	res, err := seq.core.Run()
	if err != nil {
		t.Fatal(err)
	}
	got, err := seq.finish(res, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := summarize(ref), summarize(got); a != b {
		t.Errorf("sequential interleave diverged from the oracle:\n  oracle: %+v\n  seq:    %+v", a, b)
	}
	if !reflect.DeepEqual(got.Regs, ref.Regs) {
		t.Error("sequential interleave final registers diverge from the oracle")
	}
	if !reflect.DeepEqual(got.NUCA, ref.NUCA) {
		t.Errorf("sequential interleave NUCA counters diverge from the oracle:\n  oracle: %+v\n  seq:    %+v", ref.NUCA, got.NUCA)
	}
}

// chipRun executes one workload under the full chip loop (core behind the
// NUCA secondary memory system, chip ticking the OCN and memory) and
// returns the chip cycle count plus the core's result snapshot.
func chipRun(t *testing.T, w workloads.Workload) (int64, proc.Result) {
	t.Helper()
	spec := w.Build(true)
	prog, meta, err := tcc.Compile(spec.F, tcc.Options{Mode: tcc.Hand, BaseAddr: 0x10000})
	if err != nil {
		t.Fatal(err)
	}
	backing := mem.New()
	if spec.SetupMem != nil {
		spec.SetupMem(backing)
	}
	c, err := chip.New(chip.Config{
		Programs:  [2]*proc.Program{prog, nil},
		Backing:   backing,
		MaxCycles: 50_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	for v, val := range spec.Init {
		if gr, ok := meta.RegOf[v]; ok {
			c.Cores[0].SetRegister(0, gr, val)
		}
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	return c.Cycle(), c.Cores[0].Result()
}

// TestChipLoopDeterministic replays one microbenchmark under the chip loop
// (the externally-ticked memory configuration, which exercises the fast
// paths with deliveries arriving from outside Core.Step) and requires the
// chip cycle count and all core statistics to match across runs.
func TestChipLoopDeterministic(t *testing.T) {
	w, err := workloads.ByName("vadd")
	if err != nil {
		t.Fatal(err)
	}
	cyc1, res1 := chipRun(t, w)
	cyc2, res2 := chipRun(t, w)
	if cyc1 != cyc2 {
		t.Errorf("chip cycles diverged: %d vs %d", cyc1, cyc2)
	}
	if res1 != res2 {
		t.Errorf("chip core result diverged:\n  first:  %+v\n  second: %+v", res1, res2)
	}
	if res1.CommittedBlocks == 0 {
		t.Error("chip run committed no blocks")
	}
}
