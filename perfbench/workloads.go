package main

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"trips/internal/chip"
	"trips/internal/eval"
	"trips/internal/mem"
	"trips/internal/micronet"
	"trips/internal/proc"
	"trips/internal/tcc"
	"trips/internal/tir"
	"trips/internal/workloads"
)

// defaultSeed is the seed the pinned cycle counts below refer to.
const defaultSeed = 1

// workload is one benchmark input set. setup builds the inputs and the
// expected outputs for a seed; the returned job runs one pass.
type workload struct {
	name  string
	setup func(seed int64, sp *spans) (*job, error)
}

var allWorkloads = []workload{
	{"table3", setupTable3},
	{"nuca-core", setupNUCACore},
	{"chip-dual", setupChipDual},
	{"sampled-ckpt", setupSampled},
}

// job is one workload, set up and ready to run passes.
type job struct {
	workers int
	// pass runs every job of the workload once. sp, when non-nil, records
	// the time spent in each public simulator call.
	pass func(sp *spans) passResult
	// probe, when non-nil, measures the critical-path analyzer's host cost
	// in seconds per pass (table3 only).
	probe func() float64
}

// passResult summarizes one pass.
type passResult struct {
	cycles    int64 // simulated cycles across every machine the pass ran
	attempted int
	failures  []error
	ipc       ipcErr
	counts    workCounts
}

func (r *passResult) add(o outcome) {
	r.attempted++
	if o.err != nil {
		r.failures = append(r.failures, o.err)
		return
	}
	r.cycles += o.cycles
	r.ipc.merge(o.ipc)
	r.counts.merge(o.counts)
}

// outcome is one job's result: a simulated run (or a Table 3 row) whose
// outputs were checked.
type outcome struct {
	cycles int64
	err    error // non-nil: the job failed or produced a wrong output
	ipc    ipcErr
	counts workCounts
}

// ipcErr accumulates absolute percentage errors of simulated IPCs against
// the paper's Table 3.
type ipcErr struct {
	sum float64
	n   int
}

func (e *ipcErr) note(got, paper float64) {
	if paper > 0 {
		e.sum += 100 * math.Abs(got-paper) / paper
		e.n++
	}
}

func (e *ipcErr) merge(o ipcErr) { e.sum += o.sum; e.n += o.n }

func (e ipcErr) mean() float64 {
	if e.n == 0 {
		return 0
	}
	return e.sum / float64(e.n)
}

// paperIPC is paper Table 3's IPC columns (transcribed in EXPERIMENTS.md):
// compiled TRIPS, hand-optimized TRIPS (absent, 0, for the SPEC rows) and
// the Alpha baseline.
var paperIPC = map[string]struct{ tcc, hand, alpha float64 }{
	"dct8x8": {5.13, 4.78, 1.69}, "matrix": {2.85, 4.12, 1.68},
	"sha": {1.16, 2.10, 2.28}, "vadd": {4.62, 6.51, 3.03},
	"cfar": {1.35, 1.98, 1.53}, "conv": {4.27, 5.94, 2.08},
	"ct": {4.22, 5.25, 2.31}, "genalg": {1.10, 1.65, 1.05},
	"pm": {1.41, 1.96, 1.19}, "qr": {1.94, 2.36, 1.30},
	"svd": {1.25, 1.11, 1.02}, "a2time01": {1.50, 4.11, 0.95},
	"bezier02": {1.91, 3.20, 1.05}, "basefp01": {1.03, 3.55, 0.78},
	"rspeed01": {1.82, 3.38, 1.03}, "tblook01": {0.77, 1.46, 1.44},
	"181.mcf": {0.78, 0, 0.54}, "197.parser": {1.10, 0, 1.18},
	"256.bzip2": {1.27, 0, 1.40}, "300.twolf": {1.24, 0, 1.00},
	"172.mgrid": {4.89, 0, 1.33},
}

// paperHandIPC is the paper's IPC for a hand-optimized TRIPS run of name:
// its hand column, or its compiled column where the paper reports no hand
// code (the SPEC rows).
func paperHandIPC(name string) float64 {
	p := paperIPC[name]
	if p.hand > 0 {
		return p.hand
	}
	return p.tcc
}

// Pinned simulated cycle counts. The simulator is deterministic, so any
// drift is a wrong result, not noise.
var (
	// pinTable3 holds hand, compiled and Alpha cycles per Table 3 row.
	pinTable3 = map[string][3]int64{
		"dct8x8": {2716, 2987, 2148}, "matrix": {27083, 53051, 22964},
		"sha": {16304, 25791, 5207}, "vadd": {5186, 33198, 27662},
		"cfar": {9802, 30306, 7533}, "conv": {10146, 11305, 10930},
		"ct": {3719, 12862, 11820}, "genalg": {3865, 4467, 3755},
		"pm": {10010, 10551, 7913}, "qr": {2332, 3040, 1645},
		"svd": {1506, 1434, 896}, "a2time01": {6891, 15267, 3566},
		"bezier02": {3693, 4614, 7193}, "basefp01": {3755, 8405, 2164},
		"rspeed01": {7312, 12879, 3653}, "tblook01": {12184, 17152, 14748},
		"181.mcf": {108989, 217951, 28728}, "197.parser": {155307, 192724, 39671},
		"256.bzip2": {37206, 46120, 29446}, "300.twolf": {16334, 39310, 9761},
		"172.mgrid": {26233, 49193, 31857},
	}
	// pinNUCA holds hand-code cycles on one core behind the NUCA.
	pinNUCA = map[string]int64{"181.mcf": 116163, "197.parser": 159657, "256.bzip2": 42089, "vadd": 8546}
	// pinChipDual holds the chip cycles of the two chip-dual runs at the
	// default seed (the DMA placement varies with the seed).
	pinChipDual = map[string]int64{"vadd": 729556, "181.mcf": 724567}
)

// expected is a prepared workload: its golden outputs and the program
// compiled from its spec.
type expected struct {
	name    string
	w       workloads.Workload
	outputs []tir.Reg
	gold    []uint64
	spec    *workloads.Spec // the spec prog was compiled from
	prog    *proc.Program
	meta    *tcc.Meta
}

// prepare builds name's spec, compiles it at base to confirm every declared
// output is architecturally visible, and interprets it for the golden
// outputs.
func prepare(name string, hand bool, base uint64, sp *spans) (*expected, error) {
	w, err := workloads.ByName(name)
	if err != nil {
		return nil, err
	}
	e := &expected{name: name, w: w}
	sp.time("workloads.build_s", func() { e.spec = w.Build(hand) })
	mode := tcc.Compiled
	if hand {
		mode = tcc.Hand
	}
	sp.time("tcc.compile_s", func() { e.prog, e.meta, err = tcc.Compile(e.spec.F, tcc.Options{Mode: mode, BaseAddr: base}) })
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", name, err)
	}
	for _, out := range e.spec.Outputs {
		if _, ok := e.meta.RegOf[out]; !ok {
			return nil, fmt.Errorf("%s: output r%d is not architecturally visible", name, out)
		}
	}
	// Compilation may rewrite the function, so interpret a fresh build.
	gspec := w.Build(hand)
	e.outputs = gspec.Outputs
	sp.time("tir.golden_s", func() { e.gold, _, _, err = eval.RunGolden(gspec) })
	if err != nil {
		return nil, fmt.Errorf("golden %s: %w", name, err)
	}
	return e, nil
}

// check compares a run's declared outputs with the golden interpreter.
func (e *expected) check(machine string, reg func(tir.Reg) (uint64, bool)) error {
	for _, out := range e.outputs {
		got, ok := reg(out)
		if !ok {
			return fmt.Errorf("%s %s: output r%d missing", e.name, machine, out)
		}
		if got != e.gold[out] {
			return fmt.Errorf("%s %s: r%d = %d, golden %d", e.name, machine, out, got, e.gold[out])
		}
	}
	return nil
}

func tripsRegs(r *eval.TRIPSResult) func(tir.Reg) (uint64, bool) {
	return func(v tir.Reg) (uint64, bool) { x, ok := r.Regs[v]; return x, ok }
}

func pinned(what string, got, want int64) error {
	if got != want {
		return fmt.Errorf("%s: %d simulated cycles, pinned %d", what, got, want)
	}
	return nil
}

// pool runs n jobs closed-loop on up to workers goroutines: each job starts
// when a worker frees.
func pool(n, workers int, run func(i int)) {
	workers = min(workers, n)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				run(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// Table 3 machines: each row makes the three runs eval.Table3 makes.
const (
	t3Hand     = iota // hand TRIPS code with the critical-path analyzer
	t3Compiled        // compiled TRIPS code
	t3Alpha           // the Alpha baseline, on the compiled code's spec
)

// t3Run is one Table 3 machine run: a job of the table3 pool.
type t3Run struct {
	exp     *expected
	machine int
}

func (r t3Run) sizeClass() int { return bits.Len64(uint64(pinTable3[r.exp.w.Name][r.machine])) }

func (r t3Run) run(sp *spans) outcome {
	pin, paper := pinTable3[r.exp.w.Name][r.machine], paperIPC[r.exp.w.Name]
	var o outcome
	switch r.machine {
	case t3Hand, t3Compiled:
		opt := eval.TRIPSOptions{Mode: tcc.Hand, TrackCritPath: true}
		want, what := paper.hand, "hand"
		if r.machine == t3Compiled {
			opt, want, what = eval.TRIPSOptions{Mode: tcc.Compiled}, paper.tcc, "compiled"
		}
		var res *eval.TRIPSResult
		var err error
		sp.time("eval.run_trips_s", func() { res, err = eval.RunTRIPS(r.exp.w.Build(r.machine == t3Hand), opt) })
		if err != nil {
			return outcome{err: err}
		}
		o.cycles, o.err = res.Cycles, errors.Join(r.exp.check(what, tripsRegs(res)), pinned(r.exp.w.Name+" "+what, res.Cycles, pin))
		o.ipc.note(res.IPC, want)
		o.counts.addTRIPS(res)
	case t3Alpha:
		var res *eval.AlphaResult
		var err error
		sp.time("alpha.run_s", func() { res, err = eval.RunAlpha(r.exp.w.Build(false)) })
		if err != nil {
			return outcome{err: err}
		}
		alphaRegs := func(v tir.Reg) (uint64, bool) { return res.Regs[v], int(v) < len(res.Regs) }
		o.cycles, o.err = res.Cycles, errors.Join(r.exp.check("alpha", alphaRegs), pinned(r.exp.w.Name+" alpha", res.Cycles, pin))
		o.ipc.note(res.IPC, paper.alpha)
	}
	return o
}

// setupTable3 prepares the 63 machine runs behind Table 3's 21 rows (perfect
// L2). A pass runs them closed-loop on one worker per CPU; the seed draws a
// fresh order for each pass.
func setupTable3(seed int64, sp *spans) (*job, error) {
	var runs []t3Run
	for _, w := range workloads.All() {
		hand, err := prepare(w.Name, true, 0, sp)
		if err != nil {
			return nil, err
		}
		comp, err := prepare(w.Name, false, 0, sp)
		if err != nil {
			return nil, err
		}
		runs = append(runs, t3Run{hand, t3Hand}, t3Run{comp, t3Compiled}, t3Run{comp, t3Alpha})
	}
	rng := rand.New(rand.NewSource(seed))
	workers := runtime.NumCPU()
	j := &job{workers: workers}
	j.pass = func(sp *spans) passResult {
		// Longest runs first, by power-of-two size class of their simulated
		// cycles, so the pass's makespan does not hang on where a long run
		// lands; the seeded order breaks ties.
		order := rng.Perm(len(runs))
		sort.SliceStable(order, func(a, b int) bool { return runs[order[a]].sizeClass() > runs[order[b]].sizeClass() })
		outs := make([]outcome, len(runs))
		pool(len(runs), workers, func(i int) { outs[i] = runs[order[i]].run(sp) })
		var res passResult
		for _, o := range outs {
			res.add(o)
		}
		return res
	}
	// The critical-path analyzer's cost: every hand run again, with and
	// without TrackCritPath, one at a time.
	j.probe = func() float64 {
		var with, without time.Duration
		for _, r := range runs {
			if r.machine != t3Hand {
				continue
			}
			for _, track := range []bool{true, false} {
				spec := r.exp.w.Build(true)
				runtime.GC()
				t0 := time.Now()
				_, _ = eval.RunTRIPS(spec, eval.TRIPSOptions{Mode: tcc.Hand, TrackCritPath: track})
				if track {
					with += time.Since(t0)
				} else {
					without += time.Since(t0)
				}
			}
		}
		return (with - without).Seconds()
	}
	return j, nil
}

// nucaCoreNames are the hand codes nuca-core runs behind the NUCA.
var nucaCoreNames = []string{"181.mcf", "197.parser", "256.bzip2", "vadd"}

// setupNUCACore prepares the single-core NUCA jobs in a seed-permuted order;
// a pass runs them one after another on one thread.
func setupNUCACore(seed int64, sp *spans) (*job, error) {
	order := rand.New(rand.NewSource(seed)).Perm(len(nucaCoreNames))
	exps := make([]*expected, len(order))
	for i, k := range order {
		e, err := prepare(nucaCoreNames[k], true, 0, sp)
		if err != nil {
			return nil, err
		}
		exps[i] = e
	}
	j := &job{workers: 1}
	j.pass = func(sp *spans) passResult {
		var res passResult
		for _, e := range exps {
			var r *eval.TRIPSResult
			var err error
			sp.time("eval.run_trips_s", func() { r, err = eval.RunTRIPS(e.w.Build(true), eval.TRIPSOptions{Mode: tcc.Hand, UseNUCA: true}) })
			if err != nil {
				res.add(outcome{err: err})
				continue
			}
			o := outcome{cycles: r.Cycles, err: errors.Join(e.check("nuca", tripsRegs(r)), pinned(e.name+" nuca", r.Cycles, pinNUCA[e.name]))}
			o.ipc.note(r.IPC, paperHandIPC(e.name))
			o.counts.addTRIPS(r)
			res.add(o)
		}
		return res
	}
	return j, nil
}

// DMA copy geometry for chip-dual: 256 KB from a source window to a
// destination window, each placed at a seed-chosen line offset. Both windows
// sit far above the workloads' data segments and the two code images.
const (
	dmaBytes   = 256 << 10
	dmaSrcBase = 0x80_0000
	dmaDstBase = 0xC0_0000
	dmaLines   = 1024 // offsets are drawn from [0, dmaLines) cache lines
	lineBytes  = 64
	core1Base  = 0x40000 // core 1's code image (core 0 uses tcc's default)
	drainLimit = 100_000 // memory-system cycles allowed to drain after a run
)

// chipRun is one prepared chip-dual run: the same hand code on both cores
// plus one DMA copy.
type chipRun struct {
	exp      *expected
	progs    [2]*proc.Program
	metas    [2]*tcc.Meta
	src, dst uint64
	data     []uint64
}

// prepareChipRuns prepares the two chip runs: vadd on both cores, then
// 181.mcf on both cores, each beside a DMA copy whose source data and line
// offsets come from the seed.
func prepareChipRuns(seed int64, sp *spans) ([]*chipRun, error) {
	rng := rand.New(rand.NewSource(seed))
	var runs []*chipRun
	for _, name := range []string{"vadd", "181.mcf"} {
		r := &chipRun{}
		for k, base := range []uint64{0, core1Base} {
			e, err := prepare(name, true, base, sp)
			if err != nil {
				return nil, err
			}
			r.exp, r.progs[k], r.metas[k] = e, e.prog, e.meta
		}
		r.src = dmaSrcBase + uint64(rng.Intn(dmaLines))*lineBytes
		r.dst = dmaDstBase + uint64(rng.Intn(dmaLines))*lineBytes
		r.data = make([]uint64, dmaBytes/8)
		for i := range r.data {
			r.data[i] = rng.Uint64()
		}
		runs = append(runs, r)
	}
	return runs, nil
}

// setupChipDual prepares the chip runs; a pass makes them one after the
// other, each on a fresh chip.
func setupChipDual(seed int64, sp *spans) (*job, error) {
	runs, err := prepareChipRuns(seed, sp)
	if err != nil {
		return nil, err
	}
	checkPin := seed == defaultSeed
	j := &job{workers: runtime.NumCPU()}
	j.pass = func(sp *spans) passResult {
		var res passResult
		for _, r := range runs {
			res.add(r.run(sp, checkPin))
		}
		return res
	}
	return j, nil
}

// newChip builds a fresh chip for r: the workload's data segment and the
// DMA source in a new SDRAM image, the inputs in both cores' registers.
func (r *chipRun) newChip() (*chip.Chip, *mem.Memory, error) {
	backing := mem.New()
	r.exp.spec.SetupMem(backing)
	for i, v := range r.data {
		backing.Write(r.src+uint64(i)*8, 8, v)
	}
	c, err := chip.New(chip.Config{Programs: r.progs, Backing: backing, Partition: true})
	if err != nil {
		return nil, nil, err
	}
	for k, core := range c.Cores {
		for v, val := range r.exp.spec.Init {
			if gr, ok := r.metas[k].RegOf[v]; ok {
				core.SetRegister(0, gr, val)
			}
		}
	}
	c.DMA[0].Program(r.src, r.dst, dmaBytes)
	return c, backing, nil
}

func (r *chipRun) run(sp *spans, checkPin bool) outcome {
	var c *chip.Chip
	var backing *mem.Memory
	var err error
	sp.time("chip.new_s", func() { c, backing, err = r.newChip() })
	if err != nil {
		return outcome{err: err}
	}
	sp.time("chip.run_s", func() { err = c.Run() })
	if err != nil {
		return outcome{err: fmt.Errorf("chip %s: %w", r.exp.name, err)}
	}
	// Run returns once the cores retire and the DMA is idle, but a dirty
	// line the copy evicted may still be on its way to SDRAM, and Flush
	// writes back only the lines resident in the banks. Drain the memory
	// system before reading the SDRAM image.
	for t := 0; !c.Mem.Quiet() || c.Mem.NextEventCycle() != micronet.HorizonNever; t++ {
		if t == drainLimit {
			return outcome{err: fmt.Errorf("chip %s: memory system not drained %d cycles after the run", r.exp.name, drainLimit)}
		}
		c.Mem.Tick()
	}
	c.Mem.Flush()
	var errs []error
	var ipc ipcErr
	for k, core := range c.Cores {
		meta := r.metas[k]
		errs = append(errs, r.exp.check(fmt.Sprintf("chip core %d", k), func(v tir.Reg) (uint64, bool) {
			gr, ok := meta.RegOf[v]
			return core.Register(0, gr), ok
		}))
		ipc.note(core.Result().IPC, paperHandIPC(r.exp.name))
	}
	if moved := c.DMA[0].Moved; moved != dmaBytes {
		errs = append(errs, fmt.Errorf("chip %s: DMA moved %d bytes, want %d", r.exp.name, moved, dmaBytes))
	}
	for i, v := range r.data {
		if got := backing.Read(r.dst+uint64(i)*8, 8, false); got != v {
			errs = append(errs, fmt.Errorf("chip %s: DMA destination word %d = %#x, source %#x", r.exp.name, i, got, v))
			break
		}
	}
	if checkPin {
		errs = append(errs, pinned("chip "+r.exp.name, c.Cycle(), pinChipDual[r.exp.name]))
	}
	o := outcome{cycles: c.Cycle(), err: errors.Join(errs...), ipc: ipc}
	o.counts.addChip(c)
	return o
}

// SimPoint sampling geometry for sampled-ckpt.
const (
	sampleInterval = 250
	sampleCount    = 128
)

// setupSampled prepares eval.RunSampled on hand 256.bzip2 behind the NUCA
// with a seed-chosen warm-up offset, and the default-stepping eval.RunTRIPS
// result its full-length pass must reproduce.
func setupSampled(seed int64, sp *spans) (*job, error) {
	const name = "256.bzip2"
	warmup := rand.New(rand.NewSource(seed)).Int63n(sampleInterval)
	exp, err := prepare(name, true, 0, sp)
	if err != nil {
		return nil, err
	}
	w := exp.w
	opt := eval.TRIPSOptions{Mode: tcc.Hand, UseNUCA: true}
	var ref *eval.TRIPSResult
	sp.time("eval.reference_s", func() { ref, err = eval.RunTRIPS(w.Build(true), opt) })
	if err != nil {
		return nil, err
	}
	if err := errors.Join(exp.check("reference", tripsRegs(ref)), pinned(name+" nuca", ref.Cycles, pinNUCA[name])); err != nil {
		return nil, err
	}
	workers := runtime.NumCPU()
	j := &job{workers: workers}
	j.pass = func(sp *spans) passResult {
		var sr *eval.SampledResult
		var err error
		sp.time("eval.run_sampled_s", func() { sr, err = eval.RunSampled(w.Build(true), opt, warmup, sampleInterval, sampleCount, workers) })
		var res passResult
		if err != nil {
			res.add(outcome{err: err})
			return res
		}
		f := sr.Full
		errs := []error{exp.check("sampled", tripsRegs(f))}
		if f.Cycles != ref.Cycles || f.Insts != ref.Insts || f.Blocks != ref.Blocks || f.Flushes != ref.Flushes {
			errs = append(errs, fmt.Errorf("sampled %s: full run %d cycles/%d insts/%d blocks/%d flushes, RunTRIPS %d/%d/%d/%d",
				name, f.Cycles, f.Insts, f.Blocks, f.Flushes, ref.Cycles, ref.Insts, ref.Blocks, ref.Flushes))
		}
		for v, x := range ref.Regs {
			if f.Regs[v] != x {
				errs = append(errs, fmt.Errorf("sampled %s: full run r%d = %d, RunTRIPS %d", name, v, f.Regs[v], x))
				break
			}
		}
		if len(sr.Samples) != sampleCount {
			errs = append(errs, fmt.Errorf("sampled %s: %d intervals, want %d", name, len(sr.Samples), sampleCount))
		}
		// The intervals are disjoint stretches of the full run, so together
		// they retire no more instructions than it does.
		cycles := f.Cycles
		var insts uint64
		for _, s := range sr.Samples {
			cycles += s.EndCycle - s.StartCycle
			insts += s.Insts
			if s.EndCycle-s.StartCycle != sampleInterval {
				errs = append(errs, fmt.Errorf("sampled %s: interval %d covers %d cycles, want %d", name, s.Index, s.EndCycle-s.StartCycle, sampleInterval))
				break
			}
		}
		if insts > f.Insts {
			errs = append(errs, fmt.Errorf("sampled %s: intervals retire %d instructions, the full run %d", name, insts, f.Insts))
		}
		o := outcome{cycles: cycles, err: errors.Join(errs...)}
		o.ipc.note(f.IPC, paperHandIPC(name))
		o.counts.addTRIPS(f)
		o.counts.ckptFrames += int64(len(sr.Samples))
		o.counts.ckptBytes += sr.CkptBytes
		res.add(o)
		return res
	}
	return j, nil
}
