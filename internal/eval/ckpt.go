package eval

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"trips/internal/ckpt"
	"trips/internal/mem"
	"trips/internal/nuca"
	"trips/internal/proc"
	"trips/internal/tcc"
	"trips/internal/tir"
	"trips/internal/workloads"
)

// trips is one built TRIPS machine: the compiled program imaged into memory,
// the core, and whichever memory backend the options selected. RunTRIPS runs
// one to completion; each RunSampled worker restores interval after
// interval into one.
type trips struct {
	name string
	prog *proc.Program
	meta *tcc.Meta
	m    *mem.Memory
	core *proc.Core
	sys  *nuca.System
	flm  *proc.FixedLatencyMem
	lat  int
	lag  bool
}

// machineBuilds counts buildTRIPS calls, so tests can pin how many machines
// a sampled run builds.
var machineBuilds atomic.Int64

// buildTRIPS compiles spec and assembles the machine RunTRIPS would run. A
// NUCA machine runs under the bounded-lag coordinator unless opt.NoFastPath
// or seq selects the sequential interleave, in which the core steps its
// memory system itself; RunSampled and ReplayBundle set seq because they
// drive restored machines cycle by cycle.
func buildTRIPS(spec *workloads.Spec, opt TRIPSOptions, seq bool) (*trips, error) {
	machineBuilds.Add(1)
	prog, meta, err := tcc.Compile(spec.F, tcc.Options{Mode: opt.Mode, Placement: opt.Placement})
	if err != nil {
		return nil, fmt.Errorf("eval: compile %s: %w", spec.F.Name, err)
	}
	m := mem.New()
	if spec.SetupMem != nil {
		spec.SetupMem(m)
	}
	if err := prog.Image(m); err != nil {
		return nil, err
	}
	lat := opt.MemLatency
	if lat == 0 {
		lat = 20
	}
	t := &trips{name: spec.F.Name, prog: prog, meta: meta, m: m, lat: lat}
	t.lag = opt.UseNUCA && !opt.NoFastPath && !seq
	var backend proc.MemBackend
	if opt.UseNUCA {
		t.sys = nuca.New(nuca.Config{Backing: m, Trace: opt.Trace, Metrics: opt.Metrics})
		// Bounded-lag stepping needs every port tagged with the single
		// core's owner id so the staged-submission gate and the effect gate
		// see its traffic. The sequential interleave tags them too: the
		// per-owner accounting is then part of every checkpoint, so a frame
		// captured under either stepper resumes under the other.
		t.sys.AssignOwners(func(string) int { return 0 })
		backend = t.sys
	} else {
		t.flm = proc.NewFixedLatencyMem(m, lat)
		backend = t.flm
	}
	core, err := proc.NewCore(proc.Config{
		Program:           prog,
		Mem:               backend,
		TrackCritPath:     opt.TrackCritPath,
		OPNChannels:       opt.OPNChannels,
		ConservativeLoads: opt.ConservativeLoads,
		SlowOPNRouter:     opt.SlowOPNRouter,
		NoFastPath:        opt.NoFastPath,
		ExternalMemTick:   t.lag,
		MaxCycles:         opt.MaxCycles,
		Trace:             opt.Trace,
		Metrics:           opt.Metrics,
	})
	if err != nil {
		return nil, err
	}
	for v, val := range spec.Init {
		if gr, ok := meta.RegOf[v]; ok {
			core.SetRegister(0, gr, val)
		}
	}
	if opt.LagHorizonOverride > 0 || opt.LagDeadlinePad > 0 {
		core.SetLagFaults(opt.LagHorizonOverride, opt.LagDeadlinePad)
	}
	t.core = core
	return t, nil
}

// hash binds a checkpoint to the exact program image and the configuration
// knobs that shape simulated behavior. The stepper (NoFastPath, and the
// sequential interleave RunSampled and ReplayBundle use) is deliberately
// excluded: all steppers are bit-identical by construction, so a
// checkpoint taken under one may be restored under another.
func (t *trips) hash(opt TRIPSOptions) ckpt.Hash {
	cfg := fmt.Sprintf("eval:%s mode=%v placement=%v opn=%d conservative=%v slowopn=%v memlat=%d nuca=%v",
		t.name, opt.Mode, opt.Placement, opt.OPNChannels, opt.ConservativeLoads,
		opt.SlowOPNRouter, t.lat, opt.UseNUCA)
	return ckpt.HashContent(t.prog.CanonicalBytes(), []byte(cfg))
}

// save serializes the whole machine: the core (tiles, micronets, LSQs,
// predictor, event wheel) followed by the memory backend (which carries the
// backing memory image).
func (t *trips) save(w *ckpt.Writer) error {
	if err := t.core.SaveState(w); err != nil {
		return err
	}
	if t.sys != nil {
		t.sys.SaveState(w)
	} else {
		t.flm.SaveState(w)
	}
	return nil
}

// load restores a checkpoint payload into a machine built with the same
// spec and options, fresh or one that has already run: every piece of
// simulated state is overwritten. The core restores first: origin
// resolution for in-flight memory transactions reads restored tile state.
func (t *trips) load(payload []byte) error {
	pr := ckpt.NewReader(payload)
	if err := t.core.LoadState(pr); err != nil {
		return err
	}
	if t.sys != nil {
		t.sys.LoadState(pr, func(string) proc.OriginResolver { return t.core })
	} else {
		t.flm.LoadState(pr, t.core)
	}
	return pr.Close()
}

// finish drains and summarizes a completed run (shared by RunTRIPS and the
// RunSampled profiling pass).
func (t *trips) finish(res proc.Result, lagStats *proc.LagStats) (*TRIPSResult, error) {
	t.core.FlushCaches()
	if t.sys != nil {
		// Leak assertion: a completed run must have drained the OCN pending
		// tables — every transaction (split or not) saw its response. A
		// residue here means a response was dropped or a pending entry
		// leaked, which would surface much later as an id collision.
		if n := t.sys.Outstanding(); n != 0 {
			return nil, fmt.Errorf("eval: %s: %d OCN transactions still pending after completion", t.name, n)
		}
		t.sys.Flush()
	}
	regs := make(map[tir.Reg]uint64, len(t.meta.RegOf))
	for v, gr := range t.meta.RegOf {
		regs[v] = t.core.Register(0, gr)
	}
	var nucaRep *nuca.StatsReport
	if t.sys != nil {
		rep := t.sys.Report()
		nucaRep = &rep
	}
	return &TRIPSResult{
		Cycles:    res.Cycles,
		Insts:     res.CommittedInsts,
		Blocks:    res.CommittedBlocks,
		IPC:       res.IPC,
		Flushes:   res.Flushes,
		Crit:      res.CritPath,
		Regs:      regs,
		Mem:       t.m,
		BlockSize: t.meta.AvgBlockSize,
		Stats:     t.core.TileStats(),

		Warps:         t.core.Warps,
		WarpedCycles:  t.core.WarpedCycles,
		TileTicks:     t.core.TileTicks,
		TileSkips:     t.core.TileSkips,
		SteppedCycles: t.core.SteppedCycles,
		NUCA:          nucaRep,
		Lag:           lagStats,
	}, nil
}

// SampleInterval is one measured interval of a sampled run.
type SampleInterval struct {
	Index      int
	StartCycle int64 // the commit boundary the interval's checkpoint captured
	EndCycle   int64 // StartCycle + the interval length, or earlier if the program ended
	Insts      uint64
	IPC        float64
}

// SampledResult is the outcome of RunSampled: the full-length profiling
// pass plus the per-interval measurements replayed from its checkpoints.
type SampledResult struct {
	Full      *TRIPSResult
	Warmup    int64
	Interval  int64
	Samples   []SampleInterval
	CkptBytes int64 // total checkpoint payload bytes captured
}

// RunSampled runs spec once end-to-end, capturing in-memory checkpoints at
// block-commit boundaries — the first after `warmup` cycles, then every
// `interval` cycles, up to maxSamples — and replays each interval
// SimPoint-style on a worker pool, yielding per-interval IPC without a
// second serial pass. workers <= 0 means GOMAXPROCS.
//
// The intervals stream: the workers start before the profiling pass, and
// each capture is queued as soon as it is written, so intervals replay
// while the reference run is still going. Each worker builds one machine
// and restores every frame it takes into that same machine (the LoadState
// contract: a restore overwrites all simulated state of any machine built
// with an identical config, whatever it has run). A worker whose restore
// or interval fails discards its machine and builds a fresh one for its
// next frame. Samples are indexed by capture order, so they do not depend
// on scheduling; the error reported is the lowest-index interval's.
//
// The machines run on the sequential core/memory interleave: every
// stepper is bit-identical by construction, and the sequential one lets a
// restored interval be driven cycle by cycle. A program that retires before
// `warmup` yields Samples of length zero.
func RunSampled(spec *workloads.Spec, opt TRIPSOptions, warmup, interval int64, maxSamples, workers int) (*SampledResult, error) {
	if interval <= 0 {
		return nil, fmt.Errorf("eval: sampled %s: interval must be positive, got %d", spec.F.Name, interval)
	}
	if maxSamples <= 0 {
		return nil, fmt.Errorf("eval: sampled %s: maxSamples must be positive, got %d", spec.F.Name, maxSamples)
	}
	if warmup < 0 {
		return nil, fmt.Errorf("eval: sampled %s: warmup must be non-negative, got %d", spec.F.Name, warmup)
	}
	if opt.TrackCritPath {
		return nil, fmt.Errorf("eval: sampled %s: incompatible with critical-path tracking (critical-path events are not checkpointed)", spec.F.Name)
	}
	if opt.CheckpointTo != nil || opt.RestoreFrom != nil {
		return nil, fmt.Errorf("eval: sampled %s: cannot combine with explicit checkpoint/restore", spec.F.Name)
	}
	if opt.Flight != nil {
		return nil, fmt.Errorf("eval: sampled %s: the flight recorder and SimPoint sampling both own the commit hook; use one", spec.F.Name)
	}
	opt.CheckpointAt = 0
	// A Tracer/Sampler is single-goroutine; the interval machines run
	// concurrently, so observability stays on the profiling pass only.
	intervalOpt := opt
	intervalOpt.Trace, intervalOpt.Metrics = nil, nil

	ref, err := buildTRIPS(spec, opt, true)
	if err != nil {
		return nil, err
	}

	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, maxSamples)
	// The queue has room for every frame the pass captures, so the pass
	// never waits for a worker (past maxQueuedFrames queued frames it
	// would).
	queue := make(chan sampleFrame, min(maxSamples, maxQueuedFrames))
	// Workers hand back the buffers of frames they are done with, and
	// the next captures are written into them. One slot per worker: the
	// pass takes a buffer at every capture, and a worker with nowhere to
	// put one leaves it to the collector.
	spare := make(chan []byte, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sampleWorker(spec, intervalOpt, interval, queue, spare)
		}()
	}
	// Every return below, and a panic in the pass, closes the queue and
	// waits for the workers: none outlives RunSampled.
	stop := sync.OnceFunc(func() {
		close(queue)
		wg.Wait()
	})
	defer stop()

	var results []*sampleResult
	var totalBytes int64
	ref.armSampling(warmup, interval, maxSamples, spare, func(payload []byte) {
		r := &sampleResult{}
		results = append(results, r)
		totalBytes += int64(len(payload))
		queue <- sampleFrame{payload: payload, out: r}
	})
	res, err := ref.core.Run()
	if err != nil {
		return nil, fmt.Errorf("eval: sampled %s: %w", spec.F.Name, err)
	}
	full, err := ref.finish(res, nil)
	if err != nil {
		return nil, err
	}
	stop()

	out := &SampledResult{Full: full, Warmup: warmup, Interval: interval, CkptBytes: totalBytes}
	if len(results) == 0 {
		return out, nil
	}
	out.Samples = make([]SampleInterval, len(results))
	for i, r := range results {
		if r.err != nil {
			return nil, fmt.Errorf("eval: sampled %s: interval %d: %w", spec.F.Name, i, r.err)
		}
		out.Samples[i] = r.s
		out.Samples[i].Index = i
	}
	return out, nil
}

// maxQueuedFrames caps RunSampled's frame queue, so a maxSamples far past
// any program's length does not allocate a channel that large.
const maxQueuedFrames = 1024

// sampleFrame is one captured checkpoint on its way to a sampling worker,
// with the slot its interval's outcome goes to.
type sampleFrame struct {
	payload []byte
	out     *sampleResult
}

// sampleResult is one interval's outcome. The worker that takes the frame
// writes s and err; RunSampled reads them after the workers have exited.
type sampleResult struct {
	s   SampleInterval
	err error
}

// armSampling arms the machine's checkpoint hook to save a frame at the
// first block-commit boundary past warmup, then every interval cycles, up
// to maxSamples frames, and hands each frame to emit as soon as it is
// written. A save reuses a buffer from spare when one is waiting (a nil
// spare never has one). Each save is sized from the previous frame's
// length: frames grow slowly as a run goes on, and an eighth of slack
// keeps the next one inside its first buffer.
func (t *trips) armSampling(warmup, interval int64, maxSamples int, spare <-chan []byte, emit func(payload []byte)) {
	var n, last int
	var capture func(cycle int64) error
	capture = func(cycle int64) error {
		var buf []byte
		select {
		case buf = <-spare:
		default:
		}
		pw := ckpt.NewWriter(buf)
		pw.Grow(last + last/8)
		if err := t.save(pw); err != nil {
			return err
		}
		last = pw.Len()
		n++
		emit(pw.Payload())
		if n < maxSamples {
			t.core.SetCheckpointHook(cycle+interval, capture)
		}
		return nil
	}
	t.core.SetCheckpointHook(warmup, capture)
}

// sampleWorker replays every frame it takes from queue on one machine. The
// machine is built on the first frame and recycled for the rest; a failed
// restore or interval leaves it in an unknown state, so it is dropped and
// the next frame gets a fresh one. Each payload is released as soon as its
// interval is done: its buffer goes to spare when there is room (a restore
// copies everything it keeps out of the payload), else to the collector.
func sampleWorker(spec *workloads.Spec, opt TRIPSOptions, interval int64, queue <-chan sampleFrame, spare chan<- []byte) {
	var t *trips
	for f := range queue {
		var err error
		if t == nil {
			t, err = buildTRIPS(spec, opt, true)
		}
		if err == nil {
			f.out.s, err = t.runInterval(f.payload, interval)
		}
		if err != nil {
			f.out.err = err
			t = nil
		}
		select {
		case spare <- f.payload:
		default:
		}
	}
}

// runInterval restores one checkpoint into the machine and steps it for one
// interval (or until the program retires).
func (t *trips) runInterval(payload []byte, interval int64) (SampleInterval, error) {
	if err := t.load(payload); err != nil {
		return SampleInterval{}, err
	}
	start := t.core.Cycle()
	startInsts := t.core.CommittedInsts
	end := start + interval
	for !t.core.Done() && t.core.Cycle() < end {
		t.core.Step()
	}
	s := SampleInterval{StartCycle: start, EndCycle: t.core.Cycle(), Insts: t.core.CommittedInsts - startInsts}
	if d := s.EndCycle - s.StartCycle; d > 0 {
		s.IPC = float64(s.Insts) / float64(d)
	}
	return s, nil
}
