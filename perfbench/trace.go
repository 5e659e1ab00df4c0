package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"time"

	"trips/internal/chip"
	"trips/internal/eval"
	"trips/internal/proc"
)

// spans accumulates the time spent in each public simulator call the
// benchmark makes, by call name. A nil *spans records nothing.
type spans struct {
	mu sync.Mutex
	d  map[string]time.Duration
}

func newSpans() *spans { return &spans{d: map[string]time.Duration{}} }

// time runs f, charging its duration to name.
func (s *spans) time(name string, f func()) {
	if s == nil {
		f()
		return
	}
	t0 := time.Now()
	f()
	d := time.Since(t0)
	s.mu.Lock()
	s.d[name] += d
	s.mu.Unlock()
}

func (s *spans) seconds(name string) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.d[name].Seconds()
}

// workCounts are per-layer work counts read from the simulator's public
// results.
type workCounts struct {
	tileTicks, tileSkips  uint64
	stepped, warped, runs int64 // stepped/warped core cycles; simulated cycles of the TRIPS machines
	strides, strideCycles uint64
	rollbacks             uint64
	l2Hits, l2Misses      uint64
	ocnDelivered          uint64
	ckptFrames, ckptBytes int64
}

func (w *workCounts) addTRIPS(r *eval.TRIPSResult) {
	w.tileTicks += r.TileTicks
	w.tileSkips += r.TileSkips
	w.stepped += r.SteppedCycles
	w.warped += r.WarpedCycles
	w.runs += r.Cycles
	if r.Lag != nil {
		w.addLag(r.Lag)
	}
	if n := r.NUCA; n != nil {
		w.l2Hits += n.Hits
		w.l2Misses += n.Misses
		w.ocnDelivered += n.OCNDelivered
	}
}

func (w *workCounts) addChip(c *chip.Chip) {
	ticks, skips, stepped := c.TileActivity()
	w.tileTicks += ticks
	w.tileSkips += skips
	w.stepped += stepped
	w.warped += c.WarpedCycles
	w.runs += c.Cycle()
	w.addLag(&c.Lag)
	n := c.Mem.Report()
	w.l2Hits += n.Hits
	w.l2Misses += n.Misses
	w.ocnDelivered += n.OCNDelivered
}

func (w *workCounts) addLag(s *proc.LagStats) {
	for _, c := range s.Core {
		w.strides += c.Strides
		w.strideCycles += uint64(c.StrideCycles)
		w.rollbacks += c.Rollbacks
	}
}

func (w *workCounts) merge(o workCounts) {
	w.tileTicks += o.tileTicks
	w.tileSkips += o.tileSkips
	w.stepped += o.stepped
	w.warped += o.warped
	w.runs += o.runs
	w.strides += o.strides
	w.strideCycles += o.strideCycles
	w.rollbacks += o.rollbacks
	w.l2Hits += o.l2Hits
	w.l2Misses += o.l2Misses
	w.ocnDelivered += o.ocnDelivered
	w.ckptFrames += o.ckptFrames
	w.ckptBytes += o.ckptBytes
}

// runtimeSnap is a reading of the Go runtime's counters.
type runtimeSnap struct {
	allocBytes, allocObjects, gcCycles float64
	gcCPU, totalCPU, pause             float64 // seconds
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSnap {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeSnap{
		allocBytes: val(0), allocObjects: val(1), gcCycles: val(2),
		gcCPU: val(3), totalCPU: val(4), pause: float64(ms.PauseTotalNs) / 1e9,
	}
}

func (a runtimeSnap) sub(b runtimeSnap) runtimeSnap {
	return runtimeSnap{
		allocBytes: a.allocBytes - b.allocBytes, allocObjects: a.allocObjects - b.allocObjects,
		gcCycles: a.gcCycles - b.gcCycles, gcCPU: a.gcCPU - b.gcCPU,
		totalCPU: a.totalCPU - b.totalCPU, pause: a.pause - b.pause,
	}
}

func (a *runtimeSnap) add(b runtimeSnap) {
	a.allocBytes += b.allocBytes
	a.allocObjects += b.allocObjects
	a.gcCycles += b.gcCycles
	a.gcCPU += b.gcCPU
	a.totalCPU += b.totalCPU
	a.pause += b.pause
}

// Shares of the run's measuring time: untraced passes first, for the
// tracing-overhead baseline and host time per stepped cycle, then traced
// passes under the CPU profiler.
const (
	untracedShare = 0.3
	tracedShare   = 0.7
)

// traced makes the per-layer run: untraced passes, then passes under the
// CPU profiler with every public call timed, then the workload's probe and
// the per-layer microbenchmarks. It fills m with every per-layer metric
// (zero where the workload does not exercise the layer) and returns every
// pass it made.
func traced(m map[string]metric, j *job, seconds float64, setup []*spans) ([]pass, error) {
	base := measure(j, seconds*untracedShare, 1, nil)

	sp := newSpans()
	var rt runtimeSnap
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return base, err
	}
	var tr []pass
	start := time.Now()
	for len(tr) < 2 || time.Since(start).Seconds() < seconds*tracedShare {
		runtime.GC()
		r0 := readRuntime()
		tr = append(tr, runPass(j, sp))
		rt.add(readRuntime().sub(r0))
	}
	pprof.StopCPUProfile()
	passes := append(base, tr...)

	n := float64(len(tr))
	perPass := func(name string) float64 { return sp.seconds(name) / n }
	perSetup := func(name string) float64 {
		var xs []float64
		for _, s := range setup {
			xs = append(xs, s.seconds(name))
		}
		return median(xs)
	}
	for _, name := range []string{"workloads.build_s", "tcc.compile_s", "tir.golden_s"} {
		m[name] = metric{perSetup(name), "s"}
	}
	for _, name := range []string{"eval.run_trips_s", "alpha.run_s", "chip.new_s", "chip.run_s", "eval.run_sampled_s"} {
		m[name] = metric{perPass(name), "s"}
	}
	overhead := 0.0
	if j.probe != nil {
		overhead = j.probe()
	}
	m["critpath.overhead_s"] = metric{overhead, "s"}

	var baseWall, trWall []float64
	var baseWallSum float64
	var counts workCounts
	var cycles int64
	for _, p := range base {
		baseWall = append(baseWall, p.wall)
		baseWallSum += p.wall
	}
	for _, p := range tr {
		trWall = append(trWall, p.wall)
		counts.merge(p.res.counts)
		cycles += p.res.cycles
	}
	m["bench.trace_overhead_pct"] = metric{100 * (median(trWall)/median(baseWall) - 1), "%"}

	m["runtime.alloc_bytes_per_sim_cycle"] = metric{ratio(rt.allocBytes, float64(cycles)), "B/cycle"}
	m["runtime.allocs_per_sim_cycle"] = metric{ratio(rt.allocObjects, float64(cycles)), "allocs/cycle"}
	m["runtime.gc_cycles"] = metric{rt.gcCycles / n, "count"}
	m["runtime.gc_pause_s"] = metric{rt.pause / n, "s"}
	m["runtime.gc_cpu_frac"] = metric{ratio(rt.gcCPU, rt.totalCPU), "fraction"}

	m["proc.tile_skip_frac"] = metric{ratio(float64(counts.tileSkips), float64(counts.tileTicks+counts.tileSkips)), "fraction"}
	m["proc.warp_frac"] = metric{ratio(float64(counts.warped), float64(counts.runs)), "fraction"}
	// Host time per stepped cycle comes from the untraced passes; the
	// stepped-cycle count is the same on every pass.
	m["proc.host_ns_per_stepped_cycle"] = metric{ratio(1e9*baseWallSum/float64(len(base)), float64(counts.stepped)/n), "ns"}
	m["lag.avg_stride"] = metric{ratio(float64(counts.strideCycles), float64(counts.strides)), "cycles"}
	m["lag.rollbacks"] = metric{float64(counts.rollbacks) / n, "count"}
	m["nuca.l2_hit_rate"] = metric{ratio(float64(counts.l2Hits), float64(counts.l2Hits+counts.l2Misses)), "fraction"}
	m["nuca.ocn_delivered"] = metric{float64(counts.ocnDelivered) / n, "count"}
	m["ckpt.frames"] = metric{float64(counts.ckptFrames) / n, "count"}
	m["ckpt.frame_bytes"] = metric{ratio(float64(counts.ckptBytes), float64(counts.ckptFrames)), "B"}

	p, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		return passes, err
	}
	shares, err := layerShares(p)
	if err != nil {
		return passes, err
	}
	var sum float64
	for _, l := range layerNames {
		m["host."+l+"_pct"] = metric{shares[l], "%"}
		sum += shares[l]
	}
	if math.Abs(sum-100) > 1 {
		return passes, fmt.Errorf("layer shares sum to %.2f%%", sum)
	}

	if err := microbenchmarks(m); err != nil {
		return passes, err
	}
	return passes, nil
}

// ratio is a/b, or 0 when b is 0 (the layer did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
