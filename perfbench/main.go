// Command perfbench is the simulator's benchmark. It runs one workload for a
// fixed time and prints, as its last line, one JSON object: whether every
// simulated output was correct, how many jobs were attempted and failed, and
// the metrics. With -trace 0 the metrics are end-to-end host costs; with
// -trace 1 a separate traced run reports per-layer metrics instead.
//
//	bash perfbench/run.sh --workload table3 --seed 1 --seconds 25 --trace 0
//
// See README.md for the workloads, the metrics and what each one should
// move.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

const (
	// setupRuns is how many times a run sets its workload up; setup_s is
	// the median.
	setupRuns = 9
	// minPasses is the fewest measured passes a run makes, however long
	// they take.
	minPasses = 3
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: table3, nuca-core, chip-dual or sampled-ckpt")
	seed := flag.Int64("seed", defaultSeed, "input seed")
	seconds := flag.Float64("seconds", 10, "measuring time in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.Parse()
	var w *workload
	for i := range allWorkloads {
		if allWorkloads[i].name == *name {
			w = &allWorkloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>\n")
		return 2
	}

	var j *job
	var setupTimes []float64
	setupSpans := make([]*spans, setupRuns)
	for i := range setupSpans {
		runtime.GC()
		setupSpans[i] = newSpans()
		t0 := time.Now()
		var err error
		j, err = w.setup(*seed, setupSpans[i])
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: setup %s: %v\n", w.name, err)
			return 1
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}

	res := result{Correct: true, Metrics: map[string]metric{}}
	var passes []pass
	if *trace == 0 {
		passes = measure(j, *seconds, minPasses, nil)
		endToEnd(res.Metrics, passes, median(setupTimes))
	} else {
		var err error
		passes, err = traced(res.Metrics, j, *seconds, setupSpans)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: traced run: %v\n", err)
			res.Correct = false
		}
	}
	tally(&res, passes)
	printHost(w.name, *seed, j.workers, passes)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// pass is one measured pass.
type pass struct {
	wall, cpu float64 // seconds
	res       passResult
}

// measure runs passes until seconds have elapsed and at least min passes
// have run. Each pass starts from a collected heap.
func measure(j *job, seconds float64, min int, sp *spans) []pass {
	var out []pass
	start := time.Now()
	for len(out) < min || time.Since(start).Seconds() < seconds {
		runtime.GC()
		out = append(out, runPass(j, sp))
	}
	return out
}

// runPass runs and times one pass.
func runPass(j *job, sp *spans) pass {
	cpu0 := cpuSeconds()
	t0 := time.Now()
	r := j.pass(sp)
	return pass{wall: time.Since(t0).Seconds(), cpu: cpuSeconds() - cpu0, res: r}
}

// endToEnd fills the untraced run's metrics.
func endToEnd(m map[string]metric, passes []pass, setup float64) {
	var walls, cpus, rates []float64
	for _, p := range passes {
		walls = append(walls, p.wall)
		cpus = append(cpus, p.cpu)
		rates = append(rates, float64(p.res.cycles)/p.wall)
	}
	m["setup_s"] = metric{setup, "s"}
	m["wall_s"] = metric{median(walls), "s"}
	m["sim_cycles_per_s"] = metric{median(rates), "1/s"}
	m["cpu_s"] = metric{median(cpus), "s"}
	m["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	m["paper_ipc_err_pct"] = metric{passes[0].res.ipc.mean(), "%"}
}

// tally counts attempted and failed jobs. Simulated cycles must repeat
// exactly from pass to pass; a pass that drifts counts as one more failure.
func tally(res *result, passes []pass) {
	for i, p := range passes {
		res.Attempted += p.res.attempted
		res.Failed += len(p.res.failures)
		for _, err := range p.res.failures {
			fmt.Fprintf(os.Stderr, "perfbench: pass %d: %v\n", i, err)
		}
		if len(p.res.failures) == 0 && len(passes[0].res.failures) == 0 && p.res.cycles != passes[0].res.cycles {
			res.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: pass %d simulated %d cycles, pass 0 %d\n", i, p.res.cycles, passes[0].res.cycles)
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}
}

// printHost prints the host stamp line that precedes the result.
func printHost(name string, seed int64, workers int, passes []pass) {
	walls := make([]float64, len(passes))
	for i, p := range passes {
		walls[i] = p.wall
	}
	stamp := map[string]any{
		"workload":    name,
		"seed":        seed,
		"passes":      len(passes),
		"pass_wall_s": walls,
		"workers":     workers,
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go_version":  runtime.Version(),
		"cpu_model":   cpuModel(),
	}
	out, _ := json.Marshal(map[string]any{"host": stamp})
	fmt.Println(string(out))
}

// cpuModel reads the host CPU's model name, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
