// bench-compare diffs two benchmark baselines (see scripts/bench.sh).
//
//	bench-compare baseline.json fresh.json        Table 3 baselines
//	bench-compare -chip baseline.json fresh.json  chip-stepping baselines
//
// Simulated cycle counts (CyclesHand, CyclesTCC, CyclesAlpha per workload in
// Table 3 mode; the per-variant cycle column in chip mode) are
// deterministic: any drift between the two files — including a row appearing
// or disappearing — is a regression and exits nonzero. Host throughput (wall
// time, ns per op) varies by machine and load, so those deltas are reported
// but never fail the run.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"trips/internal/eval"
)

type row struct {
	Name        string
	CyclesHand  int64
	CyclesTCC   int64
	CyclesAlpha int64
}

type host struct {
	Workload         string  `json:"workload"`
	SimCycles        int64   `json:"sim_cycles"`
	WallNS           int64   `json:"wall_ns"`
	HostNSPerSimCyc  float64 `json:"host_ns_per_sim_cycle"`
	SimCyclesPerSec_ float64 `json:"sim_cycles_per_sec"`
}

type baseline struct {
	Rows            []row   `json:"rows"`
	Host            []host  `json:"host"`
	SimCyclesPerSec float64 `json:"sim_cycles_per_sec"`
}

func load(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench-compare:", err)
	os.Exit(2)
}

func main() {
	args := os.Args[1:]
	chipMode := false
	if len(args) > 0 && args[0] == "-chip" {
		chipMode = true
		args = args[1:]
	}
	if len(args) != 2 {
		fmt.Fprintf(os.Stderr, "usage: %s [-chip] baseline.json fresh.json\n", os.Args[0])
		os.Exit(2)
	}
	if chipMode {
		compareChip(args[0], args[1])
		return
	}
	compareTable3(args[0], args[1])
}

// compareChip diffs two ChipBenchReport files: cycle drift per
// (bench, variant) cell fails, host ns/op and tile-skip coverage are
// informational.
func compareChip(basePath, freshPath string) {
	var base, fresh eval.ChipBenchReport
	if err := load(basePath, &base); err != nil {
		fatal(err)
	}
	if err := load(freshPath, &fresh); err != nil {
		fatal(err)
	}
	key := func(r eval.ChipBenchRow) string { return r.Bench + "/" + r.Variant }
	baseRows := make(map[string]eval.ChipBenchRow, len(base.Rows))
	for _, r := range base.Rows {
		baseRows[key(r)] = r
	}
	freshRows := make(map[string]eval.ChipBenchRow, len(fresh.Rows))
	for _, r := range fresh.Rows {
		freshRows[key(r)] = r
	}
	var names []string
	for n := range baseRows {
		names = append(names, n)
	}
	for n := range freshRows {
		if _, ok := baseRows[n]; !ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)

	drift := 0
	for _, n := range names {
		b, inBase := baseRows[n]
		f, inFresh := freshRows[n]
		switch {
		case !inBase:
			fmt.Printf("DRIFT %-32s only in fresh run\n", n)
			drift++
		case !inFresh:
			fmt.Printf("DRIFT %-32s missing from fresh run\n", n)
			drift++
		case b.Cycles != f.Cycles:
			fmt.Printf("DRIFT %-32s cycles %d -> %d\n", n, b.Cycles, f.Cycles)
			drift++
		}
	}
	if drift == 0 {
		fmt.Printf("simulated cycles: %d chip-bench cells identical\n", len(names))
	}

	// Host time: informational only.
	for _, n := range names {
		b, inBase := baseRows[n]
		f, inFresh := freshRows[n]
		if !inBase || !inFresh || b.NsPerOp == 0 {
			continue
		}
		delta := (f.NsPerOp - b.NsPerOp) / b.NsPerOp * 100
		fmt.Printf("host  %-32s %11.0f -> %11.0f ns/op (%+.1f%%)\n", n, b.NsPerOp, f.NsPerOp, delta)
	}
	// Tile-skip coverage (the event-driven doze overlay's engagement):
	// deterministic per cell, but a coverage drop with identical cycles is a
	// lost host-time optimization, not a correctness failure — so flag
	// regressions informationally without failing the run.
	for _, n := range names {
		b, inBase := baseRows[n]
		f, inFresh := freshRows[n]
		if !inFresh || f.SkipCoverage == 0 && (!inBase || b.SkipCoverage == 0) {
			continue
		}
		line := fmt.Sprintf("doze  %-32s %5.1f%% tile-skip coverage", n, 100*f.SkipCoverage)
		if inBase && b.SkipCoverage > 0 {
			line += fmt.Sprintf(" (baseline %5.1f%%)", 100*b.SkipCoverage)
			if f.SkipCoverage < b.SkipCoverage-0.01 {
				line += "  REGRESSION"
			}
		}
		fmt.Println(line)
	}

	if drift > 0 {
		fmt.Fprintf(os.Stderr, "bench-compare: %d chip-bench cell(s) drifted in simulated cycles\n", drift)
		os.Exit(1)
	}
}

func compareTable3(basePath, freshPath string) {
	var base, fresh baseline
	if err := load(basePath, &base); err != nil {
		fatal(err)
	}
	if err := load(freshPath, &fresh); err != nil {
		fatal(err)
	}

	baseRows := make(map[string]row, len(base.Rows))
	for _, r := range base.Rows {
		baseRows[r.Name] = r
	}
	freshRows := make(map[string]row, len(fresh.Rows))
	for _, r := range fresh.Rows {
		freshRows[r.Name] = r
	}

	var names []string
	for n := range baseRows {
		names = append(names, n)
	}
	for n := range freshRows {
		if _, ok := baseRows[n]; !ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)

	drift := 0
	for _, n := range names {
		b, inBase := baseRows[n]
		f, inFresh := freshRows[n]
		switch {
		case !inBase:
			fmt.Printf("DRIFT %-12s only in fresh run\n", n)
			drift++
		case !inFresh:
			fmt.Printf("DRIFT %-12s missing from fresh run\n", n)
			drift++
		case b != f:
			fmt.Printf("DRIFT %-12s cycles hand %d->%d tcc %d->%d alpha %d->%d\n",
				n, b.CyclesHand, f.CyclesHand, b.CyclesTCC, f.CyclesTCC, b.CyclesAlpha, f.CyclesAlpha)
			drift++
		}
	}
	if drift == 0 {
		fmt.Printf("simulated cycles: %d workloads identical\n", len(names))
	}

	// Host throughput: informational only.
	baseHost := make(map[string]host, len(base.Host))
	for _, h := range base.Host {
		baseHost[h.Workload] = h
	}
	for _, f := range fresh.Host {
		b, ok := baseHost[f.Workload]
		if !ok || b.HostNSPerSimCyc == 0 {
			continue
		}
		delta := (f.HostNSPerSimCyc - b.HostNSPerSimCyc) / b.HostNSPerSimCyc * 100
		fmt.Printf("host  %-12s %8.0f -> %8.0f ns/sim-cycle (%+.1f%%)\n",
			f.Workload, b.HostNSPerSimCyc, f.HostNSPerSimCyc, delta)
	}
	if base.SimCyclesPerSec > 0 && fresh.SimCyclesPerSec > 0 {
		delta := (fresh.SimCyclesPerSec - base.SimCyclesPerSec) / base.SimCyclesPerSec * 100
		fmt.Printf("host  %-12s %8.0f -> %8.0f sim-cycles/sec (%+.1f%%)\n",
			"TOTAL", base.SimCyclesPerSec, fresh.SimCyclesPerSec, delta)
	}

	if drift > 0 {
		fmt.Fprintf(os.Stderr, "bench-compare: %d workload(s) drifted in simulated cycles\n", drift)
		os.Exit(1)
	}
}
