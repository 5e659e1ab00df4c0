package eval

import (
	"encoding/json"
	"os"
	"runtime"
	"sort"
)

// ChipBenchRow is one (benchmark, variant) cell of the chip-bench host-time
// baseline: the measured host time per op and the simulated cycle count the
// run produced. Cycle counts are deterministic and any drift against the
// checked-in baseline is a correctness failure; host time is
// machine-dependent and compared informationally.
type ChipBenchRow struct {
	Bench   string  `json:"bench"`
	Variant string  `json:"variant"`
	NsPerOp float64 `json:"ns_per_op"`
	Cycles  int64   `json:"cycles"`
	// SkipCoverage is the fraction of per-tile ticks the event-driven doze
	// overlay elided (TileSkips / (TileTicks+TileSkips)), when the variant
	// records it. Deterministic for a given variant, so drift is meaningful;
	// compared informationally like host time.
	SkipCoverage float64 `json:"skip_coverage,omitempty"`
}

// ChipBenchReport is the machine-readable form written to BENCH_chip.json:
// each chip benchmark's production-stepper rows plus one row on the
// NoFastPath reference stepper, stamped with the measuring host.
type ChipBenchReport struct {
	GOMAXPROCS int            `json:"gomaxprocs"`
	HostCPUs   int            `json:"host_cpus,omitempty"`
	Rows       []ChipBenchRow `json:"rows"`
}

// MergeChipBenchJSON folds rows into the report at path, replacing cells
// with the same (bench, variant) key. Merging (rather than overwriting)
// lets each benchmark family contribute its rows independently of -bench
// filters and run order.
func MergeChipBenchJSON(path string, rows []ChipBenchRow) error {
	var rep ChipBenchReport
	if data, err := os.ReadFile(path); err == nil {
		_ = json.Unmarshal(data, &rep)
	}
	for _, r := range rows {
		replaced := false
		for i := range rep.Rows {
			if rep.Rows[i].Bench == r.Bench && rep.Rows[i].Variant == r.Variant {
				rep.Rows[i] = r
				replaced = true
				break
			}
		}
		if !replaced {
			rep.Rows = append(rep.Rows, r)
		}
	}
	sort.Slice(rep.Rows, func(i, j int) bool {
		if rep.Rows[i].Bench != rep.Rows[j].Bench {
			return rep.Rows[i].Bench < rep.Rows[j].Bench
		}
		return rep.Rows[i].Variant < rep.Rows[j].Variant
	})
	rep.GOMAXPROCS = runtime.GOMAXPROCS(0)
	rep.HostCPUs = runtime.NumCPU()
	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
