package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"

	"trips/internal/eval"
	"trips/internal/tcc"
	"trips/internal/workloads"
)

// TestEveryPackageHasLayer fails when a simulator package, or a function in
// any of its source files, would be attributed to the "other" layer, and
// when a proc tile type is not attributed to its own tile layer.
func TestEveryPackageHasLayer(t *testing.T) {
	dirs, err := filepath.Glob("../internal/*")
	if err != nil || len(dirs) == 0 {
		t.Fatalf("no simulator packages found: %v", err)
	}
	tileType := regexp.MustCompile(`(?m)^type ([a-z]+)Tile struct`)
	tiles := 0
	for _, dir := range dirs {
		pkg := filepath.Base(dir)
		files, _ := filepath.Glob(filepath.Join(dir, "*.go"))
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			fn := internalPrefix + pkg + ".F"
			if l := simLayer(frame{fn: fn, file: file}); l == "" || l == "other" {
				t.Errorf("%s (%s) maps to layer %q", pkg, filepath.Base(file), l)
			}
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range tileType.FindAllStringSubmatch(string(src), -1) {
				tiles++
				fn := internalPrefix + pkg + ".(*" + m[1] + "Tile).Tick"
				if l := simLayer(frame{fn: fn, file: file}); l != "proc."+m[1] {
					t.Errorf("tile type %sTile maps to layer %q, want proc.%s", m[1], l, m[1])
				}
			}
		}
	}
	if tiles != 5 {
		t.Errorf("found %d tile types, want the five of paper Figure 2 (GT, IT, RT, ET, DT)", tiles)
	}
}

// TestLayerOf pins the runtime split and caller attribution.
func TestLayerOf(t *testing.T) {
	et := frame{fn: "trips/internal/proc.(*etTile).tick", file: "/x/internal/proc/et.go"}
	for _, tc := range []struct {
		stack []frame
		want  string
	}{
		{[]frame{et}, "proc.et"},
		{[]frame{{fn: "runtime.mapaccess2_fast64"}, et}, "proc.et"},
		{[]frame{{fn: "runtime.duffcopy"}, et}, "runtime.copy"},
		{[]frame{{fn: "runtime.memclrNoHeapPointers"}, {fn: "runtime.mallocgc"}, et}, "runtime.alloc"},
		{[]frame{{fn: "runtime.scanobject"}, {fn: "runtime.gcDrain"}, {fn: "runtime.gcBgMarkWorker"}}, "runtime.gc"},
		{[]frame{{fn: "runtime.futex"}, {fn: "runtime.chanrecv"}, {fn: "trips/internal/chip.(*Chip).Step"}}, "runtime.sched"},
		{[]frame{{fn: "trips/internal/nuca.(*System).SaveState", file: "/x/internal/nuca/state.go"}}, "ckpt"},
		{[]frame{{fn: "trips/internal/proc.RunBoundedLag", file: "/x/internal/proc/lag.go"}}, "proc.lag"},
		{[]frame{{fn: "trips/internal/proc.(*Core).Step", file: "/x/internal/proc/core.go"}}, "proc.core"},
		{[]frame{{fn: "sort.Slice"}, {fn: "main.run"}}, "bench"},
		{[]frame{{fn: "trips/internal/newpkg.F"}}, "other"},
	} {
		if got := layerOf(tc.stack); got != tc.want {
			t.Errorf("layerOf(%v) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

// TestProfileShares decodes a real CPU profile of a simulator run and
// checks that the layer shares cover it.
func TestProfileShares(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	w, _ := workloads.ByName("181.mcf")
	for i := 0; i < 3; i++ {
		if _, err := eval.RunTRIPS(w.Build(true), eval.TRIPSOptions{Mode: tcc.Hand}); err != nil {
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	p, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	shares, err := layerShares(p)
	if err != nil {
		t.Fatal(err)
	}
	var sum, proc float64
	for l, s := range shares {
		sum += s
		if strings.HasPrefix(l, "proc.") {
			proc += s
		}
	}
	if sum < 99 || sum > 101 {
		t.Errorf("shares sum to %.2f%%", sum)
	}
	if proc < 20 || shares["other"] != 0 {
		t.Errorf("proc layers %.1f%%, other %.1f%%: %v", proc, shares["other"], shares)
	}
}

// TestTable3RunsMatchEval checks that a table3 pass's three runs per row
// reproduce eval.Table3's row.
func TestTable3RunsMatchEval(t *testing.T) {
	w, _ := workloads.ByName("vadd")
	row, err := eval.Table3(w)
	if err != nil {
		t.Fatal(err)
	}
	pin := pinTable3["vadd"]
	if got := [3]int64{row.CyclesHand, row.CyclesTCC, row.CyclesAlpha}; got != pin {
		t.Errorf("eval.Table3 vadd cycles %v, pinned %v", got, pin)
	}
	j, err := setupTable3(defaultSeed, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := j.pass(nil)
	if len(res.failures) != 0 || res.attempted != 63 {
		t.Fatalf("table3 pass: %d attempted, failures %v", res.attempted, res.failures)
	}
	var total int64
	for _, c := range pinTable3 {
		total += c[0] + c[1] + c[2]
	}
	if res.cycles != total || total != 1_536_440 {
		t.Errorf("table3 pass simulated %d cycles, pins total %d, want 1536440", res.cycles, total)
	}
}
