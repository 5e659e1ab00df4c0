package eval

import (
	"encoding/json"
	"os"
	"testing"

	"trips/internal/tcc"
	"trips/internal/workloads"
)

// TestPaperShapes locks in the qualitative results of paper Table 3 and
// Sections 5.4/7: who wins, in which direction, and which overheads
// dominate. Absolute numbers differ from the paper (our substrate is a
// reimplementation, see EXPERIMENTS.md); these shapes must not. It also
// pins every row bit for bit to the checked-in BENCH_table3.json — the
// seven critical-path percentages, the three cycle counts and the IPCs —
// so a host-side change that moves any simulated number fails here.
func TestPaperShapes(t *testing.T) {
	rep, err := Table3All(0)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile("../../BENCH_table3.json")
	if err != nil {
		t.Fatal(err)
	}
	var pinned Table3Report
	if err := json.Unmarshal(data, &pinned); err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != len(pinned.Rows) {
		t.Fatalf("Table 3 has %d rows, BENCH_table3.json %d", len(rep.Rows), len(pinned.Rows))
	}
	rows := make(map[string]Table3Row, len(rep.Rows))
	for i, r := range rep.Rows {
		if r != pinned.Rows[i] {
			t.Errorf("Table 3 row %d differs from BENCH_table3.json:\n got  %+v\n want %+v", i, r, pinned.Rows[i])
		}
		rows[r.Name] = r
	}
	row := func(name string) Table3Row {
		t.Helper()
		r, ok := rows[name]
		if !ok {
			t.Fatalf("Table 3 has no %s row", name)
		}
		return r
	}

	// sha is almost entirely serial: TRIPS must lose to the Alpha
	// (paper: "sha sees a slowdown on TRIPS").
	sha := row("sha")
	if sha.SpeedupHand >= 1 {
		t.Errorf("sha hand speedup = %.2f, want < 1 (serial benchmark)", sha.SpeedupHand)
	}

	// vadd is L1-bandwidth-bound: TRIPS's four DT ports must win
	// (paper: speedup close to two, upper-bounded by the port ratio).
	vadd := row("vadd")
	if vadd.SpeedupHand <= 1.5 {
		t.Errorf("vadd hand speedup = %.2f, want > 1.5 (4 vs 2 L1 ports)", vadd.SpeedupHand)
	}

	// Operand routing is the dominant protocol overhead (paper: hops up
	// to 34%%, contention up to 25%%; control protocols mostly small).
	for _, name := range []string{"vadd", "conv", "matrix"} {
		r := row(name)
		opn := r.OPNHops + r.OPNCont
		if opn < r.Complete+r.Commit {
			t.Errorf("%s: OPN overhead %.1f%% should exceed control-protocol overhead %.1f%%",
				name, opn, r.Complete+r.Commit)
		}
		if r.OPNHops < 10 {
			t.Errorf("%s: OPN hops = %.1f%%, expected a dominant contributor", name, r.OPNHops)
		}
	}

	// Hand-optimized code must beat compiled code (paper: "Compiled TRIPS
	// code does not fare as well").
	for _, name := range []string{"vadd", "matrix", "cfar", "300.twolf"} {
		r := row(name)
		if r.SpeedupHand <= r.SpeedupTCC {
			t.Errorf("%s: hand speedup %.2f should exceed compiled %.2f", name, r.SpeedupHand, r.SpeedupTCC)
		}
	}
}

// TestAblationShapes locks in the Section 7 design-choice directions.
func TestAblationShapes(t *testing.T) {
	w, err := workloads.ByName("matrix")
	if err != nil {
		t.Fatal(err)
	}
	cycles := func(opt TRIPSOptions) int64 {
		r, err := RunTRIPS(w.Build(true), opt)
		if err != nil {
			t.Fatal(err)
		}
		return r.Cycles
	}
	naive := cycles(TRIPSOptions{Mode: tcc.Hand, Placement: tcc.PlaceNaive})
	greedy := cycles(TRIPSOptions{Mode: tcc.Hand, Placement: tcc.PlaceGreedy})
	if greedy >= naive {
		t.Errorf("greedy placement (%d cycles) should beat naive (%d): scheduling reduces hop counts", greedy, naive)
	}
	// OPN bandwidth helps where operand traffic is the bottleneck; assert
	// it on the bandwidth-bound kernel (the paper's proposed extension is
	// motivated by exactly these codes).
	wv, err := workloads.ByName("vadd")
	if err != nil {
		t.Fatal(err)
	}
	vcycles := func(opt TRIPSOptions) int64 {
		r, err := RunTRIPS(wv.Build(true), opt)
		if err != nil {
			t.Fatal(err)
		}
		return r.Cycles
	}
	one := vcycles(TRIPSOptions{Mode: tcc.Hand, OPNChannels: 1})
	two := vcycles(TRIPSOptions{Mode: tcc.Hand, OPNChannels: 2})
	if two >= one {
		t.Errorf("2-channel OPN (%d cycles) should beat 1-channel (%d) on vadd", two, one)
	}
	fast := cycles(TRIPSOptions{Mode: tcc.Hand})
	slow := cycles(TRIPSOptions{Mode: tcc.Hand, SlowOPNRouter: true})
	if slow <= fast {
		t.Errorf("an extra cycle of OPN router latency (%d cycles) must hurt (%d): Section 5.3", slow, fast)
	}
}

// TestVerifySample runs the full three-machine verification for a couple of
// benchmarks (the whole suite runs in internal/workloads).
func TestVerifySample(t *testing.T) {
	for _, name := range []string{"vadd", "tblook01"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := Verify(w); err != nil {
			t.Error(err)
		}
	}
}

// TestNUCABackedCore runs a workload with the full secondary memory system
// behind the core instead of the perfect L2, verifying end-to-end
// integration (DT/IT ports -> OCN -> MT banks -> SDC) and that the slower
// memory system costs cycles.
func TestNUCABackedCore(t *testing.T) {
	w, err := workloads.ByName("vadd")
	if err != nil {
		t.Fatal(err)
	}
	spec := w.Build(true)
	gold, _, _, err := RunGolden(spec)
	if err != nil {
		t.Fatal(err)
	}
	perfect, err := RunTRIPS(w.Build(true), TRIPSOptions{Mode: tcc.Hand})
	if err != nil {
		t.Fatal(err)
	}
	nucaRun, err := RunTRIPS(w.Build(true), TRIPSOptions{Mode: tcc.Hand, UseNUCA: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, out := range spec.Outputs {
		if nucaRun.Regs[out] != gold[out] {
			t.Errorf("NUCA run r%d = %d, golden %d", out, nucaRun.Regs[out], gold[out])
		}
	}
	if nucaRun.Cycles <= perfect.Cycles {
		t.Errorf("NUCA-backed run (%d cycles) should be slower than the perfect L2 (%d)",
			nucaRun.Cycles, perfect.Cycles)
	}
}

// TestRegisterBandwidthReduction checks the paper's Section 3.3 claim:
// because def-use pairs become intra-block temporaries on the operand
// network, register-file traffic is far below the ~2 accesses per
// instruction of a RISC core (the paper reports ~70% fewer).
func TestRegisterBandwidthReduction(t *testing.T) {
	w, err := workloads.ByName("matrix")
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunTRIPS(w.Build(true), TRIPSOptions{Mode: tcc.Hand})
	if err != nil {
		t.Fatal(err)
	}
	regAccesses := r.Stats.RTReadsForwarded + r.Stats.RTReadsFromFile + r.Stats.RTReadsBuffered
	perInst := float64(regAccesses) / float64(r.Insts)
	if perInst > 0.8 {
		t.Errorf("register reads per instruction = %.2f; direct operand communication should keep this well below RISC's ~2 (paper 3.3)", perInst)
	}
	if r.Stats.RegisterForwardRate() == 0 {
		t.Error("no reads were forwarded from in-flight write queues (dynamic renaming, paper 4.2)")
	}
	if r.Stats.LocalBypassRate() == 0 {
		t.Error("greedy placement should produce some same-ET bypasses")
	}
}
