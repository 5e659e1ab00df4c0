package proc

import (
	"bytes"
	"testing"

	"trips/internal/ckpt"
	"trips/internal/isa"
	"trips/internal/mem"
)

// newCkptCore builds a core without critical-path tracking (SaveState
// refuses it) over a freshly imaged memory.
func newCkptCore(t *testing.T, p *Program) *Core {
	t.Helper()
	m := mem.New()
	if err := p.Image(m); err != nil {
		t.Fatal(err)
	}
	c, err := NewCore(Config{
		Program:   p,
		Mem:       NewFixedLatencyMem(m, 20),
		MaxCycles: 2_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// depLoopProgram is the store/load loop from the dependence-predictor test:
// every iteration stores i, loads it back, and branches — it keeps the DTs,
// LSQs, MSHRs and drain queues busy, which is exactly the state a mid-run
// checkpoint must capture.
func depLoopProgram(t *testing.T) *Program {
	t.Helper()
	loopA := &isa.Block{Addr: 0x1000, Name: "sl-loop"}
	loopA.Reads[0] = isa.ReadInst{Valid: true, GR: 8, RT0: isa.ToRight(0), RT1: isa.ToLeft(6)}
	loopA.Reads[1] = isa.ReadInst{Valid: true, GR: 13, RT0: isa.ToLeft(0)}
	loopA.Reads[2] = isa.ReadInst{Valid: true, GR: 14, RT0: isa.ToLeft(2)}
	loopA.Reads[3] = isa.ReadInst{Valid: true, GR: 19, RT0: isa.ToLeft(3)}
	loopA.Writes[0] = isa.WriteInst{Valid: true, GR: 8}
	loopA.Writes[1] = isa.WriteInst{Valid: true, GR: 17}
	loopA.Insts = []isa.Inst{
		{Op: isa.SD, Imm: 0, LSID: 0},
		{Op: isa.NOP},
		{Op: isa.LD, Imm: 0, LSID: 1, T0: isa.ToWrite(1)},
		{Op: isa.TGT, T0: isa.ToPred(4), T1: isa.ToPred(5)},
		{Op: isa.BRO, Pred: isa.PredOnTrue, Exit: 1, Offset: 0},
		{Op: isa.BRO, Pred: isa.PredOnFalse, Exit: 0, Offset: haltOffset(0x1000)},
		{Op: isa.ADDI, Imm: 1, T0: isa.ToLeft(7)},
		{Op: isa.MOV, T0: isa.ToWrite(0), T1: isa.ToRight(3)},
	}
	p, err := NewProgram(loopA.Addr, []*isa.Block{loopA})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func compareResults(t *testing.T, label string, a, b Result) {
	t.Helper()
	if a.Cycles != b.Cycles {
		t.Errorf("%s: cycles %d != %d", label, a.Cycles, b.Cycles)
	}
	if a.CommittedBlocks != b.CommittedBlocks {
		t.Errorf("%s: blocks %d != %d", label, a.CommittedBlocks, b.CommittedBlocks)
	}
	if a.CommittedInsts != b.CommittedInsts {
		t.Errorf("%s: insts %d != %d", label, a.CommittedInsts, b.CommittedInsts)
	}
	if a.Flushes != b.Flushes {
		t.Errorf("%s: flushes %d != %d", label, a.Flushes, b.Flushes)
	}
	if a.Mispredicts != b.Mispredicts {
		t.Errorf("%s: mispredicts %d != %d", label, a.Mispredicts, b.Mispredicts)
	}
	if a.Violations != b.Violations {
		t.Errorf("%s: violations %d != %d", label, a.Violations, b.Violations)
	}
}

// roundTrip checks the full checkpoint contract for one program: a run with
// a mid-run checkpoint matches an uninterrupted run, and a new core restored
// from the checkpoint finishes bit-identically — same cycles, stats,
// registers, and even warp counters (all serialized state).
func roundTrip(t *testing.T, p *Program, init func(*Core), regs []int) {
	t.Helper()
	// Reference: uninterrupted.
	ref := newCkptCore(t, p)
	init(ref)
	refRes, err := ref.Run()
	if err != nil {
		t.Fatal(err)
	}
	if refRes.Cycles < 20 {
		t.Fatalf("program too short to checkpoint mid-run: %d cycles", refRes.Cycles)
	}
	at := refRes.Cycles / 2

	// Checkpointed run.
	ck := newCkptCore(t, p)
	init(ck)
	var payload []byte
	var capturedAt int64
	ck.SetCheckpointHook(at, func(cycle int64) error {
		w := &ckpt.Writer{}
		if err := ck.SaveState(w); err != nil {
			return err
		}
		ck.mem.(*FixedLatencyMem).SaveState(w)
		payload = append([]byte(nil), w.Payload()...)
		capturedAt = cycle
		return nil
	})
	ckRes, err := ck.Run()
	if err != nil {
		t.Fatal(err)
	}
	if payload == nil {
		t.Fatal("checkpoint hook never fired")
	}
	if capturedAt <= at {
		t.Errorf("captured at cycle %d, want > %d", capturedAt, at)
	}
	compareResults(t, "checkpointed vs reference", refRes, ckRes)

	// Restored run: fresh core + backend, all state overwritten from the
	// payload, then run to completion.
	re := newCkptCore(t, p)
	r := ckpt.NewReader(payload)
	if err := re.LoadState(r); err != nil {
		t.Fatalf("LoadState: %v", err)
	}
	re.mem.(*FixedLatencyMem).LoadState(r, re)
	if err := r.Close(); err != nil {
		t.Fatalf("payload not fully consumed: %v", err)
	}
	if re.Cycle() != capturedAt {
		t.Fatalf("restored clock %d, want %d", re.Cycle(), capturedAt)
	}
	reRes, err := re.Run()
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, "restored vs reference", refRes, reRes)
	if refRes.CritPath.TotalCycles != reRes.CritPath.TotalCycles {
		t.Errorf("critpath: %d != %d", refRes.CritPath.TotalCycles, reRes.CritPath.TotalCycles)
	}
	if ckRes.IPC != reRes.IPC {
		t.Errorf("IPC %v != %v", ckRes.IPC, reRes.IPC)
	}
	// Warp telemetry is serialized state too, so even it must agree on the
	// pure sequential path.
	if ck.Warps != re.Warps || ck.WarpedCycles != re.WarpedCycles {
		t.Errorf("warp counters diverge: (%d,%d) != (%d,%d)", ck.Warps, ck.WarpedCycles, re.Warps, re.WarpedCycles)
	}
	for _, reg := range regs {
		if a, b := ck.Register(0, reg), re.Register(0, reg); a != b {
			t.Errorf("r%d: %#x != %#x", reg, a, b)
		}
	}
}

func TestCheckpointRoundTripLoop(t *testing.T) {
	roundTrip(t, loopProgram(t), func(c *Core) {
		c.SetRegister(0, 8, 0)
		c.SetRegister(0, 13, 0)
		c.SetRegister(0, 18, 10)
	}, []int{8, 13})
}

func TestCheckpointRoundTripStoreLoadLoop(t *testing.T) {
	roundTrip(t, depLoopProgram(t), func(c *Core) {
		c.SetRegister(0, 8, 0)
		c.SetRegister(0, 13, 0x8000)
		c.SetRegister(0, 14, 0x8000)
		c.SetRegister(0, 19, 40)
	}, []int{8, 17})
}

func TestCheckpointRefusesCritPath(t *testing.T) {
	p := loopProgram(t)
	m := mem.New()
	if err := p.Image(m); err != nil {
		t.Fatal(err)
	}
	c, err := NewCore(Config{
		Program:       p,
		Mem:           NewFixedLatencyMem(m, 20),
		TrackCritPath: true,
		MaxCycles:     2_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SaveState(&ckpt.Writer{}); err == nil {
		t.Fatal("SaveState accepted a critical-path-tracking core")
	}
}

func TestCheckpointCorruptPayloadFailsCleanly(t *testing.T) {
	p := loopProgram(t)
	c := newCkptCore(t, p)
	c.SetRegister(0, 8, 0)
	c.SetRegister(0, 13, 0)
	c.SetRegister(0, 18, 10)
	var payload []byte
	c.SetCheckpointHook(10, func(int64) error {
		w := &ckpt.Writer{}
		if err := c.SaveState(w); err != nil {
			return err
		}
		c.mem.(*FixedLatencyMem).SaveState(w)
		payload = append([]byte(nil), w.Payload()...)
		return nil
	})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if payload == nil {
		t.Fatal("checkpoint hook never fired")
	}
	// Truncation anywhere must surface as a sticky reader error, never a
	// panic or silent partial restore.
	for _, cut := range []int{1, len(payload) / 3, len(payload) / 2, len(payload) - 1} {
		re := newCkptCore(t, p)
		r := ckpt.NewReader(payload[:cut])
		err := re.LoadState(r)
		if err == nil {
			re.mem.(*FixedLatencyMem).LoadState(r, re)
			err = r.Close()
		}
		if err == nil {
			t.Errorf("truncation at %d bytes not detected", cut)
		}
	}
	// A GCN wave ring whose head or count is out of range must be rejected
	// the same way, before any wave id is resolved against it.
	at := bytes.Index(payload, []byte("gcn-waves")) + len("gcn-waves")
	for _, bad := range [][2]byte{{gcnRingSize, 0}, {0, gcnRingSize + 1}} {
		corrupt := append([]byte(nil), payload...)
		corrupt[at], corrupt[at+1] = bad[0], bad[1]
		if err := newCkptCore(t, p).LoadState(ckpt.NewReader(corrupt)); err == nil {
			t.Errorf("GCN wave ring head/count %v accepted", bad)
		}
	}
}
