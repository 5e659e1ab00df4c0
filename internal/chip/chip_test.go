package chip

import (
	"testing"

	"trips/internal/eval"
	"trips/internal/isa"
	"trips/internal/mem"
	"trips/internal/proc"
	"trips/internal/tcc"
	"trips/internal/workloads"
)

// countProgram builds a block chain that adds `iters` to r8 and halts.
func countProgram(t *testing.T, base uint64, iters int) *proc.Program {
	t.Helper()
	var blocks []*isa.Block
	for i := 0; i < iters; i++ {
		addr := base + uint64(i)*0x100
		b := &isa.Block{Addr: addr, Name: "count"}
		b.Reads[0] = isa.ReadInst{Valid: true, GR: 8, RT0: isa.ToLeft(0)}
		b.Writes[0] = isa.WriteInst{Valid: true, GR: 8}
		off := int32(2) // next block, 2 chunks away
		if i == iters-1 {
			off = int32(-(int64(addr) / isa.ChunkBytes))
		}
		b.Insts = []isa.Inst{
			{Op: isa.ADDI, Imm: 1, T0: isa.ToWrite(0)},
			{Op: isa.BRO, Exit: 0, Offset: off},
		}
		blocks = append(blocks, b)
	}
	p, err := proc.NewProgram(base, blocks)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestTwoCoresRunConcurrently(t *testing.T) {
	p0 := countProgram(t, 0x100000, 20)
	p1 := countProgram(t, 0x200000, 12)
	c, err := New(Config{Programs: [2]*proc.Program{p0, p1}, MaxCycles: 5_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if got := c.Cores[0].Register(0, 8); got != 20 {
		t.Errorf("core 0 r8 = %d, want 20", got)
	}
	if got := c.Cores[1].Register(0, 8); got != 12 {
		t.Errorf("core 1 r8 = %d, want 12", got)
	}
	r0 := c.Cores[0].Result()
	r1 := c.Cores[1].Result()
	if r0.CommittedBlocks != 20 || r1.CommittedBlocks != 12 {
		t.Errorf("committed %d/%d blocks", r0.CommittedBlocks, r1.CommittedBlocks)
	}
}

func TestCoresCommunicateThroughSecondaryMemory(t *testing.T) {
	// Core 0 stores a value then a flag to UNCACHEABLE addresses (which
	// travel the OCN to the shared L2); core 1 spins on the flag and then
	// reads the value (paper Section 3: "The two processors can
	// communicate through the secondary memory system").
	//
	// Uncached addresses carry proc.UncachedBit (bit 40): the GENC/APPC
	// chains below build 0x100_0050_0000 | offset.
	w := &isa.Block{Addr: 0x100000, Name: "writer"}
	w.Reads[0] = isa.ReadInst{Valid: true, GR: 8, RT0: isa.ToRight(3)} // value
	w.Insts = []isa.Inst{
		{Op: isa.GENC, Imm: 0x0100, T0: isa.ToLeft(1)},
		{Op: isa.APPC, Imm: 0x0050, T0: isa.ToLeft(2)},
		{Op: isa.APPC, Imm: 0x0040, T0: isa.ToLeft(3)}, // value address
		{Op: isa.SD, Imm: 0, LSID: 0},                  // [val] = r8
		{Op: isa.GENC, Imm: 0x0100, T0: isa.ToLeft(5)},
		{Op: isa.APPC, Imm: 0x0050, T0: isa.ToLeft(6)},
		{Op: isa.APPC, Imm: 0x0000, T0: isa.ToLeft(8)}, // flag address
		{Op: isa.MOVI, Imm: 1, T0: isa.ToRight(8)},
		{Op: isa.SD, Imm: 0, LSID: 1}, // [flag] = 1
		{Op: isa.BRO, Exit: 0, Offset: -(0x100000 / isa.ChunkBytes)},
	}
	progW, err := proc.NewProgram(w.Addr, []*isa.Block{w})
	if err != nil {
		t.Fatal(err)
	}

	// Core 1: spin until [flag] != 0, then load [val] into r16.
	spin := &isa.Block{Addr: 0x200000, Name: "spin"}
	spin.Insts = []isa.Inst{
		{Op: isa.GENC, Imm: 0x0100, T0: isa.ToLeft(1)},
		{Op: isa.APPC, Imm: 0x0050, T0: isa.ToLeft(2)},
		{Op: isa.APPC, Imm: 0x0000, T0: isa.ToLeft(3)},
		{Op: isa.LD, Imm: 0, LSID: 0, T0: isa.ToLeft(4)},
		{Op: isa.TNEI, Imm: 0, T0: isa.ToLeft(7)},
		{Op: isa.BRO, Pred: isa.PredOnTrue, Exit: 1, Offset: 2},  // -> read block
		{Op: isa.BRO, Pred: isa.PredOnFalse, Exit: 0, Offset: 0}, // spin
		{Op: isa.MOV, T0: isa.ToPred(5), T1: isa.ToPred(6)},      // fan the predicate
	}
	read := &isa.Block{Addr: 0x200100, Name: "read"}
	read.Writes[0] = isa.WriteInst{Valid: true, GR: 16}
	read.Insts = []isa.Inst{
		{Op: isa.GENC, Imm: 0x0100, T0: isa.ToLeft(1)},
		{Op: isa.APPC, Imm: 0x0050, T0: isa.ToLeft(2)},
		{Op: isa.APPC, Imm: 0x0040, T0: isa.ToLeft(3)},
		{Op: isa.LD, Imm: 0, LSID: 0, T0: isa.ToWrite(0)},
		{Op: isa.BRO, Exit: 0, Offset: -(0x200100 / isa.ChunkBytes)},
	}
	progR, err := proc.NewProgram(spin.Addr, []*isa.Block{spin, read})
	if err != nil {
		t.Fatal(err)
	}

	c, err := New(Config{Programs: [2]*proc.Program{progW, progR}, MaxCycles: 5_000_000})
	if err != nil {
		t.Fatal(err)
	}
	c.Cores[0].SetRegister(0, 8, 0xfeed)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if got := c.Cores[1].Register(0, 16); got != 0xfeed {
		t.Errorf("core 1 read %#x through the L2, want 0xfeed", got)
	}
}

func TestDMATransfer(t *testing.T) {
	backing := mem.New()
	for i := 0; i < 32; i++ {
		backing.Write(0x700000+uint64(i)*8, 8, uint64(i+1))
	}
	p0 := countProgram(t, 0x100000, 2)
	c, err := New(Config{Programs: [2]*proc.Program{p0, nil}, Backing: backing, MaxCycles: 2_000_000})
	if err != nil {
		t.Fatal(err)
	}
	c.DMA[0].Program(0x700000, 0x740000, 256)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	c.Mem.Flush()
	for i := 0; i < 32; i++ {
		if got := backing.Read(0x740000+uint64(i)*8, 8, false); got != uint64(i+1) {
			t.Fatalf("dma copy word %d = %d", i, got)
		}
	}
	if c.DMA[0].Moved != 256 {
		t.Errorf("dma moved %d bytes", c.DMA[0].Moved)
	}
}

// TestDualCoreWorkloads compiles a real benchmark and runs it on BOTH
// cores simultaneously, each with its own code copy, private L1s and a
// private half of the partitioned NUCA L2, sharing only the SDRAM.
func TestDualCoreWorkloads(t *testing.T) {
	w, err := workloads.ByName("vadd")
	if err != nil {
		t.Fatal(err)
	}
	spec0 := w.Build(true)
	spec1 := w.Build(true)
	gold, _, _, err := eval.RunGolden(w.Build(true))
	if err != nil {
		t.Fatal(err)
	}
	prog0, meta0, err := tcc.Compile(spec0.F, tcc.Options{Mode: tcc.Hand, BaseAddr: 0x10000})
	if err != nil {
		t.Fatal(err)
	}
	prog1, meta1, err := tcc.Compile(spec1.F, tcc.Options{Mode: tcc.Hand, BaseAddr: 0x40000})
	if err != nil {
		t.Fatal(err)
	}
	backing := mem.New()
	spec0.SetupMem(backing) // both cores read the same input arrays
	c, err := New(Config{
		Programs:  [2]*proc.Program{prog0, prog1},
		Backing:   backing,
		Partition: true,
		MaxCycles: 50_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	for v, val := range spec0.Init {
		if gr, ok := meta0.RegOf[v]; ok {
			c.Cores[0].SetRegister(0, gr, val)
		}
	}
	for v, val := range spec1.Init {
		if gr, ok := meta1.RegOf[v]; ok {
			c.Cores[1].SetRegister(0, gr, val)
		}
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	for ci, meta := range []*tcc.Meta{meta0, meta1} {
		for _, out := range spec0.Outputs {
			gr, ok := meta.RegOf[out]
			if !ok {
				t.Fatalf("core %d: output r%d untracked", ci, out)
			}
			if got := c.Cores[ci].Register(0, gr); got != gold[out] {
				t.Errorf("core %d: r%d = %d, golden %d", ci, out, got, gold[out])
			}
		}
	}
	r0, r1 := c.Cores[0].Result(), c.Cores[1].Result()
	if r0.CommittedBlocks == 0 || r1.CommittedBlocks == 0 {
		t.Errorf("cores committed %d / %d blocks", r0.CommittedBlocks, r1.CommittedBlocks)
	}
}
