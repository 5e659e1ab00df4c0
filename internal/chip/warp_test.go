package chip

import (
	"testing"

	"trips/internal/mem"
	"trips/internal/proc"
)

// TestChipDMAWarpBitIdentical streams 16KB of DMA traffic through the OCN
// — two short core programs retire almost immediately, after which the DMA
// streams line by line (port -> MT -> SDC round trips) while both cores sit
// idle — and requires the production stepper to reproduce the oracle: chip
// cycles, core snapshots, and the copied bytes. The production run's warps
// must actually engage: nearly all of the DMA phase is solo-transit or
// SDRAM-deadline time, so the warp counter has to cover the bulk of the
// run. The oracle never warps.
func TestChipDMAWarpBitIdentical(t *testing.T) {
	const bytes = 16 << 10
	run := func(noFastPath bool) *Chip {
		backing := mem.New()
		for i := 0; i < bytes/8; i++ {
			backing.Write(0x700000+uint64(i)*8, 8, uint64(i+1))
		}
		c, err := New(Config{
			Programs:   [2]*proc.Program{countProgram(t, 0x100000, 3), countProgram(t, 0x200000, 2)},
			Backing:    backing,
			MaxCycles:  10_000_000,
			NoFastPath: noFastPath,
		})
		if err != nil {
			t.Fatal(err)
		}
		c.DMA[0].Program(0x700000, 0x740000, bytes)
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		if c.DMA[0].Moved != bytes {
			t.Fatalf("dma moved %d bytes, want %d", c.DMA[0].Moved, bytes)
		}
		return c
	}
	ref, got := run(true), run(false)
	if outcome(got) != outcome(ref) {
		t.Errorf("production stepper diverged:\n  got:  %+v\n  want: %+v", outcome(got), outcome(ref))
	}
	if ref.Warps != 0 {
		t.Errorf("oracle recorded %d warps", ref.Warps)
	}
	if got.Warps == 0 {
		t.Error("warp never engaged on a DMA-only phase")
	}
	if got.WarpedCycles*2 < got.Cycle() {
		t.Errorf("warp covered only %d of %d cycles — DMA transit legs are not warping",
			got.WarpedCycles, got.Cycle())
	}
}
