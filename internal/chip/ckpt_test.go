package chip

import (
	"bytes"
	"errors"
	"testing"

	"trips/internal/ckpt"
	"trips/internal/mem"
	"trips/internal/proc"
)

// ckptChipConfig builds the round-trip scenario: two cores of different
// lengths (one retires mid-run), a DMA stream in flight through the OCN,
// and a seeded backing memory, under the requested stepper.
func ckptChipConfig(t *testing.T, noFastPath bool) Config {
	t.Helper()
	backing := mem.New()
	for i := 0; i < 64; i++ {
		backing.Write(0x700000+uint64(i)*8, 8, uint64(i)*3+1)
	}
	return Config{
		Programs:   [2]*proc.Program{countProgram(t, 0x100000, 60), countProgram(t, 0x200000, 25)},
		Backing:    backing,
		MaxCycles:  5_000_000,
		NoFastPath: noFastPath,
	}
}

type ckptOutcome struct {
	cycles int64
	r0, r1 proc.Result
	moved  uint64
	words  [64]uint64
}

func ckptFinishChip(t *testing.T, c *Chip) ckptOutcome {
	t.Helper()
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	c.Mem.Flush()
	out := ckptOutcome{cycles: c.Cycle(), r0: c.Cores[0].Result(), r1: c.Cores[1].Result(), moved: c.DMA[0].Moved}
	for i := range out.words {
		out.words[i] = c.cfg.Backing.Read(0x740000+uint64(i)*8, 8, false)
	}
	return out
}

func ckptCompareOutcomes(t *testing.T, label string, got, want ckptOutcome) {
	t.Helper()
	if got.cycles != want.cycles {
		t.Errorf("%s: cycles %d, want %d", label, got.cycles, want.cycles)
	}
	if got.r0 != want.r0 {
		t.Errorf("%s: core 0 diverged:\n  got:  %+v\n  want: %+v", label, got.r0, want.r0)
	}
	if got.r1 != want.r1 {
		t.Errorf("%s: core 1 diverged:\n  got:  %+v\n  want: %+v", label, got.r1, want.r1)
	}
	if got.moved != want.moved {
		t.Errorf("%s: dma moved %d, want %d", label, got.moved, want.moved)
	}
	if got.words != want.words {
		t.Errorf("%s: dma destination words diverged", label)
	}
}

// TestChipCheckpointRoundTrip checkpoints a dual-core chip mid-run — DMA
// stream in flight, both cores live — and requires the restored chip to
// finish bit-identically to the uninterrupted reference, under both
// steppers and with cross-stepper restores (a checkpoint taken under the
// production stepper restored under the oracle, and the other way round).
func TestChipCheckpointRoundTrip(t *testing.T) {
	steppers := []struct {
		name       string
		noFastPath bool
	}{{"oracle", true}, {"production", false}}
	for _, save := range steppers {
		// Uninterrupted reference.
		ref, err := New(ckptChipConfig(t, save.noFastPath))
		if err != nil {
			t.Fatal(err)
		}
		ref.DMA[0].Program(0x700000, 0x740000, 512)
		want := ckptFinishChip(t, ref)

		// Checkpointed run: capture at the first commit after cycle 300
		// (the DMA stream is still moving), then continue to completion.
		c, err := New(ckptChipConfig(t, save.noFastPath))
		if err != nil {
			t.Fatal(err)
		}
		c.DMA[0].Program(0x700000, 0x740000, 512)
		var buf bytes.Buffer
		var capturedAt int64
		c.SetCheckpointHook(300, func(cycle int64) error {
			capturedAt = cycle
			return c.Checkpoint(&buf)
		})
		got := ckptFinishChip(t, c)
		ckptCompareOutcomes(t, save.name+" checkpointed run", got, want)
		if capturedAt <= 300 {
			t.Fatalf("%s: checkpoint hook fired at cycle %d", save.name, capturedAt)
		}
		if c.DMA[0].Moved >= 512 && capturedAt < want.cycles/4 {
			t.Logf("%s: note: DMA already done at capture cycle %d", save.name, capturedAt)
		}

		for _, restore := range steppers {
			rc, err := RestoreChip(bytes.NewReader(buf.Bytes()), ckptChipConfig(t, restore.noFastPath))
			if err != nil {
				t.Fatalf("restore %s->%s: %v", save.name, restore.name, err)
			}
			if rc.Cycle() != capturedAt {
				t.Fatalf("restore %s->%s: resumed at cycle %d, want %d", save.name, restore.name, rc.Cycle(), capturedAt)
			}
			got := ckptFinishChip(t, rc)
			ckptCompareOutcomes(t, save.name+"->"+restore.name+" restored run", got, want)
		}
	}
}

// TestChipRestoreRejectsMismatch: a checkpoint restored onto a chip with a
// different program or configuration must fail with ErrContentHash before
// any state is touched.
func TestChipRestoreRejectsMismatch(t *testing.T) {
	c, err := New(ckptChipConfig(t, false))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	c.SetCheckpointHook(100, func(int64) error { return c.Checkpoint(&buf) })
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}

	other := ckptChipConfig(t, false)
	other.Programs[1] = countProgram(t, 0x200000, 26) // one extra block
	if _, err := RestoreChip(bytes.NewReader(buf.Bytes()), other); !errors.Is(err, ckpt.ErrContentHash) {
		t.Fatalf("restore onto a different program: err = %v, want ErrContentHash", err)
	}

	// Truncation anywhere in the frame must be a clean error, not a panic.
	raw := buf.Bytes()
	for _, cut := range []int{0, 4, len(raw) / 2, len(raw) - 1} {
		if _, err := RestoreChip(bytes.NewReader(raw[:cut]), ckptChipConfig(t, false)); err == nil {
			t.Fatalf("restore of %d/%d bytes succeeded", cut, len(raw))
		}
	}

	// Flipping a payload byte must be caught by the frame checksum.
	corrupt := append([]byte(nil), raw...)
	corrupt[len(corrupt)/2] ^= 0x40
	if _, err := RestoreChip(bytes.NewReader(corrupt), ckptChipConfig(t, false)); !errors.Is(err, ckpt.ErrCorrupt) {
		t.Fatalf("restore of corrupted frame: err = %v, want ErrCorrupt", err)
	}
}
