package chip

import (
	"fmt"
	"io"
	"strings"

	"trips/internal/ckpt"
	"trips/internal/proc"
)

// contentHash binds a checkpoint to the program images and the
// behavior-relevant configuration. The stepper (NoFastPath) is
// deliberately excluded: both steppers are bit-identical, so a checkpoint
// taken under one may be restored under the other.
func (c *Chip) contentHash() ckpt.Hash {
	var parts [][]byte
	for _, p := range c.cfg.Programs {
		if p == nil {
			parts = append(parts, nil)
			continue
		}
		parts = append(parts, p.CanonicalBytes())
	}
	cfgStr := fmt.Sprintf("chip:partition=%v scratchpad=%v maxcycles=%d",
		c.cfg.Partition, c.cfg.Scratchpad, c.cfg.MaxCycles)
	parts = append(parts, []byte(cfgStr))
	return ckpt.HashContent(parts...)
}

// SaveState serializes the whole chip's mutable state at a cycle boundary:
// both cores, the secondary memory system (with the backing SDRAM), the DMA
// controllers, and the C2C counter.
func (c *Chip) SaveState(w *ckpt.Writer) error {
	w.Section("chip")
	w.I64(c.cycle)
	w.U64(c.Warps)
	w.I64(c.WarpedCycles)
	for _, core := range c.Cores {
		w.Bool(core != nil)
		if core != nil {
			if err := core.SaveState(w); err != nil {
				return err
			}
		}
	}
	c.Mem.SaveState(w)
	for _, d := range c.DMA {
		w.Bool(d.port != nil)
		w.U64(d.src)
		w.U64(d.dst)
		w.Int(d.left)
		w.Bool(d.inFlight)
		w.Bool(d.buf != nil)
		if d.buf != nil {
			w.Bytes(d.buf)
		}
		w.Int(d.phase)
		w.U64(d.Moved)
		w.U64(d.Completions)
	}
	w.U64(c.C2C.MessagesOut)
	return nil
}

// resolverFor routes a decoded in-flight request to the component that can
// rebuild its Done callback. The port name is the only record of the
// request's owner: both cores share tile indices, so Origin alone cannot
// distinguish them.
func (c *Chip) resolverFor(name string) proc.OriginResolver {
	if strings.HasPrefix(name, "dma") {
		return proc.ResolverFunc(func(req *proc.MemRequest) {
			t := req.Origin.Tile
			if t < 0 || t >= len(c.DMA) {
				return
			}
			d := c.DMA[t]
			switch req.Origin.Kind {
			case proc.OriginDMARead:
				req.Done = d.onReadDone
			case proc.OriginDMAWrite:
				req.Done = func([]byte) { d.onWriteDone() }
			}
		})
	}
	if strings.HasPrefix(name, "p1:") {
		return c.Cores[1]
	}
	return c.Cores[0]
}

// LoadState restores a checkpoint into a chip built with an identical
// Config. Cores restore before the memory system: origin resolution for
// in-flight transactions reads restored tile state.
func (c *Chip) LoadState(r *ckpt.Reader) error {
	r.Section("chip")
	c.cycle = r.I64()
	c.Warps = r.U64()
	c.WarpedCycles = r.I64()
	for i, core := range c.Cores {
		has := r.Bool()
		if r.Err() != nil {
			return r.Err()
		}
		if has != (core != nil) {
			r.Failf("chip: core %d present in checkpoint but not in config (or vice versa)", i)
			return r.Err()
		}
		if core != nil {
			if err := core.LoadState(r); err != nil {
				return err
			}
		}
	}
	c.Mem.LoadState(r, c.resolverFor)
	for _, d := range c.DMA {
		if r.Bool() {
			d.bind()
		}
		d.src = r.U64()
		d.dst = r.U64()
		d.left = r.Int()
		d.inFlight = r.Bool()
		d.buf = nil
		if r.Bool() {
			d.buf = r.Bytes()
		}
		d.phase = r.Int()
		d.Moved = r.U64()
		d.Completions = r.U64()
	}
	c.C2C.MessagesOut = r.U64()
	return r.Err()
}

// Checkpoint writes a complete framed checkpoint of the chip to w,
// content-hashed to the chip's programs and configuration.
func (c *Chip) Checkpoint(w io.Writer) error {
	pw := &ckpt.Writer{}
	if err := c.SaveState(pw); err != nil {
		return err
	}
	return ckpt.WriteFile(w, c.contentHash(), pw.Payload())
}

// RestoreChip builds a chip from cfg and restores a checkpoint into it. The
// checkpoint must have been taken with the same programs and configuration;
// a mismatch fails with ckpt.ErrContentHash before any state is touched.
func RestoreChip(r io.Reader, cfg Config) (*Chip, error) {
	c, err := New(cfg)
	if err != nil {
		return nil, err
	}
	payload, err := ckpt.ReadFile(r, c.contentHash())
	if err != nil {
		return nil, err
	}
	pr := ckpt.NewReader(payload)
	if err := c.LoadState(pr); err != nil {
		return nil, err
	}
	if err := pr.Close(); err != nil {
		return nil, err
	}
	return c, nil
}
