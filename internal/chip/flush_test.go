package chip

import (
	"testing"

	"trips/internal/mem"
	"trips/internal/proc"
)

// TestDMACopyVisibleAfterFlush copies 256KB through the partitioned NUCA —
// enough traffic that the L2 evicts dirty destination lines while the copy
// runs — and requires the SDRAM image to hold the whole copy after Run and
// one Mem.Flush, with no manual drain in between: Run may return while an
// evicted dirty line is still on its way to SDRAM, and Flush must deliver
// it before writing back the resident dirty lines.
func TestDMACopyVisibleAfterFlush(t *testing.T) {
	const (
		src   = 0x400000
		dst   = 0x800000
		bytes = 256 << 10
	)
	for _, noFastPath := range []bool{false, true} {
		backing := mem.New()
		for i := uint64(0); i < bytes/8; i++ {
			backing.Write(src+i*8, 8, i*0x9e3779b97f4a7c15+1)
		}
		c, err := New(Config{
			Programs:   [2]*proc.Program{countProgram(t, 0x100000, 3), countProgram(t, 0x200000, 2)},
			Backing:    backing,
			Partition:  true,
			NoFastPath: noFastPath,
		})
		if err != nil {
			t.Fatal(err)
		}
		c.DMA[0].Program(src, dst, bytes)
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		c.Mem.Flush()
		for i := uint64(0); i < bytes/8; i++ {
			if got, want := backing.Read(dst+i*8, 8, false), backing.Read(src+i*8, 8, false); got != want {
				t.Fatalf("nofastpath=%v: destination word %d (byte offset %#x) = %#x, source %#x", noFastPath, i, i*8, got, want)
			}
		}
	}
}
