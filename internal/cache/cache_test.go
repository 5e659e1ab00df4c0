package cache

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"trips/internal/mem"
)

func TestBankGeometry(t *testing.T) {
	// The paper's three bank shapes must construct.
	for _, c := range []struct{ size, ways, line int }{
		{8 << 10, 2, 64},  // DT L1D bank
		{16 << 10, 2, 64}, // IT L1I bank
		{64 << 10, 4, 64}, // MT L2 bank
	} {
		b := NewBank(c.size, c.ways, c.line)
		if b.numSets*c.ways*c.line != c.size {
			t.Errorf("bank %+v: bad set count %d", c, b.numSets)
		}
	}
}

func TestBankSetsShareOneSlab(t *testing.T) {
	// Bank, set headers and one line slab: construction cost must not grow
	// with the set count.
	if n := testing.AllocsPerRun(10, func() { NewBank(64<<10, 4, 64) }); n != 3 {
		t.Errorf("NewBank(64 KB, 4-way) made %v allocations, want 3", n)
	}
	b := NewBank(8<<10, 2, 64)
	for i, set := range b.sets {
		if len(set) != 2 || cap(set) != 2 {
			t.Fatalf("set %d: len %d cap %d, want 2/2 (a set must not reach into its neighbour)", i, len(set), cap(set))
		}
	}
}

func TestBankFillReadWrite(t *testing.T) {
	b := NewBank(8<<10, 2, 64)
	lineData := make([]byte, 64)
	for i := range lineData {
		lineData[i] = byte(i)
	}
	if _, ok := b.Read(0x1000, 8); ok {
		t.Fatal("read hit on empty bank")
	}
	if v := b.Fill(0x1000, lineData); v.Valid {
		t.Fatal("fill into empty set produced a victim")
	}
	got, ok := b.Read(0x1008, 8)
	if !ok || !bytes.Equal(got, lineData[8:16]) {
		t.Fatalf("read = %v, %v", got, ok)
	}
	if !b.Write(0x1008, []byte{0xaa, 0xbb}) {
		t.Fatal("write missed a resident line")
	}
	got, _ = b.Read(0x1008, 2)
	if !bytes.Equal(got, []byte{0xaa, 0xbb}) {
		t.Fatalf("read-after-write = %v", got)
	}
}

func TestBankLRUEvictionAndWriteback(t *testing.T) {
	b := NewBank(2*64, 2, 64) // one set, two ways
	l0 := make([]byte, 64)
	l1 := make([]byte, 64)
	l2 := make([]byte, 64)
	b.Fill(0x0, l0)
	b.Fill(0x40000, l1)
	b.Write(0x0, []byte{1}) // dirty + most recently used
	// 0x40000 is LRU and clean: evicting it produces no writeback.
	v := b.Fill(0x80000, l2)
	if v.Valid {
		t.Fatalf("clean eviction returned writeback victim %#x", v.Addr)
	}
	if b.Probe(0x40000) {
		t.Fatal("evicted line still present")
	}
	if !b.Probe(0x0) || !b.Probe(0x80000) {
		t.Fatal("resident lines missing")
	}
	// Now 0x0 is LRU and dirty: evicting it must return its data.
	v = b.Fill(0xC0000, l1)
	if !v.Valid {
		t.Fatal("dirty eviction returned no victim")
	}
	if v.Addr != 0x0 {
		t.Fatalf("evicted %#x, want dirty LRU line 0x0", v.Addr)
	}
	if v.Data[0] != 1 {
		t.Fatalf("victim data lost the write: %v", v.Data[:4])
	}
}

func TestQuickBankMirrorsMemory(t *testing.T) {
	// Property: a bank backed by a memory, with fills on miss and
	// write-back on eviction, always returns what a flat memory would.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		golden := mem.New()
		backing := mem.New()
		b := NewBank(1<<10, 2, 64) // tiny bank to force evictions
		access := func(addr uint64, write bool, val byte) bool {
			if write {
				golden.Write(addr, 1, uint64(val))
				if !b.Write(addr, []byte{val}) {
					// Miss: fill from backing then retry.
					la := b.LineAddr(addr)
					if v := b.Fill(la, backing.ReadBytes(la, 64)); v.Valid {
						backing.WriteBytes(v.Addr, v.Data)
					}
					if !b.Write(addr, []byte{val}) {
						return false
					}
				}
				return true
			}
			want := byte(golden.Read(addr, 1, false))
			got, ok := b.Read(addr, 1)
			if !ok {
				la := b.LineAddr(addr)
				if v := b.Fill(la, backing.ReadBytes(la, 64)); v.Valid {
					backing.WriteBytes(v.Addr, v.Data)
				}
				got, ok = b.Read(addr, 1)
				if !ok {
					return false
				}
			}
			return got[0] == want
		}
		for i := 0; i < 500; i++ {
			addr := uint64(r.Intn(1 << 14))
			if !access(addr, r.Intn(2) == 0, byte(r.Intn(256))) {
				return false
			}
		}
		// Flush dirty lines; backing must equal golden over the region.
		for _, v := range b.DirtyLines() {
			backing.WriteBytes(v.Addr, v.Data)
		}
		for a := uint64(0); a < 1<<14; a += 7 {
			if backing.Read(a, 1, false) != golden.Read(a, 1, false) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestMSHRMergeAndCapacity(t *testing.T) {
	m := NewMSHR(4, 16)
	primary, ok := m.Allocate(0x100, "a")
	if !primary || !ok {
		t.Fatal("first allocation should be primary")
	}
	primary, ok = m.Allocate(0x100, "b")
	if primary || !ok {
		t.Fatal("second allocation for same line should merge")
	}
	// Fill remaining line capacity.
	for i := 0; i < 3; i++ {
		if p, ok := m.Allocate(uint64(0x200+i*0x40), i); !p || !ok {
			t.Fatalf("allocation %d failed", i)
		}
	}
	if _, ok := m.Allocate(0x900, "x"); ok {
		t.Fatal("fifth line accepted; MaxLines is 4")
	}
	// Merging into existing lines still allowed up to MaxRequests.
	for i := 0; i < 11; i++ {
		if _, ok := m.Allocate(0x100, i); !ok {
			t.Fatalf("merge %d refused below request cap", i)
		}
	}
	if _, ok := m.Allocate(0x100, "over"); ok {
		t.Fatal("17th request accepted; MaxRequests is 16")
	}
	ws := m.Complete(0x100)
	if len(ws) != 13 {
		t.Fatalf("Complete returned %d waiters, want 13", len(ws))
	}
	if m.Pending(0x100) {
		t.Fatal("line still pending after Complete")
	}
	if _, ok := m.Allocate(0x900, "x"); !ok {
		t.Fatal("allocation refused after Complete freed a line")
	}
}

func TestMemoryReadWriteWidths(t *testing.T) {
	m := mem.New()
	m.Write(0x1000, 8, 0x1122334455667788)
	if got := m.Read(0x1000, 4, false); got != 0x55667788 {
		t.Errorf("low word = %#x", got)
	}
	if got := m.Read(0x1004, 4, false); got != 0x11223344 {
		t.Errorf("high word = %#x", got)
	}
	m.Write(0x2000, 1, 0x80)
	if got := m.Read(0x2000, 1, true); got != 0xffffffffffffff80 {
		t.Errorf("sign-extended byte = %#x", got)
	}
	if got := m.Read(0x2000, 1, false); got != 0x80 {
		t.Errorf("zero-extended byte = %#x", got)
	}
	// Cross-page write/read.
	m.WriteBytes(0xFFF, []byte{1, 2, 3})
	if got := m.ReadBytes(0xFFF, 3); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("cross-page bytes = %v", got)
	}
	// Unwritten memory reads as zero.
	if got := m.Read(0x999000, 8, false); got != 0 {
		t.Errorf("fresh memory = %#x", got)
	}
}
