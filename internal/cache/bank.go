// Package cache implements the set-associative cache banks and miss
// handling used throughout the TRIPS memory hierarchy: the 2-way 8KB L1
// data cache banks in each DT (paper Section 3.5), the 2-way 16KB L1
// instruction cache banks in each IT (Section 3.2), and the 4-way 64KB L2
// banks in each NUCA memory tile (Section 3.6).
package cache

import "fmt"

// Bank is one physically-indexed, write-back, LRU, set-associative cache
// bank holding real data bytes.
type Bank struct {
	SizeBytes int
	Ways      int
	LineBytes int
	numSets   int
	sets      [][]line
	clock     uint64 // LRU timestamp source

	// Stats.
	Hits, Misses, Evictions, Writebacks uint64
}

type line struct {
	valid, dirty bool
	tag          uint64 // full line address (addr with offset bits cleared)
	data         []byte
	lastUse      uint64
}

// NewBank builds a bank. sizeBytes must be ways*lineBytes*numSets for a
// power-of-two numSets.
func NewBank(sizeBytes, ways, lineBytes int) *Bank {
	numSets := sizeBytes / (ways * lineBytes)
	if numSets <= 0 || numSets*ways*lineBytes != sizeBytes || numSets&(numSets-1) != 0 {
		panic(fmt.Sprintf("cache: bad geometry %dB/%dway/%dB-line", sizeBytes, ways, lineBytes))
	}
	b := &Bank{SizeBytes: sizeBytes, Ways: ways, LineBytes: lineBytes, numSets: numSets}
	// One slab holds every set: a 64 KB L2 bank has 256 sets, and a slice
	// per set made bank construction most of a NUCA machine build's
	// allocations. The full slice expression caps each set at its own ways.
	slab := make([]line, numSets*ways)
	b.sets = make([][]line, numSets)
	for i := range b.sets {
		b.sets[i] = slab[i*ways : (i+1)*ways : (i+1)*ways]
	}
	return b
}

// LineAddr returns addr with the line-offset bits cleared.
func (b *Bank) LineAddr(addr uint64) uint64 { return addr &^ uint64(b.LineBytes-1) }

func (b *Bank) set(addr uint64) []line {
	idx := int(addr/uint64(b.LineBytes)) & (b.numSets - 1)
	return b.sets[idx]
}

func (b *Bank) find(addr uint64) *line {
	la := b.LineAddr(addr)
	set := b.set(addr)
	for i := range set {
		if set[i].valid && set[i].tag == la {
			return &set[i]
		}
	}
	return nil
}

// Probe reports whether addr hits without updating LRU or stats.
func (b *Bank) Probe(addr uint64) bool { return b.find(addr) != nil }

// Read copies n bytes at addr out of the bank. The access must hit and must
// not cross a line boundary; callers split line-crossing accesses.
func (b *Bank) Read(addr uint64, n int) ([]byte, bool) {
	ln := b.find(addr)
	if ln == nil {
		b.Misses++
		return nil, false
	}
	b.Hits++
	b.clock++
	ln.lastUse = b.clock
	off := int(addr) & (b.LineBytes - 1)
	if off+n > b.LineBytes {
		panic(fmt.Sprintf("cache: read of %d bytes at %#x crosses a %dB line", n, addr, b.LineBytes))
	}
	out := make([]byte, n)
	copy(out, ln.data[off:off+n])
	return out, true
}

// Write stores data at addr if the line is present, marking it dirty.
func (b *Bank) Write(addr uint64, data []byte) bool {
	ln := b.find(addr)
	if ln == nil {
		b.Misses++
		return false
	}
	b.Hits++
	b.clock++
	ln.lastUse = b.clock
	off := int(addr) & (b.LineBytes - 1)
	if off+len(data) > b.LineBytes {
		panic(fmt.Sprintf("cache: write of %d bytes at %#x crosses a %dB line", len(data), addr, b.LineBytes))
	}
	copy(ln.data[off:off+len(data)], data)
	ln.dirty = true
	return true
}

// Victim describes a dirty line displaced by a Fill.
type Victim struct {
	Addr  uint64
	Data  []byte
	Valid bool
}

// Fill installs a full line (len(data) == LineBytes) for addr, returning
// the displaced dirty victim if any. The new line is installed clean.
func (b *Bank) Fill(addr uint64, data []byte) Victim {
	if len(data) != b.LineBytes {
		panic(fmt.Sprintf("cache: fill with %d bytes, line is %d", len(data), b.LineBytes))
	}
	la := b.LineAddr(addr)
	set := b.set(addr)
	// Refill into an existing copy (e.g. a prefetch race) or an invalid way.
	victim := &set[0]
	for i := range set {
		if set[i].valid && set[i].tag == la {
			victim = &set[i]
			break
		}
		if !set[i].valid {
			victim = &set[i]
		} else if victim.valid && set[i].lastUse < victim.lastUse {
			victim = &set[i]
		}
	}
	var out Victim
	if victim.valid && victim.tag != la {
		b.Evictions++
		if victim.dirty {
			b.Writebacks++
			out = Victim{Addr: victim.tag, Data: victim.data, Valid: true}
		}
	}
	b.clock++
	nd := make([]byte, b.LineBytes)
	copy(nd, data)
	*victim = line{valid: true, tag: la, data: nd, lastUse: b.clock}
	return out
}

// DirtyLines returns the addresses and contents of all dirty lines; used to
// flush write-back state at simulation end so memory holds final results.
func (b *Bank) DirtyLines() []Victim {
	var out []Victim
	for i := range b.sets {
		for j := range b.sets[i] {
			ln := &b.sets[i][j]
			if ln.valid && ln.dirty {
				out = append(out, Victim{Addr: ln.tag, Data: ln.data, Valid: true})
			}
		}
	}
	return out
}
