package proc

import "trips/internal/micronet"

// Core tile topology (paper Figure 2): the OPN is a 5x5 mesh with the GT
// and four RTs in row 0 and a DT heading each of the four ET rows. The five
// ITs sit beside the GT/DT column as GDN/GRN/GSN clients only — they are
// not OPN nodes (Figure 3 shows the OPN covering 25 tiles).
//
//	row 0:  GT  RT0 RT1 RT2 RT3
//	row 1:  DT0 ET0 ET1 ET2 ET3
//	row 2:  DT1 ET4 ET5 ET6 ET7
//	row 3:  DT2 ET8 ET9 ET10 ET11
//	row 4:  DT3 ET12 ET13 ET14 ET15
const (
	NumSlots   = 8 // in-flight blocks (1024-instruction window)
	NumThreads = 4 // SMT threads supported by the core
)

func gtCoord() micronet.Coord       { return micronet.Coord{Row: 0, Col: 0} }
func rtCoord(i int) micronet.Coord  { return micronet.Coord{Row: 0, Col: 1 + i} }
func dtCoord(i int) micronet.Coord  { return micronet.Coord{Row: 1 + i, Col: 0} }
func etCoord(et int) micronet.Coord { return micronet.Coord{Row: 1 + et/4, Col: 1 + et%4} }

// gcnLastCoord is the node farthest from the GT: every GCN wave reaches it
// last, eight hops out.
func gcnLastCoord() micronet.Coord { return micronet.Coord{Row: 4, Col: 4} }

// Timing constants (paper Sections 3.1, 4.1). The block fetch pipeline
// totals 13 cycles: three for prediction, one for I-TLB and tag access, one
// for hit/miss detection, then eight pipelined dispatch commands. Dispatch
// of fetched instructions is itself pipelined across the ITs and rows so
// that the furthest RT receives its first header packet ten cycles and its
// last 17 cycles after the GT issues the first fetch command.
const (
	predictCycles = 3 // next-block prediction (Section 3.1)
	tagCycles     = 1 // I-TLB + I-cache tag access
	hitMissCycles = 1 // hit/miss detection
	dispatchBeats = 8 // pipelined fetch commands per block

	// gdnCmdToIT is the cycles for a dispatch command to reach IT 0 from
	// the GT; each further IT adds one hop.
	gdnCmdToIT = 2
	// itBankCycles is the IT's instruction-cache bank access latency.
	itBankCycles = 3
	// gdnHop is the per-column latency of instruction packets moving east
	// across a row.
	gdnHop = 1

	// dtCacheCycles is the DT L1 hit latency (bank access).
	dtCacheCycles = 2
	// rtDrainPerCycle and dtDrainPerCycle bound architectural commit
	// bandwidth: one register write port per RT bank, one store per DT.
	rtDrainPerCycle = 1
	dtDrainPerCycle = 1
)

// derived check: first header packet at the furthest RT (IT0, column 4)
// arrives gdnCmdToIT + itBankCycles + beat0 + 4*gdnHop + 1 = 10 cycles
// after the first fetch command, the last (beat 7) at 17 — matching the
// paper. Verified in TestDispatchTiming.
