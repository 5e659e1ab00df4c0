// Package critpath implements the critical-path accounting of Fields et
// al. used by the paper (Section 5.4) to attribute each cycle of a
// program's critical path to a microarchitectural activity: instruction
// distribution (IFetch), operand network hop latency, operand network
// contention, operand fanout instructions, block-completion detection,
// block-commit latency, and everything a conventional core would also pay
// (Other: ALU execution, cache access, misses).
//
// The simulator constructs one Event per microarchitectural happening
// (dispatch, issue, completion, arrival, commit...). The time of an event
// is determined by its last-arriving dependency; the simulator passes that
// dependency as the parent together with a categorized decomposition of the
// edge. Because event times in a cycle-accurate simulator are exactly
// "max over parents + edge latency", the chain of last-arriving parents IS
// the critical path, so each event can carry cumulative per-category totals
// and the analysis needs O(1) memory per live event — a fixed-size value,
// with no graph kept behind it.
package critpath

import (
	"fmt"
	"math"
)

// Cat is a critical-path cycle category (the columns of paper Table 3).
type Cat int

const (
	// CatIFetch: instruction distribution delay — fetch pipeline, GDN
	// dispatch, refills.
	CatIFetch Cat = iota
	// CatOPNHop: operand network hop latency between dependent instructions.
	CatOPNHop
	// CatOPNContention: cycles operands spent blocked in OPN routers.
	CatOPNContention
	// CatFanout: execution of fanout (mov) instructions that only replicate
	// operands.
	CatFanout
	// CatComplete: waiting for the GT to learn that all block outputs have
	// been produced (GSN daisy chains, DSN store tracking).
	CatComplete
	// CatCommit: the block commit protocol — GCN command, architectural
	// drain, GSN acknowledgment.
	CatCommit
	// CatOther: components a conventional core also has — ALU execution,
	// ALU contention, cache hits and misses.
	CatOther
	NumCats
)

func (c Cat) String() string {
	switch c {
	case CatIFetch:
		return "IFetch"
	case CatOPNHop:
		return "OPN Hops"
	case CatOPNContention:
		return "OPN Cont."
	case CatFanout:
		return "Fanout Ops"
	case CatComplete:
		return "Block Complete"
	case CatCommit:
		return "Block Commit"
	case CatOther:
		return "Other"
	}
	return fmt.Sprintf("Cat(%d)", int(c))
}

// Split is a categorized decomposition of one dependency edge's latency.
type Split [NumCats]int64

// Event is a node on the dependence graph: its cycle and the cumulative
// per-category totals along its critical (last-arrival) chain.
//
// An Event is a pointer-free 40-byte value, so tiles, messages and wheel
// entries hold it directly and creating one never allocates. The zero
// Event means "no event" (Valid reports false); as a parent it stands for
// the time-zero root. The per-category totals are 32-bit: along a chain
// from the root they sum to Cycle, so none can wrap while Cycle stays
// within MaxCycle. An event past MaxCycle is marked overflowed, the mark
// passes to every descendant, and Finish reports it as an *OverflowError.
type Event struct {
	Cycle int64
	cum   [NumCats]uint32
	flags uint32
}

const (
	flagValid uint32 = 1 << iota
	flagOverflow
)

// MaxCycle is the last cycle whose critical-path split an Event records
// exactly.
const MaxCycle = math.MaxUint32

// OverflowError reports a critical path that ran past MaxCycle cycles, where
// the per-category totals can no longer be kept exactly.
type OverflowError struct {
	Cycle int64 // the terminal event's cycle
}

func (e *OverflowError) Error() string {
	return fmt.Sprintf("critpath: critical path reaches cycle %d, past the %d cycles its per-category totals can hold", e.Cycle, int64(MaxCycle))
}

// Valid reports whether e is an event rather than the zero "no event".
func (e Event) Valid() bool { return e.flags&flagValid != 0 }

// Cum returns e's cumulative per-category totals.
func (e Event) Cum() Split {
	var s Split
	for c := range s {
		s[c] = int64(e.cum[c])
	}
	return s
}

// At returns the event at the given cycle whose last-arriving dependency is
// parent (the zero Event stands for the time-zero root). split apportions
// the edge latency (cycle - parent.Cycle) among categories; any
// unapportioned remainder is charged to rem. Negative or over-apportioned
// splits are clamped so totals always equal elapsed time.
func At(cycle int64, parent Event, split Split, rem Cat) Event {
	if cycle < parent.Cycle {
		cycle = parent.Cycle
	}
	e := parent
	e.Cycle = cycle
	e.flags |= flagValid
	if cycle > MaxCycle {
		e.flags |= flagOverflow
		return e
	}
	left := cycle - parent.Cycle
	for c := range split {
		if take := min(split[c], left); take > 0 {
			e.cum[c] += uint32(take)
			left -= take
		}
	}
	e.cum[rem] += uint32(left)
	return e
}

// Root returns the time-zero event.
func Root() *Event { return &Event{flags: flagValid} }

// New is At for callers holding events by reference: a nil parent is the
// root, and the result is a fresh heap event.
func New(cycle int64, parent *Event, split Split, rem Cat) *Event {
	var p Event
	if parent != nil {
		p = *parent
	}
	e := At(cycle, p, split, rem)
	return &e
}

// Latest returns the later of two events, preferring a on a tie and
// ignoring a zero "no event" operand; it finds the last-arriving
// dependency.
func Latest(a, b Event) Event {
	if !a.Valid() || (b.Valid() && b.Cycle > a.Cycle) {
		return b
	}
	return a
}

// Report is the per-category share of the critical path.
type Report struct {
	TotalCycles int64
	Cycles      Split
}

// Finish produces the report for a terminal event, or an *OverflowError
// when its chain ran past MaxCycle.
func Finish(e Event) (Report, error) {
	if e.flags&flagOverflow != 0 {
		return Report{}, &OverflowError{Cycle: e.Cycle}
	}
	return Report{TotalCycles: e.Cycle, Cycles: e.Cum()}, nil
}

// Percent returns category c's share of the critical path in percent.
func (r Report) Percent(c Cat) float64 {
	if r.TotalCycles == 0 {
		return 0
	}
	return 100 * float64(r.Cycles[c]) / float64(r.TotalCycles)
}
