package critpath

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestChainAccumulates(t *testing.T) {
	var s1 Split
	s1[CatIFetch] = 10
	e1 := At(10, Event{}, s1, CatOther)
	var s2 Split
	s2[CatOPNHop] = 3
	s2[CatOPNContention] = 2
	e2 := At(17, e1, s2, CatOther) // 7 cycles: 3 hop + 2 contention + 2 other
	r, err := Finish(e2)
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalCycles != 17 {
		t.Fatalf("total = %d", r.TotalCycles)
	}
	want := Split{}
	want[CatIFetch] = 10
	want[CatOPNHop] = 3
	want[CatOPNContention] = 2
	want[CatOther] = 2
	if r.Cycles != want {
		t.Fatalf("cycles = %v, want %v", r.Cycles, want)
	}
}

func TestOverApportionedSplitClamps(t *testing.T) {
	var s Split
	s[CatOPNHop] = 100 // edge is only 5 cycles long
	s[CatFanout] = -3  // negative shares are ignored
	e := At(5, Event{}, s, CatOther)
	if cum := e.Cum(); cum[CatOPNHop] != 5 || cum[CatOther] != 0 || cum[CatFanout] != 0 {
		t.Fatalf("cum = %v", cum)
	}
}

func TestBackwardTimeClamps(t *testing.T) {
	e1 := At(10, Event{}, Split{}, CatOther)
	e2 := At(5, e1, Split{}, CatOther) // cannot precede its dependency
	if e2.Cycle != 10 {
		t.Fatalf("cycle = %d, want clamped to 10", e2.Cycle)
	}
}

func TestZeroEventIsNoEvent(t *testing.T) {
	var none Event
	if none.Valid() {
		t.Fatal("zero Event reports valid")
	}
	if !Root().Valid() || *Root() != At(0, none, Split{}, CatOther) {
		t.Fatal("the root is not the valid time-zero event")
	}
	if e := At(0, none, Split{}, CatOther); !e.Valid() {
		t.Fatal("an event derived from the root is not valid")
	}
}

func TestLatest(t *testing.T) {
	a := At(5, Event{}, Split{}, CatOther)
	b := At(9, Event{}, Split{}, CatOther)
	if Latest(a, b) != b || Latest(b, a) != b {
		t.Error("Latest did not pick the later event")
	}
	if Latest(Event{}, a) != a || Latest(a, Event{}) != a {
		t.Error("Latest does not skip the zero event")
	}
	if Latest(Event{}, Event{}).Valid() {
		t.Error("Latest of two zero events is valid")
	}
	// Ties keep the first operand, even when the chains differ.
	var s Split
	s[CatIFetch] = 5
	c := At(5, Event{}, s, CatOther)
	if Latest(a, c) != a || Latest(c, a) != c {
		t.Error("Latest does not prefer its first operand on a tie")
	}
}

// TestPointerWrappers pins New and Root, the by-reference forms kept for
// callers outside the simulator.
func TestPointerWrappers(t *testing.T) {
	var s Split
	s[CatCommit] = 2
	e := New(7, nil, s, CatOther)
	if e == nil || *e != At(7, Event{}, s, CatOther) {
		t.Fatalf("New(nil parent) = %+v", e)
	}
	if f := New(9, e, Split{}, CatIFetch); *f != At(9, *e, Split{}, CatIFetch) {
		t.Fatalf("New = %+v", f)
	}
}

func TestOverflowIsTypedError(t *testing.T) {
	var s Split
	s[CatOther] = 1
	below := At(MaxCycle, Event{}, s, CatIFetch)
	if _, err := Finish(below); err != nil {
		t.Fatalf("event at MaxCycle: %v", err)
	}
	over := At(MaxCycle+1, below, Split{}, CatIFetch)
	// The overflow mark passes to every descendant.
	last := At(MaxCycle+10, over, s, CatOther)
	_, err := Finish(last)
	var oe *OverflowError
	if !errors.As(err, &oe) || oe.Cycle != MaxCycle+10 {
		t.Fatalf("Finish = %v, want *OverflowError at %d", err, int64(MaxCycle+10))
	}
	if _, err := Finish(Latest(below, last)); !errors.As(err, &oe) {
		t.Fatalf("Latest lost the overflowed event: %v", err)
	}
}

func TestQuickTotalsAlwaysSumToElapsed(t *testing.T) {
	// Invariant: for any chain, the category totals sum exactly to the
	// final cycle — no cycles lost or double-counted.
	f := func(steps []uint8) bool {
		e := *Root()
		for i, s := range steps {
			if i > 200 {
				break
			}
			var sp Split
			sp[Cat(int(s)%int(NumCats))] = int64(s % 7)
			e = At(e.Cycle+int64(s%13), e, sp, CatOther)
		}
		var sum int64
		for _, v := range e.Cum() {
			sum += v
		}
		return sum == e.Cycle
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPercent(t *testing.T) {
	var s Split
	s[CatCommit] = 25
	r, err := Finish(At(100, Event{}, s, CatOther))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Percent(CatCommit); got != 25 {
		t.Errorf("Percent(commit) = %v", got)
	}
	if got := r.Percent(CatOther); got != 75 {
		t.Errorf("Percent(other) = %v", got)
	}
	if (Report{}).Percent(CatOther) != 0 {
		t.Error("empty report percent should be 0")
	}
}

func TestCategoryNames(t *testing.T) {
	names := map[Cat]string{
		CatIFetch: "IFetch", CatOPNHop: "OPN Hops", CatOPNContention: "OPN Cont.",
		CatFanout: "Fanout Ops", CatComplete: "Block Complete",
		CatCommit: "Block Commit", CatOther: "Other",
	}
	for c, want := range names {
		if c.String() != want {
			t.Errorf("Cat(%d).String() = %q, want %q", c, c.String(), want)
		}
	}
}

var sinkEvent Event

// BenchmarkAt measures one event on a chain, the per-dependency cost of the
// analysis.
func BenchmarkAt(b *testing.B) {
	e := *Root()
	split := Split{1, 1, 1}
	for b.Loop() {
		e = At(e.Cycle+4, e, split, CatOther)
	}
	sinkEvent = e
}
