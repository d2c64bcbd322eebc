package hpm

import (
	"testing"
	"testing/quick"
)

func TestSelectAndCount(t *testing.T) {
	u := New()
	u.Select(EvDCacheMiss, EvInsts)
	u.Count(EvDCacheReadMiss, 3)
	u.Count(EvDCacheWriteMiss, 2)
	u.Count(EvInsts, 10)
	u.Count(EvCycles, 99) // not selected
	pic0, pic1 := Split(u.ReadPair(0))
	if pic0 != 5 {
		t.Fatalf("pic0 = %d, want 5 (combined D-miss)", pic0)
	}
	if pic1 != 10 {
		t.Fatalf("pic1 = %d, want 10", pic1)
	}
	if u.Total(EvCycles) != 99 || u.Total(EvDCacheMiss) != 5 {
		t.Fatalf("shadow totals wrong: cycles=%d dmiss=%d", u.Total(EvCycles), u.Total(EvDCacheMiss))
	}
}

func TestCounterWrap(t *testing.T) {
	u := New()
	u.Select(EvInsts, EvNone)
	u.WritePair(0, uint64(0xFFFF_FFF0)) // PIC0 near wrap
	u.ReadPair(0)                       // complete the write
	u.Count(EvInsts, 0x20)
	pic0, _ := Split(u.ReadPair(0))
	if pic0 != 0x10 {
		t.Fatalf("pic0 = %#x, want 0x10 after wrap", pic0)
	}
}

// TestDelta32RecoversShortIntervals: for any start value and any delta that
// fits in 32 bits, the wrapped subtraction recovers the true delta.
func TestDelta32RecoversShortIntervals(t *testing.T) {
	check := func(start uint32, delta uint32) bool {
		end := start + delta // wraps naturally
		return Delta32(start, end) == delta
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

// TestWriteWithoutReadLosesEvents reproduces the UltraSPARC quirk: a write
// not followed by a read leaves a window in which events are misattributed.
func TestWriteWithoutReadLosesEvents(t *testing.T) {
	u := New()
	u.Select(EvInsts, EvNone)
	u.Count(EvInsts, 100)

	// Correct idiom: write then read, then two events.
	u.WritePair(0, 0)
	u.ReadPair(0)
	u.Count(EvInsts, 1)
	u.Retire()
	u.Count(EvInsts, 1)
	u.Retire()
	if pic0, _ := Split(u.ReadPair(0)); pic0 != 2 {
		t.Fatalf("read-after-write: pic0 = %d, want 2", pic0)
	}

	// Broken idiom: write without read; events during the buffered window
	// land in the stale value and vanish when the write drains.
	u2 := New()
	u2.Select(EvInsts, EvNone)
	u2.Count(EvInsts, 100)
	u2.WritePair(0, 0)
	u2.Count(EvInsts, 1)
	u2.Retire()
	u2.Count(EvInsts, 1)
	u2.Retire()
	u2.Count(EvInsts, 1)
	u2.Retire() // write drains here, discarding the 3 events
	u2.Count(EvInsts, 1)
	u2.Retire()
	if pic0, _ := Split(u2.ReadPair(0)); pic0 != 1 {
		t.Fatalf("write-without-read: pic0 = %d, want 1 (3 events lost)", pic0)
	}
}

func TestNonStrictWriteImmediate(t *testing.T) {
	u := New()
	u.Strict = false
	u.Select(EvInsts, EvNone)
	u.Count(EvInsts, 7)
	u.WritePair(0, 0)
	u.Count(EvInsts, 2)
	if pic0, _ := Split(u.ReadPair(0)); pic0 != 2 {
		t.Fatalf("pic0 = %d, want 2", pic0)
	}
}

func TestEventStrings(t *testing.T) {
	if EvDCacheMiss.String() != "dcache-miss" {
		t.Fatalf("EvDCacheMiss = %q", EvDCacheMiss.String())
	}
	if Event(200).String() == "" {
		t.Fatal("unknown event should still render")
	}
}

func TestResetTotals(t *testing.T) {
	u := New()
	u.Count(EvLoads, 5)
	u.ResetTotals()
	if u.Total(EvLoads) != 0 {
		t.Fatal("totals not reset")
	}
}
