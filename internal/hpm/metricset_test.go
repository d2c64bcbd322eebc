package hpm

import (
	"math"
	"reflect"
	"testing"
)

func TestParseMetricSet(t *testing.T) {
	set, err := ParseMetricSet("dcache-miss, insts,cycles")
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{EvDCacheMiss, EvInsts, EvCycles}
	if !reflect.DeepEqual(set.Events, want) {
		t.Fatalf("events = %v, want %v", set.Events, want)
	}
	if set.String() != "dcache-miss,insts,cycles" {
		t.Fatalf("String() = %q", set.String())
	}
	if set.Index(EvCycles) != 2 || set.Index(EvLoads) != -1 {
		t.Fatalf("Index wrong: cycles=%d loads=%d", set.Index(EvCycles), set.Index(EvLoads))
	}
	if _, err := ParseMetricSet("dcache-miss,bogus"); err == nil {
		t.Fatal("unknown event accepted")
	}
	if _, err := ParseMetricSet(""); err == nil {
		t.Fatal("empty set accepted")
	}
	if !DefaultMetricSet().Equal(NewMetricSet(EvDCacheMiss, EvInsts)) {
		t.Fatal("default set is not the classic pair")
	}
	if DefaultMetricSet().Equal(NewMetricSet(EvInsts, EvDCacheMiss)) {
		t.Fatal("Equal ignores order")
	}
}

func TestWideBankSelectAndWrap(t *testing.T) {
	u := NewK(4)
	u.SelectAll([]Event{EvDCacheMiss, EvInsts, EvLoads, EvStores})
	got := u.SelectedAll()
	if !reflect.DeepEqual(got, []Event{EvDCacheMiss, EvInsts, EvLoads, EvStores}) {
		t.Fatalf("SelectedAll = %v", got)
	}

	// Counters beyond slot 1 are still 32-bit and wrap silently.
	u.Strict = false
	u.WriteAll([]uint32{0, 0, 0xFFFF_FFF0, 0xFFFF_FFFE})
	u.Count(EvLoads, 0x20)
	u.Count(EvStores, 5)
	vals := u.ReadAll(nil)
	if vals[2] != 0x10 {
		t.Fatalf("counter 2 = %#x, want 0x10 after wrap", vals[2])
	}
	if vals[3] != 3 {
		t.Fatalf("counter 3 = %#x, want 3 after wrap", vals[3])
	}
}

func TestReadAllForcesPendingWrite(t *testing.T) {
	u := NewK(4)
	u.SelectAll([]Event{EvInsts, EvNone, EvCycles, EvNone})
	u.Count(EvInsts, 9)
	u.WritePair(0, 0)
	// ReadAll plays the read-after-write role for the whole bank.
	vals := u.ReadAll(make([]uint32, 0, 8))
	if len(vals) != 4 || vals[0] != 0 {
		t.Fatalf("ReadAll = %v, want pending write drained to zero", vals)
	}
	u.Count(EvInsts, 2)
	if pic0, _ := Split(u.ReadPair(0)); pic0 != 2 {
		t.Fatalf("pic0 = %d, want 2", pic0)
	}
}

func TestWritePairSwitchDrainsPending(t *testing.T) {
	u := NewK(4)
	u.SelectAll([]Event{EvInsts, EvNone, EvNone, EvNone})
	u.Count(EvInsts, 50)
	u.WritePair(0, 7)
	u.WritePair(1, Pack(3, 4)) // different pair: pair-0 write must drain first
	if v := u.ReadPair(0); v != 7 {
		t.Fatalf("pair 0 = %d, want 7", v)
	}
	if v := u.ReadPair(1); v != Pack(3, 4) {
		t.Fatalf("pair 1 = %#x, want %#x", v, Pack(3, 4))
	}
}

func TestPackSplitRoundTrip(t *testing.T) {
	if p0, p1 := Split(Pack(17, 42)); p0 != 17 || p1 != 42 {
		t.Fatalf("Split(Pack(17,42)) = %d,%d", p0, p1)
	}
}

func TestNewKBounds(t *testing.T) {
	for _, k := range []int{0, MaxCounters + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewK(%d) did not panic", k)
				}
			}()
			NewK(k)
		}()
	}
}

// TestSchedulerExactWhenFits: a one-group schedule multiplexes nothing and
// the estimates equal the raw counts.
func TestSchedulerExactWhenFits(t *testing.T) {
	u := NewK(2)
	s := NewScheduler(u, NewMetricSet(EvInsts, EvLoads))
	if s.Groups() != 1 {
		t.Fatalf("groups = %d, want 1", s.Groups())
	}
	u.Count(EvInsts, 10)
	u.Count(EvLoads, 4)
	s.Rotate(100)
	u.Count(EvInsts, 5)
	s.Finish(50)
	want := []uint64{15, 4}
	if got := s.Estimates(); !reflect.DeepEqual(got, want) {
		t.Fatalf("estimates = %v, want %v", got, want)
	}
	if en, total := s.Enabled(0); en != 150 || total != 150 {
		t.Fatalf("enabled = %d/%d, want 150/150", en, total)
	}
}

// TestSchedulerScaledEstimates: a 4-event set on a 2-counter bank rotates
// two groups; under a uniform event rate the scaled estimates recover the
// full-run totals exactly.
func TestSchedulerScaledEstimates(t *testing.T) {
	u := NewK(2)
	set := NewMetricSet(EvInsts, EvLoads, EvStores, EvBranches)
	s := NewScheduler(u, set)
	if s.Groups() != 2 {
		t.Fatalf("groups = %d, want 2", s.Groups())
	}
	// 8 intervals of equal weight; each event fires at a fixed per-interval
	// rate, so each group observes exactly half the run.
	for i := 0; i < 8; i++ {
		u.Count(EvInsts, 100)
		u.Count(EvLoads, 30)
		u.Count(EvStores, 20)
		u.Count(EvBranches, 10)
		s.Rotate(1000)
	}
	want := []uint64{800, 240, 160, 80}
	got := s.Estimates()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("slot %d (%s): estimate %d, want %d (raw %v)",
				i, set.Events[i], got[i], want[i], s.Raw())
		}
		if en, total := s.Enabled(i); en*2 != total {
			t.Fatalf("slot %d enabled %d of %d, want half", i, en, total)
		}
	}
	// The shadow totals are unaffected by the multiplexing and give the
	// ground truth the estimates approximate.
	for i, ev := range set.Events {
		if u.Total(ev) != want[i] {
			t.Fatalf("shadow total %s = %d, want %d", ev, u.Total(ev), want[i])
		}
	}
}

// TestSchedulerDeterministic: the same count sequence always yields the
// same schedule and the same estimates.
func TestSchedulerDeterministic(t *testing.T) {
	run := func() []uint64 {
		u := NewK(2)
		s := NewScheduler(u, NewMetricSet(EvInsts, EvLoads, EvStores))
		for i := 0; i < 7; i++ {
			u.Count(EvInsts, uint64(13+i))
			u.Count(EvLoads, uint64(5*i))
			u.Count(EvStores, uint64(i*i))
			s.Rotate(uint64(100 + i))
		}
		s.Finish(31)
		return s.Estimates()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("nondeterministic estimates: %v vs %v", a, b)
	}
	for _, v := range a {
		if v == 0 || v == math.MaxUint64 {
			t.Fatalf("degenerate estimate %v", a)
		}
	}
}
