package hpm

import (
	"math/rand"
	"reflect"
	"testing"
)

// posted returns the PICs and totals u would hold with its pending retire
// accounting posted, without posting it: comparing through this view after
// every operation checks the lazy unit without adding the syncs whose
// absence the test is looking for.
func posted(u *Unit) ([]uint32, [NumEvents]uint64) {
	pic := append([]uint32(nil), u.pic...)
	totals := u.totals
	totals[EvInsts] += u.tickInsts
	totals[EvCycles] += u.tickCycles
	for i := range pic {
		if u.picMask[EvInsts]&(1<<i) != 0 {
			pic[i] += uint32(u.tickInsts)
		}
		if u.picMask[EvCycles]&(1<<i) != 0 {
			pic[i] += uint32(u.tickCycles)
		}
	}
	return pic, totals
}

// randomEvents draws a selection for a k-counter bank, biased toward the
// events Tick feeds.
func randomEvents(rng *rand.Rand, k int) []Event {
	evs := make([]Event, rng.Intn(k+1))
	for i := range evs {
		switch rng.Intn(4) {
		case 0:
			evs[i] = EvInsts
		case 1:
			evs[i] = EvCycles
		default:
			evs[i] = Event(rng.Intn(int(NumEvents)))
		}
	}
	return evs
}

// TestTickMatchesEagerCounting drives a unit that retires instructions
// with Tick and an eager reference that counts every retirement with
// Count(EvInsts, 1) and Count(EvCycles, c), through the same random
// sequences of counting, PIC writes (strict and not), reads, selection
// changes, retirements and scheduler rotations. Every read must return the
// same value, and the PICs and totals must agree after every operation.
func TestTickMatchesEagerCounting(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(4)
		lazy, eager := NewK(k), NewK(k)
		strict := seed%2 == 0
		lazy.Strict, eager.Strict = strict, strict
		sel := randomEvents(rng, k)
		lazy.SelectAll(sel)
		eager.SelectAll(sel)

		var ls, es *Scheduler
		if seed%3 == 0 {
			set := NewMetricSet(EvInsts, EvCycles, EvDCacheMiss, EvLoads, EvCycles)
			ls, es = NewScheduler(lazy, set), NewScheduler(eager, set)
		}

		for step := 0; step < 2000; step++ {
			var op string
			switch r := rng.Intn(100); {
			case r < 50:
				op = "tick"
				c := uint64(rng.Intn(2))
				lazy.Tick(c)
				eager.Count(EvInsts, 1)
				eager.Count(EvCycles, c)
			case r < 58:
				op = "count"
				ev, n := Event(rng.Intn(int(NumEvents))), uint64(rng.Intn(9))
				lazy.Count(ev, n)
				eager.Count(ev, n)
			case r < 72:
				op = "retire"
				lazy.Retire()
				eager.Retire()
			case r < 78:
				op = "writepair"
				p, v := rng.Intn((k+1)/2), rng.Uint64()
				if rng.Intn(4) == 0 {
					lazy.Strict, eager.Strict = !strict, !strict
				}
				lazy.WritePair(p, v)
				eager.WritePair(p, v)
				lazy.Strict, eager.Strict = strict, strict
			case r < 80:
				op = "writeall"
				vals := make([]uint32, rng.Intn(k+1))
				for i := range vals {
					vals[i] = rng.Uint32()
				}
				lazy.WriteAll(vals)
				eager.WriteAll(vals)
			case r < 86:
				op = "readpair"
				p := rng.Intn((k + 1) / 2)
				if a, b := lazy.ReadPair(p), eager.ReadPair(p); a != b {
					t.Fatalf("seed %d step %d: ReadPair(%d) = %#x, eager %#x", seed, step, p, a, b)
				}
			case r < 89:
				op = "readall"
				if a, b := lazy.ReadAll(nil), eager.ReadAll(nil); !reflect.DeepEqual(a, b) {
					t.Fatalf("seed %d step %d: ReadAll = %v, eager %v", seed, step, a, b)
				}
			case r < 91:
				op = "selectall"
				sel := randomEvents(rng, k)
				lazy.SelectAll(sel)
				eager.SelectAll(sel)
			case r < 92:
				op = "total"
				ev := Event(rng.Intn(int(NumEvents)))
				if a, b := lazy.Total(ev), eager.Total(ev); a != b {
					t.Fatalf("seed %d step %d: Total(%v) = %d, eager %d", seed, step, ev, a, b)
				}
			case r < 94:
				op = "totals"
				if a, b := lazy.Totals(), eager.Totals(); a != b {
					t.Fatalf("seed %d step %d: Totals = %v, eager %v", seed, step, a, b)
				}
			case r < 95:
				op = "resettotals"
				lazy.ResetTotals()
				eager.ResetTotals()
			default:
				if ls == nil {
					continue
				}
				op = "rotate"
				w := uint64(1 + rng.Intn(50))
				ls.Rotate(w)
				es.Rotate(w)
				if a, b := ls.Raw(), es.Raw(); !reflect.DeepEqual(a, b) {
					t.Fatalf("seed %d step %d: scheduler raw = %v, eager %v", seed, step, a, b)
				}
			}
			lp, lt := posted(lazy)
			if !reflect.DeepEqual(lp, eager.pic) || lt != eager.totals {
				t.Fatalf("seed %d step %d after %s: lazy pic %v totals %v, eager pic %v totals %v",
					seed, step, op, lp, lt, eager.pic, eager.totals)
			}
		}
		if ls != nil {
			ls.Finish(7)
			es.Finish(7)
			if a, b := ls.Estimates(), es.Estimates(); !reflect.DeepEqual(a, b) {
				t.Fatalf("seed %d: estimates = %v, eager %v", seed, a, b)
			}
		}
	}
}

// TestTickPostsBeforeBufferedWriteLands: retirements inside a strict
// write's buffered window land in the old value and are lost when the
// write drains, exactly as eagerly counted events are.
func TestTickPostsBeforeBufferedWriteLands(t *testing.T) {
	u := New()
	u.Select(EvInsts, EvCycles)
	for i := 0; i < 10; i++ {
		u.Tick(1)
	}
	u.WritePair(0, 0)
	for i := 0; i < 3; i++ {
		u.Tick(1)
		u.Retire() // the third retirement drains the write
	}
	u.Tick(1)
	if pic0, pic1 := Split(u.ReadPair(0)); pic0 != 1 || pic1 != 1 {
		t.Fatalf("pics = %d/%d, want 1/1 (the three windowed retirements lost)", pic0, pic1)
	}
	if got := u.Total(EvInsts); got != 14 {
		t.Fatalf("insts total = %d, want 14", got)
	}
}
