package hpm

import "fmt"

// Scheduler time-multiplexes a MetricSet wider than a counter bank, in the
// style of perf_event's event rotation. The set is partitioned, in slot
// order, into fixed groups of at most K events; the active group rotates
// round-robin at interval boundaries chosen by the caller (the simulator
// rotates on a fixed retirement count, so a given program and rotation
// quantum always produce the same schedule — the determinism invariant).
//
// While group g is resident each of its events counts on a dedicated PIC;
// the other groups are blind. At every rotation the scheduler drains the
// bank into 64-bit per-event raw totals and records how many weight units
// (cycles, retirements — whatever the caller passes) the group was enabled
// for. Estimates then reconstructs full-run values the way perf does:
//
//	estimate[i] = raw[i] × totalWeight / enabledWeight[group(i)]
//
// With G groups rotated uniformly each enabledWeight ≈ totalWeight/G, so
// the estimate scales each sampled count by roughly G. The error is the
// sampling error of the un-observed intervals; on steady-state workloads
// it is small (see EXPERIMENTS.md), and on a one-group set (N ≤ K) the
// scheduler is exact: enabledWeight == totalWeight and the estimate is the
// raw count.
type Scheduler struct {
	unit   *Unit
	set    MetricSet
	groups [][]Event

	active  int
	raw     []uint64 // per metric-slot accumulated raw counts
	enabled []uint64 // per group: weight units while resident
	total   uint64   // weight units overall
}

// NewScheduler partitions set over u's bank. The unit's selection is
// reprogrammed to the first group and its counters are zeroed.
func NewScheduler(u *Unit, set MetricSet) *Scheduler {
	if set.Len() == 0 {
		panic("hpm: scheduler over an empty metric set")
	}
	k := u.NumCounters()
	s := &Scheduler{unit: u, set: set}
	for lo := 0; lo < set.Len(); lo += k {
		hi := lo + k
		if hi > set.Len() {
			hi = set.Len()
		}
		s.groups = append(s.groups, set.Events[lo:hi])
	}
	s.raw = make([]uint64, set.Len())
	s.enabled = make([]uint64, len(s.groups))
	s.program()
	return s
}

// Groups returns how many rotation groups the set was split into; 1 means
// the set fits the bank and no multiplexing occurs.
func (s *Scheduler) Groups() int { return len(s.groups) }

// Set returns the scheduled metric set.
func (s *Scheduler) Set() MetricSet { return s.set }

// program points the bank at the active group and zeroes its counters
// without buffering (rotation models a supervisor-mode PCR write, not the
// user-code write path the paper's read-after-write quirk concerns).
func (s *Scheduler) program() {
	s.unit.SelectAll(s.groups[s.active])
	strict := s.unit.Strict
	s.unit.Strict = false
	for p := 0; 2*p < s.unit.NumCounters(); p++ {
		s.unit.WritePair(p, 0)
	}
	s.unit.Strict = strict
}

// drain folds the bank's current counts into the active group's raw totals
// and charges it weight units of residency.
func (s *Scheduler) drain(weight uint64) {
	s.unit.sync()
	base := 0
	for g := 0; g < s.active; g++ {
		base += len(s.groups[g])
	}
	for i := range s.groups[s.active] {
		s.raw[base+i] += uint64(s.unit.pic[i])
	}
	s.enabled[s.active] += weight
	s.total += weight
}

// Rotate ends the current interval: the active group's counts are drained
// and charged weight units of enablement, then the next group (round-robin)
// is programmed onto the bank. With a single group Rotate only accumulates.
func (s *Scheduler) Rotate(weight uint64) {
	s.drain(weight)
	if len(s.groups) > 1 {
		s.active = (s.active + 1) % len(s.groups)
		s.program()
	} else {
		s.program() // re-zero so the next interval's drain is a delta
	}
}

// Finish drains the in-flight interval without reprogramming, closing the
// schedule before reading estimates.
func (s *Scheduler) Finish(weight uint64) { s.drain(weight) }

// Raw returns a copy of the accumulated raw (unscaled) per-slot counts.
func (s *Scheduler) Raw() []uint64 {
	out := make([]uint64, len(s.raw))
	copy(out, s.raw)
	return out
}

// Enabled returns the weight units slot i's group was resident for, and the
// total weight observed.
func (s *Scheduler) Enabled(i int) (enabled, total uint64) {
	if i < 0 || i >= s.set.Len() {
		panic(fmt.Sprintf("hpm: enabled weight of slot %d of a %d-slot set", i, s.set.Len()))
	}
	return s.enabled[s.groupOf(i)], s.total
}

func (s *Scheduler) groupOf(slot int) int {
	k := s.unit.NumCounters()
	return slot / k
}

// Estimates returns the scaled per-slot estimates raw×total/enabled. Slots
// whose group was never resident estimate zero.
func (s *Scheduler) Estimates() []uint64 {
	out := make([]uint64, len(s.raw))
	for i, r := range s.raw {
		en := s.enabled[s.groupOf(i)]
		if en == 0 {
			continue
		}
		// Scale in float64: raw counts fit 53 bits for any plausible run
		// length, and the quotient needs the precision anyway.
		out[i] = uint64(float64(r)*float64(s.total)/float64(en) + 0.5)
	}
	return out
}
