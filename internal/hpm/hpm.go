// Package hpm models an UltraSPARC-style hardware performance monitor: a
// small bank of user-readable 32-bit performance instrumentation counters
// (PICs), each selectable to one of a menu of events, readable and writable
// from user code in a single instruction pair. The classic configuration is
// the paper's two-counter PIC0/PIC1 pair; NewK builds wider banks, and
// Scheduler (mux.go) time-multiplexes a MetricSet larger than the bank.
//
// Two hardware quirks the paper depends on are reproduced:
//
//   - The counters are 32 bits wide and wrap silently; profiling must
//     measure short (intraprocedural, call-free) intervals or accumulate
//     into 64-bit memory, as the instrumentation does.
//   - On the out-of-order UltraSPARC, a write to the counters must be
//     followed by a read to ensure the write completed before subsequent
//     instructions execute (Figure 3's caption). The model buffers writes
//     for a few instruction retirements unless a read forces completion, so
//     instrumentation that omits the read-after-write observes skewed
//     counts.
package hpm

import (
	"fmt"
	"math/bits"
)

// Event enumerates countable hardware events. The set matches the columns
// of Table 2 of the paper plus supporting raw events.
type Event uint8

const (
	EvNone Event = iota
	EvCycles
	EvInsts
	EvDCacheReadMiss
	EvDCacheWriteMiss
	EvDCacheMiss // read+write misses combined
	EvDCacheRead
	EvDCacheWrite
	EvICacheMiss
	EvMispredict       // mispredicted branch events
	EvMispredictStalls // cycles lost to mispredicts
	EvStoreBufStalls   // cycles stalled on a full store buffer
	EvFPStalls         // cycles stalled on FP result latency
	EvBranches
	EvCalls
	EvLoads
	EvStores
	EvL2Miss // L2 (external cache) misses, when an L2 is configured
	EvL2Hit

	NumEvents
)

var eventNames = [NumEvents]string{
	EvNone: "none", EvCycles: "cycles", EvInsts: "insts",
	EvDCacheReadMiss: "dcache-read-miss", EvDCacheWriteMiss: "dcache-write-miss",
	EvDCacheMiss: "dcache-miss", EvDCacheRead: "dcache-read", EvDCacheWrite: "dcache-write",
	EvICacheMiss: "icache-miss",
	EvMispredict: "mispredict", EvMispredictStalls: "mispredict-stalls",
	EvStoreBufStalls: "storebuf-stalls", EvFPStalls: "fp-stalls",
	EvBranches: "branches", EvCalls: "calls", EvLoads: "loads", EvStores: "stores",
	EvL2Miss: "l2-miss", EvL2Hit: "l2-hit",
}

func (e Event) String() string {
	if int(e) < len(eventNames) && eventNames[e] != "" {
		return eventNames[e]
	}
	return fmt.Sprintf("event(%d)", uint8(e))
}

// EventByName resolves an event name as printed by Event.String.
func EventByName(name string) (Event, bool) {
	for e := Event(0); e < NumEvents; e++ {
		if eventNames[e] == name {
			return e, true
		}
	}
	return EvNone, false
}

// writeLatency is how many instruction retirements a buffered PIC write
// survives before draining on its own.
const writeLatency = 3

// MaxCounters bounds the width of a counter bank (the per-event selection
// mask is a uint32).
const MaxCounters = 32

// Unit is the performance monitor: K selectable 32-bit PICs plus full
// 64-bit shadow totals for every event (the shadow totals stand in for the
// paper's periodic-sampling baseline measurements of uninstrumented runs).
// The zero-argument New builds the paper's two-counter unit.
type Unit struct {
	pic []uint32
	sel []Event

	// picMask[ev] has bit i set when an occurrence of ev counts toward
	// pic[i] under the current selection; recomputed by SelectAll so the
	// per-event hot path is one table lookup instead of K matches calls.
	picMask [NumEvents]uint32

	totals [NumEvents]uint64

	// Retire accounting not yet posted to the PICs and totals (see Tick).
	tickInsts  uint64
	tickCycles uint64

	// Buffered write state (see package comment). At most one pair write is
	// pending at a time; a write to a different pair drains the old one.
	pendingWrite bool
	pendingPair  int
	pendingVal   uint64
	pendingFuel  int

	// Strict mode enables write buffering; when false, writes complete
	// immediately (a convenience for tests).
	Strict bool
}

// New returns the classic two-counter unit with both counters deselected
// and strict write buffering enabled.
func New() *Unit { return NewK(2) }

// NewK returns a unit with k physical counters (1..MaxCounters), all
// deselected, with strict write buffering enabled.
func NewK(k int) *Unit {
	if k < 1 || k > MaxCounters {
		panic(fmt.Sprintf("hpm: counter bank width %d out of range", k))
	}
	return &Unit{
		pic:    make([]uint32, k),
		sel:    make([]Event, k),
		Strict: true,
	}
}

// NumCounters returns the bank width K.
func (u *Unit) NumCounters() int { return len(u.pic) }

// SelectAll programs the event selection of every counter (the PCR
// register): counter i counts events[i]. Counters beyond len(events) are
// deselected; events beyond the bank width are ignored.
func (u *Unit) SelectAll(events []Event) {
	u.sync()
	for i := range u.sel {
		if i < len(events) {
			u.sel[i] = events[i]
		} else {
			u.sel[i] = EvNone
		}
	}
	for ev := Event(0); ev < NumEvents; ev++ {
		var m uint32
		for i, sel := range u.sel {
			if matches(sel, ev) {
				m |= 1 << i
			}
		}
		u.picMask[ev] = m
	}
}

// Select programs the first two counter selections, deselecting the rest —
// the classic PIC0/PIC1 PCR write.
func (u *Unit) Select(pic0, pic1 Event) { u.SelectAll([]Event{pic0, pic1}) }

// SelectedAll returns a copy of the current per-counter event selections.
func (u *Unit) SelectedAll() []Event {
	out := make([]Event, len(u.sel))
	copy(out, u.sel)
	return out
}

// Selected returns the first two event selections.
func (u *Unit) Selected() (Event, Event) { return u.sel[0], u.sel[1] }

// matches reports whether an occurrence of ev should count toward a counter
// selecting sel (EvDCacheMiss aggregates the read and write miss events).
func matches(sel, ev Event) bool {
	if sel == ev {
		return true
	}
	if sel == EvDCacheMiss && (ev == EvDCacheReadMiss || ev == EvDCacheWriteMiss) {
		return true
	}
	return false
}

// Count records n occurrences of ev. The 32-bit PICs wrap silently.
func (u *Unit) Count(ev Event, n uint64) {
	u.totals[ev] += n
	if ev == EvDCacheReadMiss || ev == EvDCacheWriteMiss {
		u.totals[EvDCacheMiss] += n
	}
	for m := u.picMask[ev]; m != 0; m &= m - 1 {
		u.pic[bits.TrailingZeros32(m)] += uint32(n) // wraps by construction
	}
}

// Tick records one retired instruction and its base cycles: the same
// counts as Count(EvInsts, 1) and Count(EvCycles, cycles), but posted
// lazily. The simulator calls it once per instruction, and counters need
// to be exact only when something observes them, so Tick bumps two
// pending fields and the unit posts them (sync) before any read of a PIC
// or a total and before anything that changes how later events count: a
// PIC write landing, a selection change, a scheduler drain. Counting is
// addition, so posting late changes no value.
func (u *Unit) Tick(cycles uint64) {
	u.tickInsts++
	u.tickCycles += cycles
}

// sync posts the retire accounting pending from Tick.
func (u *Unit) sync() {
	if u.tickInsts == 0 {
		return
	}
	u.Count(EvInsts, u.tickInsts)
	u.Count(EvCycles, u.tickCycles)
	u.tickInsts, u.tickCycles = 0, 0
}

// Retire notes that an instruction retired, aging any buffered write. The
// simulator calls this once per instruction, so it is kept small enough to
// inline.
func (u *Unit) Retire() {
	if u.pendingWrite {
		u.age()
	}
}

// age counts one retirement against the buffered write, draining it when
// its latency has passed. It stays out of line so that Retire inlines.
//
//go:noinline
func (u *Unit) age() {
	u.pendingFuel--
	if u.pendingFuel <= 0 {
		u.applyPending()
	}
}

func (u *Unit) applyPending() {
	u.setPair(u.pendingPair, u.pendingVal)
	u.pendingWrite = false
}

// setPair overwrites pair p. Retire accounting pending until now lands in
// the old values first, and is lost with them, as it would have been had
// it been counted when it happened.
func (u *Unit) setPair(p int, v uint64) {
	u.sync()
	u.pic[2*p] = uint32(v)
	if 2*p+1 < len(u.pic) {
		u.pic[2*p+1] = uint32(v >> 32)
	}
}

// WritePair sets the two counters of pair p (counters 2p and 2p+1) from one
// 64-bit value (low counter in the low half). In strict mode the write is
// buffered: events occurring during the next few instructions still
// accumulate into the old values and are then lost when the buffered write
// drains — unless a Read forces completion first, which is why correct
// instrumentation always reads after writing. Writing a second pair while a
// write is pending drains the pending write first.
func (u *Unit) WritePair(p int, v uint64) {
	if 2*p >= len(u.pic) {
		panic(fmt.Sprintf("hpm: write of counter pair %d on a %d-counter bank", p, len(u.pic)))
	}
	if !u.Strict {
		u.setPair(p, v)
		return
	}
	if u.pendingWrite && u.pendingPair != p {
		u.applyPending()
	}
	u.pendingWrite = true
	u.pendingPair = p
	u.pendingVal = v
	u.pendingFuel = writeLatency
}

// ReadPair returns pair p's counters as one 64-bit value (low counter in
// the low half), forcing any buffered write to complete first (the
// read-after-write idiom).
func (u *Unit) ReadPair(p int) uint64 {
	if u.pendingWrite {
		u.applyPending()
	}
	u.sync()
	if 2*p >= len(u.pic) {
		panic(fmt.Sprintf("hpm: read of counter pair %d on a %d-counter bank", p, len(u.pic)))
	}
	v := uint64(u.pic[2*p])
	if 2*p+1 < len(u.pic) {
		v |= uint64(u.pic[2*p+1]) << 32
	}
	return v
}

// ReadAll copies every counter into dst (allocating when dst is too short),
// forcing any buffered write to complete first. It returns the filled
// slice.
func (u *Unit) ReadAll(dst []uint32) []uint32 {
	if u.pendingWrite {
		u.applyPending()
	}
	u.sync()
	if cap(dst) < len(u.pic) {
		dst = make([]uint32, len(u.pic))
	}
	dst = dst[:len(u.pic)]
	copy(dst, u.pic)
	return dst
}

// WriteAll sets every counter from vals (counters beyond len(vals) are
// zeroed), applying the same strict-mode buffering as WritePair, pair by
// pair: only the final pair's write remains buffered.
func (u *Unit) WriteAll(vals []uint32) {
	for p := 0; 2*p < len(u.pic); p++ {
		var v uint64
		if 2*p < len(vals) {
			v = uint64(vals[2*p])
		}
		if 2*p+1 < len(vals) {
			v |= uint64(vals[2*p+1]) << 32
		}
		u.WritePair(p, v)
	}
}

// Split decomposes a packed pair reading (ReadPair) into its (low, high)
// counters; it is Pack's inverse.
func Split(v uint64) (pic0, pic1 uint32) {
	return uint32(v), uint32(v >> 32)
}

// Pack composes two 32-bit counters into the packed pair representation
// Split inverts.
func Pack(pic0, pic1 uint32) uint64 { return uint64(pic1)<<32 | uint64(pic0) }

// Delta32 computes the number of events between two 32-bit counter
// readings, correctly handling a single wraparound.
func Delta32(before, after uint32) uint32 { return after - before }

// Total returns the 64-bit shadow total for ev (unaffected by PIC writes).
func (u *Unit) Total(ev Event) uint64 {
	u.sync()
	return u.totals[ev]
}

// Totals returns a copy of all shadow totals.
func (u *Unit) Totals() [NumEvents]uint64 {
	u.sync()
	return u.totals
}

// ResetTotals zeroes the shadow totals (PICs are untouched).
func (u *Unit) ResetTotals() {
	u.sync()
	u.totals = [NumEvents]uint64{}
}
