package sim_test

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"testing"

	"pathprof/internal/cache"
	"pathprof/internal/experiments"
	"pathprof/internal/hpm"
	"pathprof/internal/instrument"
	"pathprof/internal/sim"
	"pathprof/internal/workload"
)

// goldenMachines are the machine variants the simulator golden pins: the
// paper's default machine plus three non-default front/back ends whose
// per-instruction accounting differs (shared issue cycles, an L2 on the
// data path, and a four-counter bank).
var goldenMachines = []struct {
	name string
	cfg  func() sim.Config
}{
	{"default", sim.DefaultConfig},
	{"issue4", func() sim.Config {
		c := sim.DefaultConfig()
		c.IssueWidth = 4
		return c
	}},
	{"l2", func() sim.Config {
		c := sim.DefaultConfig()
		c.L2 = cache.DefaultL2
		c.L2HitPenalty = 2
		return c
	}},
}

// muxSet is the four-event set multiplexed over the classic two-counter
// bank by the "mux" golden rows (two rotation groups).
var muxSet = hpm.NewMetricSet(hpm.EvDCacheMiss, hpm.EvInsts, hpm.EvMispredict, hpm.EvICacheMiss)

// muxQuantum is small enough that every Test-scale workload rotates many
// times.
const muxQuantum = 1000

// fingerprint renders every count a run produces on one line: cycles,
// instructions, all shadow totals, the four Stats fields of each cache,
// the memory footprint and a hash of the output.
func fingerprint(res sim.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cyc=%d ins=%d tot=", res.Cycles, res.Instrs)
	for i, v := range res.Totals {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprint(&b, v)
	}
	for _, c := range []struct {
		name string
		s    cache.Stats
	}{{"l1d", res.L1D}, {"l1i", res.L1I}, {"l2", res.L2}} {
		fmt.Fprintf(&b, " %s=%d/%d/%d/%d", c.name, c.s.ReadHits, c.s.ReadMisses, c.s.WriteHits, c.s.WriteMisses)
	}
	h := fnv.New64a()
	for _, v := range res.Output {
		fmt.Fprintf(h, "%d,", v)
	}
	fmt.Fprintf(&b, " mem=%d out=%016x", res.MemBytes, h.Sum64())
	return b.String()
}

// runGolden simulates one golden case. opts is nil for an uninstrumented
// run; events are selected before the runtime is wired, as the
// experiments do.
func runGolden(t *testing.T, w workload.Workload, cfg sim.Config, opts *instrument.Options, events []hpm.Event) sim.Result {
	t.Helper()
	prog := w.Build(workload.Test)
	var plan *instrument.Plan
	if opts != nil {
		var err error
		if plan, err = instrument.Instrument(prog, *opts); err != nil {
			t.Fatalf("%s: instrument: %v", w.Name, err)
		}
		prog = plan.Prog
	}
	m := sim.New(prog, cfg)
	m.PMU().SelectAll(events)
	if plan != nil {
		plan.Wire(m)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatalf("%s: run: %v", w.Name, err)
	}
	return res
}

// goldenRows simulates every golden case and returns its fingerprint by
// case key ("workload/machine/mode").
func goldenRows(t *testing.T) map[string]string {
	std := experiments.StandardEvents[:]
	modes := []instrument.Mode{instrument.ModeNone, instrument.ModePathHW, instrument.ModeContextHW}
	rows := map[string]string{}
	for _, w := range workload.Suite() {
		for _, mc := range goldenMachines {
			for _, md := range modes {
				var opts *instrument.Options
				if md != instrument.ModeNone {
					o := instrument.DefaultOptions(md)
					opts = &o
				}
				rows[w.Name+"/"+mc.name+"/"+md.String()] = fingerprint(runGolden(t, w, mc.cfg(), opts, std))
			}
		}

		// Counter writes without the confirming read: the buffered-write
		// window loses events, so retire accounting must land in the PICs
		// at exactly the instruction it happens.
		noRAW := instrument.DefaultOptions(instrument.ModePathHW)
		noRAW.ReadAfterWrite = false
		rows[w.Name+"/default/flow+hw-noraw"] = fingerprint(runGolden(t, w, sim.DefaultConfig(), &noRAW, std))

		// A four-counter bank read and written pair by pair.
		wide := sim.DefaultConfig()
		wide.NumCounters = 4
		o4 := instrument.DefaultOptions(instrument.ModePathHW)
		o4.NumCounters = 4
		rows[w.Name+"/k4/flow+hw"] = fingerprint(runGolden(t, w, wide, &o4, muxSet.Events))

		// Multiplexing a four-event set over two counters.
		m := sim.New(w.Build(workload.Test), sim.DefaultConfig())
		sched := m.AttachScheduler(muxSet, muxQuantum)
		res, err := m.Run()
		if err != nil {
			t.Fatalf("%s: mux run: %v", w.Name, err)
		}
		rows[w.Name+"/mux/none"] = fmt.Sprintf("%s raw=%v est=%v", fingerprint(res), sched.Raw(), sched.Estimates())
	}
	return rows
}

// TestSimulatorGolden pins the complete sim.Result of every suite workload
// at Test scale, uninstrumented and under flow+hw and context+hw
// profiling, on the default machine and on non-default machines. Any
// change to a simulated count — a hit, a stall cycle, a PIC value read by
// instrumentation — shows up here. On a mismatch the test logs the whole
// table as computed; paste it over goldenResults only for an intended
// change to the machine model.
func TestSimulatorGolden(t *testing.T) {
	got := goldenRows(t)
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	bad := 0
	for _, k := range keys {
		want, ok := goldenResults[k]
		switch {
		case !ok:
			t.Errorf("%s: no golden recorded", k)
			bad++
		case got[k] != want:
			t.Errorf("%s:\n got  %s\n want %s", k, got[k], want)
			bad++
		}
	}
	if len(goldenResults) != len(got) {
		t.Errorf("golden table has %d rows, the suite produced %d", len(goldenResults), len(got))
		bad++
	}
	if bad > 0 {
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, "\t%q: %q,\n", k, got[k])
		}
		t.Logf("computed table:\n%s", b.String())
	}
}
