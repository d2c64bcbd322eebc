package main

import (
	"pathprof/internal/experiments"
	"pathprof/internal/hpm"
	"pathprof/internal/instrument"
	"pathprof/internal/ir"
	"pathprof/internal/sim"
)

// simulate runs prog — or, when plan is non-nil, plan's instrumented
// program with its runtime wired — on a fresh machine counting the
// paper's standard events, under spans "sim.new" (sim.New + Plan.Wire)
// and "sim.run.<label>" (Machine.Run, N = simulated instructions).
func simulate(tr *tracer, cfg sim.Config, prog *ir.Program, plan *instrument.Plan, label string) (sim.Result, *instrument.Runtime, error) {
	s := tr.begin("sim.new")
	if plan != nil {
		prog = plan.Prog
	}
	m := sim.New(prog, cfg)
	m.PMU().Select(experiments.StandardEvents[0], experiments.StandardEvents[1])
	var rt *instrument.Runtime
	if plan != nil {
		rt = plan.Wire(m)
	}
	tr.end(s, 0)
	s = tr.begin("sim.run." + label)
	res, err := m.Run()
	tr.end(s, int64(res.Instrs))
	return res, rt, err
}

// countRun adds a run's deterministic counts to per-layer totals.
func countRun(totals map[string]float64, res sim.Result) {
	totals["sim.instrs"] += float64(res.Instrs)
	totals["sim.cycles"] += float64(res.Cycles)
	totals["cache.l1d_misses"] += float64(res.L1D.Misses())
	totals["cache.l1i_misses"] += float64(res.L1I.Misses())
	totals["branch.mispredicts"] += float64(res.Totals[hpm.EvMispredict])
}

// setPerPass reports totals summed over passes as per-pass counts, which
// repeat exactly because every pass runs the same ops.
func setPerPass(m metrics, totals map[string]float64, passes int) {
	for name, v := range totals {
		m.set(name, v/float64(max(passes, 1)), "count")
	}
}
