package main

import (
	"fmt"

	"pathprof/internal/instrument"
	"pathprof/internal/pgo"
	"pathprof/internal/ppvet"
	"pathprof/internal/sim"
	"pathprof/internal/tv"
	"pathprof/internal/workload"
)

// optimizeModes are the path and context instrumentation modes every
// optimize op instruments and verifies.
var optimizeModes = []instrument.Mode{
	instrument.ModePathFreq,
	instrument.ModePathHW,
	instrument.ModeContextHW,
	instrument.ModeContextFlow,
	instrument.ModeContextProbesOnly,
}

// optimizeKs are the path degrees each program is acquired at.
var optimizeKs = []int{1, 2}

type optimizeCase struct {
	key string // "program/kN"
	w   workload.Workload
	k   int
}

// optimizeBench drives the profile → optimize loop at Test scale, one op
// per (program, k): build, instrument and verify every path/context
// plan, acquire the profile, optimize and validate every ladder
// candidate, then run the full pgo.RoundTrip.
type optimizeBench struct {
	seed  int64
	tr    *tracer
	ref   *reference
	cfg   sim.Config
	cases []optimizeCase

	// Outputs of the op just run.
	vetFindings int
	tvFindings  int
	rt          *pgo.Result

	observed map[string]optimizeRef
	totals   map[string]float64
	passes   int
}

func newOptimizeBench(seed int64, tr *tracer, ref *reference) *optimizeBench {
	b := &optimizeBench{seed: seed, tr: tr, ref: ref, cfg: sim.DefaultConfig()}
	for _, k := range optimizeKs {
		for _, w := range workload.Suite() {
			b.cases = append(b.cases, optimizeCase{key: fmt.Sprintf("%s/k%d", w.Name, k), w: w, k: k})
		}
	}
	return b
}

// setup warms the loop up on every suite program at k=1: each op builds
// its program, so the set-up is this warm-up pass.
func (b *optimizeBench) setup() error {
	b.observed = map[string]optimizeRef{}
	b.totals = map[string]float64{}
	for i, c := range b.cases {
		if c.k != 1 {
			continue
		}
		if _, err := b.do(i); err != nil {
			return err
		}
		if err := b.verify(i); err != nil {
			return err
		}
	}
	clear(b.totals) // the warm-up is not part of any pass
	b.passes = 0
	return nil
}

func (b *optimizeBench) teardown() {}

func (b *optimizeBench) slots() int { return len(b.cases) }

func (b *optimizeBench) do(i int) (float64, error) {
	c := b.cases[i]
	tr := b.tr
	b.vetFindings, b.tvFindings, b.rt = 0, 0, nil

	s := tr.begin("workload.build")
	prog := c.w.Build(workload.Test)
	tr.end(s, 0)

	for _, mode := range optimizeModes {
		opts := instrument.DefaultOptions(mode)
		if c.k > 1 && mode.UsesPaths() {
			opts.K = c.k
		}
		s = tr.begin("instrument.plan")
		plan, err := instrument.Instrument(prog, opts)
		tr.end(s, 0)
		if err != nil {
			return 0, fmt.Errorf("%s %v: instrument: %w", c.key, mode, err)
		}
		s = tr.begin("ppvet.verify")
		b.vetFindings += len(ppvet.Verify(plan))
		tr.end(s, 0)
	}

	s = tr.begin("pgo.acquire")
	data, err := pgo.AcquireWith(prog, b.cfg, pgo.AcquireOptions{K: c.k})
	tr.end(s, 0)
	if err != nil {
		return 0, fmt.Errorf("%s: acquire: %w", c.key, err)
	}
	for _, cand := range pgo.Ladder(pgo.DefaultOptions()) {
		s = tr.begin("pgo.optimize")
		opt, wit, _, err := pgo.OptimizeTV(prog, data, cand.Opts)
		tr.end(s, 0)
		if err != nil {
			return 0, fmt.Errorf("%s %s: optimize: %w", c.key, cand.Name, err)
		}
		s = tr.begin("tv.validate")
		b.tvFindings += len(tv.Validate(prog, opt, wit))
		tr.end(s, 0)
	}

	s = tr.begin("pgo.roundtrip")
	res, err := pgo.RoundTrip(prog, b.cfg, pgo.DefaultOptions())
	tr.end(s, 0)
	if err != nil {
		return 0, fmt.Errorf("%s: round trip: %w", c.key, err)
	}
	b.rt = res
	return 1, nil
}

// verify requires zero ppvet and tv findings, re-simulates the winning
// program to confirm the cycles RoundTrip reported, and compares the
// outcome with the reference.
func (b *optimizeBench) verify(i int) error {
	c := b.cases[i]
	if b.vetFindings > 0 || b.tvFindings > 0 {
		return fmt.Errorf("%s: %d ppvet and %d tv findings", c.key, b.vetFindings, b.tvFindings)
	}
	res, _, err := simulate(b.tr, b.cfg, b.rt.Optimized, nil, "none")
	if err != nil {
		return fmt.Errorf("%s: re-running the winner: %w", c.key, err)
	}
	if res.Cycles != b.rt.After.Cycles {
		return fmt.Errorf("%s: winner re-runs in %d cycles, RoundTrip reported %d", c.key, res.Cycles, b.rt.After.Cycles)
	}
	countRun(b.totals, res)

	got := optimizeRef{Winner: b.rt.Winner, BeforeCycles: b.rt.Before.Cycles, AfterCycles: b.rt.After.Cycles}
	b.observed[c.key] = got
	if b.ref == nil {
		return nil
	}
	want, ok := b.ref.Optimize[c.key]
	if !ok {
		return fmt.Errorf("%s: no reference entry", c.key)
	}
	if got != want {
		return fmt.Errorf("%s: got %+v, reference %+v", c.key, got, want)
	}
	return nil
}

func (b *optimizeBench) endPass() error {
	b.passes++
	return nil
}

func (b *optimizeBench) finish() (int, int) { return 0, 0 }

// cyclesRatio is the round trip's payoff: winner over original cycles,
// geometric mean over every (program, k).
func (b *optimizeBench) cyclesRatio() float64 {
	var ratios []float64
	for _, c := range b.cases {
		o := b.observed[c.key]
		if o.BeforeCycles > 0 && o.AfterCycles > 0 {
			ratios = append(ratios, float64(o.AfterCycles)/float64(o.BeforeCycles))
		}
	}
	return geomean(ratios)
}

func (b *optimizeBench) layerStats(m metrics) {
	setPerPass(m, b.totals, b.passes)
}
