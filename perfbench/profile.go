package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"pathprof/internal/hpm"
	"pathprof/internal/instrument"
	"pathprof/internal/ir"
	"pathprof/internal/ppvet"
	"pathprof/internal/profile"
	"pathprof/internal/sim"
	"pathprof/internal/wire"
	"pathprof/internal/workload"
)

// profileModes are the Table 1 configurations the profile workload runs:
// the uninstrumented baseline and the two counter-reading profilers.
var profileModes = []struct {
	label string
	mode  instrument.Mode
}{
	{"none", instrument.ModeNone},
	{"flow_hw", instrument.ModePathHW},
	{"context_hw", instrument.ModeContextHW},
}

// profileScale is the input size the profile workload runs. At Ref scale
// an op simulates for hundreds of milliseconds, long enough to average
// over the bursts of interference a shared host suffers, so each op's best
// of the two passes that fit in a run moved with the host's load: ten seeds
// spread 18–20% on every timing. Test-scale ops take milliseconds, a run
// repeats each over a hundred times, and the best of them spread 3–6%.
const profileScale = workload.Test

type profileCase struct {
	key     string // "program/mode"
	program string
	label   string
	mode    instrument.Mode
	prog    *ir.Program      // the program as built
	plan    *instrument.Plan // nil for the uninstrumented baseline
}

// profileBench runs every suite program in every profile mode, one op per
// (program, mode): wire a fresh machine, run it, extract the path profile
// or CCT export, and encode it as a wire-v3 frame.
type profileBench struct {
	seed  int64
	tr    *tracer
	ref   *reference // nil while recording the reference
	suite []workload.Workload
	cfg   sim.Config

	cases []profileCase
	bw    *wire.BatchWriter

	// Outputs of the op just run.
	res   sim.Result
	prof  *profile.Profile
	nodes int
	frame []byte

	observed map[string]profileRef
	totals   map[string]float64
	passes   int
	frames   int
	bytes    int
}

func newProfileBench(seed int64, tr *tracer, ref *reference) *profileBench {
	return &profileBench{seed: seed, tr: tr, ref: ref, suite: workload.Suite(), cfg: sim.DefaultConfig()}
}

func (b *profileBench) setup() error {
	b.cases = b.cases[:0]
	b.bw = wire.NewBatchWriter()
	b.observed = map[string]profileRef{}
	b.totals = map[string]float64{}
	for _, w := range b.suite {
		s := b.tr.begin("workload.build")
		prog := w.Build(profileScale)
		b.tr.end(s, 0)
		for _, md := range profileModes {
			c := profileCase{key: w.Name + "/" + md.label, program: w.Name, label: md.label, mode: md.mode, prog: prog}
			if md.mode != instrument.ModeNone {
				s := b.tr.begin("instrument.plan")
				plan, err := instrument.Instrument(prog, instrument.DefaultOptions(md.mode))
				b.tr.end(s, 0)
				if err != nil {
					return fmt.Errorf("%s: instrument: %w", c.key, err)
				}
				s = b.tr.begin("ppvet.verify")
				findings := ppvet.Verify(plan)
				b.tr.end(s, 0)
				if len(findings) > 0 {
					return fmt.Errorf("%s: ppvet: %d findings, first: %v", c.key, len(findings), findings[0])
				}
				c.plan = plan
			}
			b.cases = append(b.cases, c)
		}
	}
	// Warm up on every case once.
	for i := range b.cases {
		if _, err := b.do(i); err != nil {
			return err
		}
		if err := b.verify(i); err != nil {
			return err
		}
	}
	clear(b.totals) // the warm-up is not part of any pass
	b.passes, b.frames, b.bytes = 0, 0, 0
	return nil
}

func (b *profileBench) teardown() {}

func (b *profileBench) slots() int { return len(b.cases) }

func (b *profileBench) do(i int) (float64, error) {
	c := &b.cases[i]
	b.prof, b.nodes, b.frame = nil, 0, nil
	tr := b.tr

	res, rt, err := simulate(tr, b.cfg, c.prog, c.plan, c.label)
	if err != nil {
		return 0, fmt.Errorf("%s: run: %w", c.key, err)
	}
	b.res = res

	var s int32
	switch c.mode {
	case instrument.ModePathHW:
		s = tr.begin("instrument.extract")
		b.prof = rt.ExtractProfile()
		tr.end(s, 0)
		s = tr.begin("wire.encode")
		b.bw.Reset()
		err = b.bw.AddProfile(b.prof)
		b.frame = b.bw.Frame()
		tr.end(s, 1)
	case instrument.ModeContextHW:
		s = tr.begin("cct.export")
		ex := rt.Tree.Export(c.program)
		b.nodes = ex.NumNodes()
		tr.end(s, int64(b.nodes))
		s = tr.begin("wire.encode")
		b.bw.Reset()
		err = b.bw.AddExport(ex)
		b.frame = b.bw.Frame()
		tr.end(s, 1)
	}
	if err != nil {
		return 0, fmt.Errorf("%s: encode: %w", c.key, err)
	}
	return float64(res.Instrs), nil
}

// verify compares the op's counts and frame digest with the reference and
// checks that the per-path metric sums fit within the machine's totals.
func (b *profileBench) verify(i int) error {
	c := &b.cases[i]
	res := b.res
	got := profileRef{
		Instrs:      res.Instrs,
		Cycles:      res.Cycles,
		L1DMisses:   res.L1D.Misses(),
		L1IMisses:   res.L1I.Misses(),
		Mispredicts: res.Totals[hpm.EvMispredict],
	}
	if b.frame != nil {
		sum := sha256.Sum256(b.frame)
		got.Frame = hex.EncodeToString(sum[:])
		b.frames++
		b.bytes += len(b.frame)
	}
	b.observed[c.key] = got
	countRun(b.totals, res)
	b.totals["cct.nodes"] += float64(b.nodes)

	if b.prof != nil {
		_, sums := b.prof.Totals()
		for k, name := range b.prof.Events {
			ev, ok := hpm.EventByName(name)
			if !ok {
				return fmt.Errorf("%s: profile names unknown event %q", c.key, name)
			}
			if sums[k] > res.Totals[ev] {
				return fmt.Errorf("%s: paths sum %d %s, machine counted %d", c.key, sums[k], name, res.Totals[ev])
			}
		}
	}
	if b.ref == nil {
		return nil
	}
	want, ok := b.ref.Profile[c.key]
	if !ok {
		return fmt.Errorf("%s: no reference entry", c.key)
	}
	if got != want {
		return fmt.Errorf("%s: got %+v, reference %+v", c.key, got, want)
	}
	return nil
}

func (b *profileBench) endPass() error {
	b.passes++
	return nil
}

func (b *profileBench) finish() (int, int) { return 0, 0 }

// cyclesRatio is the paper's Table 1 overhead: instrumented over
// uninstrumented cycles, geometric mean over every (program, profiler).
func (b *profileBench) cyclesRatio() float64 {
	var ratios []float64
	for _, w := range b.suite {
		base := b.observed[w.Name+"/none"].Cycles
		for _, md := range profileModes[1:] {
			if c := b.observed[w.Name+"/"+md.label].Cycles; base > 0 && c > 0 {
				ratios = append(ratios, float64(c)/float64(base))
			}
		}
	}
	return geomean(ratios)
}

func (b *profileBench) layerStats(m metrics) {
	setPerPass(m, b.totals, b.passes)
	if b.frames > 0 {
		m.set("wire.bytes_per_env", float64(b.bytes)/float64(b.frames), "B")
	}
}
