// Command perfbench is the repository benchmark. It runs one named
// workload (profile, ingest or optimize) from a seed, checks every output,
// and prints as its last line one JSON object carrying the end-to-end
// metrics — or, with -trace 1, the per-layer metrics derived from spans
// recorded around each call into the pipeline's packages. See README.md.
//
//	go run . -workload profile -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// bench is one workload. Its ops are a fixed, seeded set of slots; every
// pass runs each slot once, in a seeded order. The runner owns timing: it
// calls setup several times (keeping the last), then executes whole
// passes, timing do alone.
type bench interface {
	// setup builds everything the timed ops need and ends with a warm-up.
	setup() error
	// teardown releases what setup built.
	teardown()
	// slots is the number of distinct ops in a pass.
	slots() int
	// do executes the op in slot s; only this call is timed. Its work is
	// the same every time the slot runs.
	do(s int) (work float64, err error)
	// verify checks slot s's outputs once timing has stopped. In traced
	// runs it may also make shadow measurements of the op's layers.
	verify(s int) error
	// endPass runs untimed maintenance between passes.
	endPass() error
	// finish runs the post-run checks and reports how many were made and
	// how many failed.
	finish() (checks, failed int)
	// cyclesRatio is the workload's simulated cycle ratio (see README).
	cyclesRatio() float64
	// layerStats sets the per-layer metrics the workload counts itself
	// rather than deriving from spans (see benchStats).
	layerStats(m metrics)
}

const (
	// minPasses is how many passes an untraced run makes at least, so
	// every slot's best time is the least of at least two.
	minPasses = 2
	// maxSeconds stops a run after two passes once it has measured this
	// long, so a slowed host cannot push it past its time limit.
	maxSeconds = 70
	// setupReps is how many times setup runs; setup_s is the fastest.
	setupReps = 9
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// segment is one measured stretch of whole passes.
type segment struct {
	best              []time.Duration // per slot, fastest successful run; 0 if none
	work              []float64       // per slot
	attempted, failed int
	passes            int
	liveHeap          uint64 // bytes live after the first pass
}

type runner struct {
	b      bench
	seed   int64
	tr     *tracer
	log    io.Writer
	pass   int
	nextOp int32
}

// passOrder is pass p's op order: a seeded permutation of the n slots.
func passOrder(seed int64, pass, n int) []int {
	return rand.New(rand.NewPCG(uint64(seed), uint64(pass))).Perm(n)
}

// measure executes whole passes until at least leastPasses have run and
// seconds have elapsed, or exactly passes passes when that is positive.
// Every pass runs each slot once, so the op mix does not depend on how
// many passes fit. Each slot keeps its fastest time: interference from
// outside the process only ever adds time, so the least of several runs
// of the same work is the steadiest estimate of its cost.
func (r *runner) measure(seconds float64, leastPasses, passes int) segment {
	n := r.b.slots()
	seg := segment{best: make([]time.Duration, n), work: make([]float64, n)}
	start := time.Now()
	done := func() bool {
		if passes > 0 {
			return seg.passes >= passes
		}
		elapsed := time.Since(start).Seconds()
		return seg.passes >= leastPasses && elapsed >= seconds || seg.passes >= 2 && elapsed >= maxSeconds
	}
	for !done() {
		order := passOrder(r.seed, r.pass, n)
		r.pass++
		for _, s := range order {
			r.tr.op = r.nextOp
			r.nextOp++
			root := r.tr.begin("bench.op")
			t0 := time.Now()
			w, err := r.b.do(s)
			d := time.Since(t0)
			r.tr.end(root, 0)
			if err == nil {
				err = r.b.verify(s)
			}
			seg.attempted++
			if err != nil {
				seg.failed++
				if seg.failed <= 5 {
					fmt.Fprintf(r.log, "perfbench: slot %d in pass %d: %v\n", s, r.pass-1, err)
				}
				continue
			}
			if seg.best[s] == 0 || d < seg.best[s] {
				seg.best[s] = d
			}
			seg.work[s] = w
		}
		r.tr.op = -1
		if err := r.b.endPass(); err != nil {
			seg.attempted++
			seg.failed++
			fmt.Fprintf(r.log, "perfbench: end of pass %d: %v\n", r.pass-1, err)
		}
		seg.passes++
		if seg.passes == 1 {
			seg.liveHeap = liveHeapBytes()
		}
	}
	return seg
}

// latencies is the best time of every slot that succeeded.
func (seg segment) latencies() []time.Duration {
	var out []time.Duration
	for _, d := range seg.best {
		if d > 0 {
			out = append(out, d)
		}
	}
	return out
}

// workPerSecond is the work of one pass over the sum of the slots' best
// times, counting only slots that succeeded.
func (seg segment) workPerSecond() float64 {
	var work float64
	var busy time.Duration
	for s, d := range seg.best {
		if d > 0 {
			work += seg.work[s]
			busy += d
		}
	}
	return work / busy.Seconds()
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	gitSHA   string
	passes   int // >0 runs exactly this many passes (tests)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	var writeRef string
	fs.StringVar(&o.workload, "workload", "", "workload to run: profile, ingest or optimize")
	fs.Int64Var(&o.seed, "seed", 1, "seed for the op order and the ingest stream")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long to measure (whole passes, at least two)")
	fs.IntVar(&trace, "trace", 0, "1 records spans and prints the per-layer metrics")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "out"), "directory for stores, spans and result files")
	fs.StringVar(&o.gitSHA, "git-sha", "unknown", "commit the binary was built from, for the result stamp")
	fs.StringVar(&writeRef, "write-reference", "", "regenerate the reference table into this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	o.trace = trace == 1
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if writeRef != "" {
		if err := writeReference(writeRef); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	out, err := execute(o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res := out.res
	res.Metrics = out.e2e
	if o.trace {
		res.Metrics = out.layers
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	stampLine, _ := json.Marshal(map[string]any{"stamp": out.stamp})
	record, _ := json.MarshalIndent(map[string]any{
		"stamp": out.stamp, "result": res, "end_to_end": out.e2e, "per_layer": out.layers,
	}, "", "  ")
	name := fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, trace)
	if err := os.WriteFile(filepath.Join(o.out, name), record, 0o644); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(stampLine))
	fmt.Fprintln(stdout, string(line))
	return 0
}

func newBench(o options, tr *tracer) (bench, error) {
	ref, err := loadReference()
	if err != nil {
		return nil, err
	}
	switch o.workload {
	case "profile":
		return newProfileBench(o.seed, tr, ref), nil
	case "ingest":
		return newIngestBench(o.seed, tr, o.out), nil
	case "optimize":
		return newOptimizeBench(o.seed, tr, ref), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want profile, ingest or optimize)", o.workload)
}

// outcome is one run: its op counts, the end-to-end metrics of the
// untraced segment, the per-layer metrics of the traced one (nil when not
// traced) and the stamp.
type outcome struct {
	res    result
	e2e    metrics
	layers metrics
	stamp  map[string]any
}

// execute runs one workload: set-up several times, then an untraced
// segment, or — when tracing — an untraced and a traced segment sharing
// the run's time.
func execute(o options, log io.Writer) (outcome, error) {
	tr := newTracer()
	b, err := newBench(o, tr)
	if err != nil {
		return outcome{}, err
	}
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		if rep > 0 {
			b.teardown()
		}
		tr.on = o.trace && rep == setupReps-1
		runtime.GC()
		t0 := time.Now()
		if err := b.setup(); err != nil {
			b.teardown()
			return outcome{}, fmt.Errorf("%s set-up: %w", o.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer b.teardown()

	r := &runner{b: b, seed: o.seed, tr: tr, log: log}
	tr.on = false
	if !o.trace {
		plain := r.measure(o.seconds, minPasses, o.passes)
		return r.finish(o, b, setups, plain, segment{})
	}
	// A traced run splits its time between an untraced and a traced
	// segment of at least one pass each, so it takes about as long as an
	// untraced run; its percentiles serve only the overhead comparison.
	plain := r.measure(o.seconds/2, 1, o.passes)
	tr.on = true
	traced := r.measure(o.seconds/2, 1, o.passes)
	tr.on = false
	return r.finish(o, b, setups, plain, traced)
}

// finish runs the post-run checks and assembles the outcome.
func (r *runner) finish(o options, b bench, setups []float64, plain, traced segment) (outcome, error) {
	tr := r.tr
	checks, checkFailed := b.finish()

	var res result
	for _, seg := range []segment{plain, traced} {
		res.Attempted += seg.attempted
		res.Failed += seg.failed
	}
	res.Attempted += checks
	res.Failed += checkFailed
	res.Correct = res.Failed == 0

	e2e := metrics{}
	lat := plain.latencies()
	e2e.set("setup_s", slices.Min(setups), "s")
	e2e.set("work_per_s", plain.workPerSecond(), "1/s")
	e2e.set("op_p50_ms", quantile(lat, 0.5), "ms")
	e2e.set("op_p90_ms", quantile(lat, 0.9), "ms")
	e2e.set("live_heap_mb", float64(plain.liveHeap)/(1<<20), "MB")
	e2e.set("ok_ratio", float64(res.Attempted-res.Failed)/float64(res.Attempted), "ratio")
	e2e.set("cycles_ratio", b.cyclesRatio(), "ratio")
	var layers metrics
	if o.trace {
		layers = metrics{}
		perLayer(layers, b, tr.summarize(), plain, traced)
		if err := tr.write(filepath.Join(o.out, fmt.Sprintf("%s-seed%d.spans.csv", o.workload, o.seed))); err != nil {
			return outcome{}, err
		}
	}
	stamp := map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"trace":      o.trace,
		"seconds":    o.seconds,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go_version": runtime.Version(),
		"git_sha":    o.gitSHA,
		"store_fs":   fsType(o.out),
		"passes":     plain.passes + traced.passes,
		"ops":        plain.attempted + traced.attempted,
		"setup_s":    setups,
		// Informational: the process's peak RSS varies with GC pacing
		// (see README), so it is recorded but not a gated metric.
		"peak_rss_mb": peakRSSMB(),
	}
	return outcome{res: res, e2e: e2e, layers: layers, stamp: stamp}, nil
}

// spanMetrics are the per-layer metrics derived from spans, by span name.
// A workload that never calls a layer reports 0 for it.
var spanMetrics = []struct {
	name, unit string
	value      func(summary) float64
}{
	{"sim.ns_per_instr", "ns/instr", func(s summary) float64 { return s.agg("sim.run").nsPerUnit() }},
	{"sim.ns_per_instr.none", "ns/instr", func(s summary) float64 { return s.agg("sim.run.none").nsPerUnit() }},
	{"sim.ns_per_instr.flow_hw", "ns/instr", func(s summary) float64 { return s.agg("sim.run.flow_hw").nsPerUnit() }},
	{"sim.ns_per_instr.context_hw", "ns/instr", func(s summary) float64 { return s.agg("sim.run.context_hw").nsPerUnit() }},
	{"sim.new_us", "us", func(s summary) float64 { return s.agg("sim.new").meanUs() }},
	{"workload.build_us", "us", func(s summary) float64 { return s.aggOrSetup("workload.build").meanUs() }},
	{"instrument.plan_us", "us", func(s summary) float64 { return s.aggOrSetup("instrument.plan").meanUs() }},
	{"ppvet.verify_us_per_plan", "us", func(s summary) float64 { return s.aggOrSetup("ppvet.verify").meanUs() }},
	{"instrument.extract_us", "us", func(s summary) float64 { return s.agg("instrument.extract").meanUs() }},
	{"cct.export_us", "us", func(s summary) float64 { return s.agg("cct.export").meanUs() }},
	{"pgo.acquire_ms", "ms", func(s summary) float64 { return s.agg("pgo.acquire").meanUs() / 1e3 }},
	{"pgo.optimize_us_per_candidate", "us", func(s summary) float64 { return s.agg("pgo.optimize").meanUs() }},
	{"tv.validate_us_per_rewrite", "us", func(s summary) float64 { return s.agg("tv.validate").meanUs() }},
	{"pgo.roundtrip_ms", "ms", func(s summary) float64 { return s.agg("pgo.roundtrip").meanUs() / 1e3 }},
	{"wire.encode_ns_per_env", "ns", func(s summary) float64 { return s.agg("wire.encode").nsPerUnit() }},
	{"wire.decode_ns_per_env", "ns", func(s summary) float64 { return s.agg("wire.decode").nsPerUnit() }},
	{"collector.fold_ns_per_env", "ns", func(s summary) float64 { return s.agg("collector.fold").nsPerUnit() }},
	{"collector.push_us", "us", func(s summary) float64 { return s.agg("collector.push").meanUs() }},
	// What a frame push costs beyond the fold, which includes the decode:
	// HTTP, the body read and the ack.
	{"collector.http_us", "us", func(s summary) float64 {
		fold := s.agg("collector.fold")
		if fold.count == 0 {
			return 0
		}
		return s.agg("collector.push.frame").meanUs() - fold.meanUs()
	}},
	{"collector.query_ms", "ms", func(s summary) float64 { return s.agg("collector.query").meanUs() / 1e3 }},
	{"report.render_ms", "ms", func(s summary) float64 { return s.agg("report.render").meanUs() / 1e3 }},
	{"store.append_us", "us", func(s summary) float64 { return s.agg("store.append").meanUs() }},
}

// benchStats are the per-layer metrics workloads count themselves: the
// deterministic per-pass simulation counts and the collector and store
// counters. A workload without the layer reports 0.
var benchStats = []struct{ name, unit string }{
	{"sim.instrs", "count"},
	{"sim.cycles", "count"},
	{"cache.l1d_misses", "count"},
	{"cache.l1i_misses", "count"},
	{"branch.mispredicts", "count"},
	{"cct.nodes", "count"},
	{"wire.bytes_per_env", "B"},
	{"collector.rejected_ratio", "ratio"},
	{"store.fsync_us_mean", "us"},
	{"store.appends_per_fsync", "count"},
}

// perLayer fills the traced run's metrics: the span-derived layer
// metrics, the workload's own counts, each layer's share of op time spent
// in its own code, and the tracing overhead against the untraced segment
// of the same run.
func perLayer(m metrics, b bench, s summary, plain, traced segment) {
	for _, sm := range spanMetrics {
		m.set(sm.name, sm.value(s), sm.unit)
	}
	for _, bs := range benchStats {
		m.set(bs.name, 0, bs.unit)
	}
	b.layerStats(m)
	for _, name := range layerNames {
		share := 0.0
		if s.opNs > 0 {
			share = 100 * float64(s.self[name]) / float64(s.opNs)
		}
		m.set("self."+name+"_pct", share, "%")
	}
	p50, tp50 := quantile(plain.latencies(), 0.5), quantile(traced.latencies(), 0.5)
	m.set("trace.op_p50_ms_untraced", p50, "ms")
	m.set("trace.op_p50_ms_traced", tp50, "ms")
	m.set("trace.overhead_pct", 100*(tp50-p50)/p50, "%")
	spansPerOp := 0.0
	if s.ops > 0 {
		spansPerOp = float64(s.spans) / float64(s.ops)
	}
	m.set("trace.spans_per_op", spansPerOp, "count")
}

// layerNames are the layers whose self time is reported, by package name;
// "bench" is the benchmark's own glue between calls.
var layerNames = []string{"bench", "workload", "instrument", "ppvet", "sim", "cct", "wire", "collector", "store", "report", "pgo", "tv"}

// liveHeapBytes forces full collections and returns the bytes still
// reachable: the state the workload retains, independent of GC pacing.
// The second collection drops what sync.Pools kept through the first.
func liveHeapBytes() uint64 {
	runtime.GC()
	runtime.GC()
	s := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	rtmetrics.Read(s)
	if s[0].Value.Kind() != rtmetrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

// fsType names the filesystem holding dir, for the result stamp.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}
