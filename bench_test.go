package pathprof

// The benchmark harness: one benchmark per paper table (regenerating its
// rows at test scale), per-workload simulation and instrumentation
// benchmarks, micro-benchmarks for the core data structures, and ablation
// benchmarks for the design choices called out in DESIGN.md. Simulated
// quantities (cycles of overhead, bytes of CCT) are reported as custom
// benchmark metrics so `go test -bench` output doubles as an experiment
// log.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"pathprof/internal/bl"
	"pathprof/internal/cache"
	"pathprof/internal/cct"
	"pathprof/internal/collector"
	"pathprof/internal/experiments"
	"pathprof/internal/flat"
	"pathprof/internal/hpm"
	"pathprof/internal/instrument"
	"pathprof/internal/ir"
	"pathprof/internal/mem"
	"pathprof/internal/profile"
	"pathprof/internal/sim"
	"pathprof/internal/wire"
	"pathprof/internal/workload"
)

// --- benchmark result log ---

// benchRecord is one benchmark's summary for BENCH_experiments.json.
type benchRecord struct {
	Name    string             `json:"name"`
	N       int                `json:"n"`
	NsPerOp float64            `json:"ns_per_op"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

var benchLog struct {
	mu   sync.Mutex
	recs []benchRecord
}

// recordBench logs a finished benchmark; TestMain writes the accumulated
// records to BENCH_experiments.json so `go test -bench` output doubles as
// a machine-readable experiment log.
func recordBench(b *testing.B, metrics map[string]float64) {
	if b.N == 0 {
		return
	}
	rec := benchRecord{
		Name:    b.Name(),
		N:       b.N,
		NsPerOp: float64(b.Elapsed().Nanoseconds()) / float64(b.N),
		Metrics: metrics,
	}
	benchLog.mu.Lock()
	defer benchLog.mu.Unlock()
	// The harness re-runs a benchmark with growing b.N while calibrating;
	// keep only the final (largest-N) measurement per name.
	for i, r := range benchLog.recs {
		if r.Name == rec.Name {
			if rec.N >= r.N {
				benchLog.recs[i] = rec
			}
			return
		}
	}
	benchLog.recs = append(benchLog.recs, rec)
}

func TestMain(m *testing.M) {
	code := m.Run()
	benchLog.mu.Lock()
	recs := benchLog.recs
	benchLog.mu.Unlock()
	// A -benchtime=1x run only compile-checks the benchmarks; its
	// single-iteration figures must not overwrite the recorded logs.
	if f := flag.Lookup("test.benchtime"); f != nil && f.Value.String() == "1x" {
		recs = nil
	}
	if code == 0 && len(recs) > 0 {
		// CCT micro-benchmarks and the wire codec/ingest benchmarks each
		// get their own log so the runtime fast path and the collection
		// tier can be tracked release to release without diffing against
		// the table-regeneration benchmarks. The Wire match runs first:
		// BenchmarkWireEncodeCCT and friends belong to the wire log.
		var cctRecs, wireRecs, ingestRecs, storeRecs, expRecs []benchRecord
		for _, r := range recs {
			switch {
			case strings.Contains(r.Name, "Store"):
				storeRecs = append(storeRecs, r)
			case strings.Contains(r.Name, "Wire"):
				wireRecs = append(wireRecs, r)
			case strings.Contains(r.Name, "Ingest"):
				ingestRecs = append(ingestRecs, r)
			case strings.Contains(r.Name, "CCT"):
				cctRecs = append(cctRecs, r)
			default:
				expRecs = append(expRecs, r)
			}
		}
		if err := writeBenchLog("BENCH_experiments.json", expRecs); err != nil {
			code = 1
		}
		if err := writeBenchLog("BENCH_cct.json", cctRecs); err != nil {
			code = 1
		}
		if err := writeBenchLog("BENCH_wire.json", wireRecs); err != nil {
			code = 1
		}
		if err := writeBenchLog("BENCH_ingest.json", ingestRecs); err != nil {
			code = 1
		}
		if err := writeBenchLog("BENCH_store.json", storeRecs); err != nil {
			code = 1
		}
	}
	os.Exit(code)
}

// writeBenchLog writes one benchmark log file (BENCH_experiments.json
// schema). An empty record set leaves the existing file untouched so a
// filtered `go test -bench` run doesn't wipe the other log.
func writeBenchLog(path string, recs []benchRecord) error {
	if len(recs) == 0 {
		return nil
	}
	out := struct {
		GoMaxProcs int           `json:"gomaxprocs"`
		Benchmarks []benchRecord `json:"benchmarks"`
	}{runtime.GOMAXPROCS(0), recs}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return os.WriteFile(path, data, 0o644)
}

// --- Tables 1-5 ---

func BenchmarkTable1Overhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSession(workload.Test)
		rows, err := s.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			experiments.RenderTable1(rows, io.Discard)
			var fhw, chw, cfl float64
			for _, r := range rows {
				f, c, cf := r.Overheads()
				fhw += f
				chw += c
				cfl += cf
			}
			n := float64(len(rows))
			b.ReportMetric(fhw/n, "flowhw-x")
			b.ReportMetric(chw/n, "ctxhw-x")
			b.ReportMetric(cfl/n, "ctxflow-x")
		}
	}
	recordBench(b, nil)
}

func BenchmarkTable2Perturbation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSession(workload.Test)
		rows, err := s.Table2()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			experiments.RenderTable2(rows, io.Discard)
			var f, c float64
			for _, r := range rows {
				f += r.F[0] // cycles ratio
				c += r.C[0]
			}
			b.ReportMetric(f/float64(len(rows)), "cyclesF-ratio")
			b.ReportMetric(c/float64(len(rows)), "cyclesC-ratio")
		}
	}
}

func BenchmarkTable3CCTStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSession(workload.Test)
		rows, err := s.Table3()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			experiments.RenderTable3(rows, io.Discard)
			var nodes, bytes float64
			for _, r := range rows {
				nodes += float64(r.Stats.Nodes)
				bytes += float64(r.Stats.SizeBytes)
			}
			b.ReportMetric(nodes, "cct-nodes-total")
			b.ReportMetric(bytes, "cct-bytes-total")
		}
	}
}

func BenchmarkTable4HotPaths(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSession(workload.Test)
		rows, err := s.Table4()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			experiments.RenderTable4(rows, io.Discard)
			var hot, cover float64
			for _, r := range rows {
				hot += float64(r.Std.Hot.Num)
				cover += r.Std.Hot.MissFrac(r.Std.TotalMisses)
			}
			b.ReportMetric(hot/float64(len(rows)), "hot-paths-avg")
			b.ReportMetric(100*cover/float64(len(rows)), "hot-miss-%-avg")
		}
	}
}

func BenchmarkTable5HotProcs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSession(workload.Test)
		rows, err := s.Table5()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			experiments.RenderTable5(rows, io.Discard)
			var hotPaths, coldPaths float64
			n := 0
			for _, r := range rows {
				if r.Hot.Num > 0 && r.Cold.Num > 0 {
					hotPaths += r.Hot.PathsPerProc
					coldPaths += r.Cold.PathsPerProc
					n++
				}
			}
			if n > 0 && coldPaths > 0 {
				b.ReportMetric(hotPaths/coldPaths, "hot/cold-paths-per-proc")
			}
		}
	}
}

// --- simulation throughput per workload ---

// BenchmarkSimulate times uninstrumented Test-scale runs of every workload
// on the default machine; ns/sim-instr is host time per simulated
// instruction.
func BenchmarkSimulate(b *testing.B) {
	for _, w := range workload.Suite() {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			prog := w.Build(workload.Test)
			b.ResetTimer()
			var instrs uint64
			for i := 0; i < b.N; i++ {
				m := sim.New(prog, sim.DefaultConfig())
				res, err := m.Run()
				if err != nil {
					b.Fatal(err)
				}
				instrs = res.Instrs
			}
			nsPerInstr := float64(b.Elapsed().Nanoseconds()) / float64(uint64(b.N)*instrs)
			b.ReportMetric(float64(instrs), "sim-instrs")
			b.ReportMetric(nsPerInstr, "ns/sim-instr")
			recordBench(b, map[string]float64{"sim-instrs": float64(instrs), "ns/sim-instr": nsPerInstr})
		})
	}
}

// BenchmarkInstrument measures the static rewriting cost per mode on the
// largest workload.
func BenchmarkInstrument(b *testing.B) {
	modes := map[string]instrument.Mode{
		"edge":    instrument.ModeEdgeCount,
		"path":    instrument.ModePathFreq,
		"pathhw":  instrument.ModePathHW,
		"ctxhw":   instrument.ModeContextHW,
		"ctxflow": instrument.ModeContextFlow,
	}
	prog, _ := workload.ByName("compiler")
	p := prog.Build(workload.Test)
	for name, mode := range modes {
		mode := mode
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := instrument.Instrument(p, instrument.DefaultOptions(mode)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- core data structure micro-benchmarks ---

func BenchmarkPathNumbering(b *testing.B) {
	w, _ := workload.ByName("compiler")
	plan, err := instrument.Instrument(w.Build(workload.Test), instrument.DefaultOptions(instrument.ModePathFreq))
	if err != nil {
		b.Fatal(err)
	}
	procs := plan.Prog.Procs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := procs[i%len(procs)]
		if _, err := bl.New(p); err != nil {
			// Entry-split procs only; instrumented CFGs qualify.
			b.Fatal(err)
		}
	}
}

func BenchmarkPathRegeneration(b *testing.B) {
	w, _ := workload.ByName("searcher")
	plan, err := instrument.Instrument(w.Build(workload.Test), instrument.DefaultOptions(instrument.ModePathFreq))
	if err != nil {
		b.Fatal(err)
	}
	var nm *bl.Numbering
	for _, pp := range plan.Procs {
		if pp.Numbering != nil && (nm == nil || pp.Numbering.NumPaths > nm.NumPaths) {
			nm = pp.Numbering
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nm.Regenerate(int64(i) % nm.NumPaths); err != nil {
			b.Fatal(err)
		}
	}
}

// cctOp is one precomputed step of the CCT maintenance benchmarks: an
// AtCall+Enter (optionally followed by an Exit), or a bare Exit on the tail
// that rebalances the sequence so replaying it keeps the activation depth
// consistent across wraps.
type cctOp struct {
	site, proc int32
	enter      bool
	exit       bool
}

// cctOpSequence generates the benchmark call/return stream (the same
// distribution BenchmarkCCTEnterExit always used), padded so the shadow
// stack returns to its starting depth at the end — replaying the sequence
// in a loop then revisits only existing records (steady state).
func cctOpSequence(n int) []cctOp {
	rng := rand.New(rand.NewSource(1))
	ops := make([]cctOp, 0, n+8)
	depth := 1 // root
	for len(ops) < n {
		o := cctOp{site: int32(rng.Intn(4)), proc: int32(rng.Intn(8)), enter: true}
		depth++
		if depth > 6 || rng.Intn(3) == 0 {
			o.exit = true
			depth--
		}
		ops = append(ops, o)
	}
	for depth > 1 {
		ops = append(ops, cctOp{exit: true})
		depth--
	}
	return ops
}

// newBenchTree builds the 8-procedure tree the CCT micro-benchmarks share,
// with the classic metric layout (invocations + two counters).
func newBenchTree() *cct.Tree { return newBenchTreeN(3) }

// newBenchTreeN is newBenchTree with an explicit per-record metric count
// (1 + the number of hardware counters the schema names).
func newBenchTreeN(numMetrics int) *cct.Tree {
	procs := make([]cct.ProcInfo, 8)
	for i := range procs {
		procs[i] = cct.ProcInfo{Name: "p", NumSites: 4, NumPaths: 8}
	}
	return cct.New(procs, cct.Options{DistinguishCallSites: true, NumMetrics: numMetrics}, 0)
}

// playCCTOps replays the sequence once from index j, returning the next
// index (callers loop it across b.N without a modulo in the hot path).
func playCCTOps(tree *cct.Tree, ops []cctOp, j int) int {
	o := ops[j]
	if o.enter {
		tree.AtCall(int(o.site), cct.NoPrefix, nil)
		tree.Enter(int(o.proc), nil)
	}
	if o.exit {
		tree.Exit(nil)
	}
	j++
	if j == len(ops) {
		j = 0
	}
	return j
}

// BenchmarkCCTEnterExit measures steady-state CCT maintenance: the call
// stream is precomputed and the tree pre-warmed, so the timed loop is pure
// slot lookups, move-to-front scans and shadow-stack pushes — the paper's
// "few instructions per call" budget. N is the metric-schema width (record
// metrics are 1+N); the record size grows with N but the maintenance path
// never touches the metric slots, so each variant must stay 0 allocs/op
// (ci.sh asserts the classic N=2 row).
func BenchmarkCCTEnterExit(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			tree := newBenchTreeN(1 + n)
			ops := cctOpSequence(1 << 16)
			for j := 0; j != len(ops)-1; {
				j = playCCTOps(tree, ops, j) // warm: build every record once
			}
			playCCTOps(tree, ops, len(ops)-1)
			b.ReportAllocs()
			b.ResetTimer()
			// The op dispatch is inlined here (rather than calling
			// playCCTOps) so the timed loop measures tree maintenance, not a
			// wrapper call.
			j := 0
			for i := 0; i < b.N; i++ {
				o := ops[j]
				if o.enter {
					tree.AtCall(int(o.site), cct.NoPrefix, nil)
					tree.Enter(int(o.proc), nil)
				}
				if o.exit {
					tree.Exit(nil)
				}
				j++
				if j == len(ops) {
					j = 0
				}
			}
			b.StopTimer()
			recordBench(b, map[string]float64{"cct-nodes": float64(tree.NumNodes())})
		})
	}
}

// BenchmarkCCTProfileAccumulate measures the per-exit metric accumulation
// the HW modes perform: N counter deltas folded into the current record.
// The work is linear in the schema width; N=2 is the paper's classic pair.
func BenchmarkCCTProfileAccumulate(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			tree := newBenchTreeN(1 + n)
			tree.AtCall(0, cct.NoPrefix, nil)
			tree.Enter(0, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k := 1; k <= n; k++ {
					tree.AddMetric(k, int64(i), nil)
				}
			}
			b.StopTimer()
			recordBench(b, map[string]float64{"metric-slots": float64(n)})
		})
	}
}

// TestCCTEnterExitZeroAlloc pins the steady-state guarantee the arena
// layout provides: once every record exists, Enter/Exit allocate nothing.
func TestCCTEnterExitZeroAlloc(t *testing.T) {
	tree := newBenchTree()
	ops := cctOpSequence(1 << 12)
	for j := 0; j != len(ops)-1; {
		j = playCCTOps(tree, ops, j)
	}
	playCCTOps(tree, ops, len(ops)-1)
	j := 0
	allocs := testing.AllocsPerRun(20, func() {
		for range ops {
			j = playCCTOps(tree, ops, j)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Enter/Exit allocated %.1f times per replay, want 0", allocs)
	}
}

// BenchmarkCCTBuild measures cold construction: every iteration builds the
// whole tree from an empty arena, so this tracks allocation and record
// initialization cost (the part arenas amortize).
func BenchmarkCCTBuild(b *testing.B) {
	ops := cctOpSequence(1 << 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree := newBenchTree()
		for j := 0; j != len(ops)-1; {
			j = playCCTOps(tree, ops, j)
		}
	}
	b.StopTimer()
	recordBench(b, nil)
}

// BenchmarkCCTCountPath measures the per-record path counter update in both
// regimes: dense array (NumPaths under the threshold) and the flat
// open-addressing hash table (NumPaths over it).
func BenchmarkCCTCountPath(b *testing.B) {
	run := func(b *testing.B, numPaths int64, threshold int64) {
		procs := []cct.ProcInfo{{Name: "p", NumSites: 1, NumPaths: numPaths}}
		tree := cct.New(procs, cct.Options{
			DistinguishCallSites: true, NumMetrics: 1,
			PathCounts: true, HashPathThreshold: threshold,
		}, 0)
		tree.AtCall(0, cct.NoPrefix, nil)
		tree.Enter(0, nil)
		rng := rand.New(rand.NewSource(3))
		sums := make([]int64, 4096)
		for i := range sums {
			sums[i] = rng.Int63n(numPaths)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tree.CountPath(sums[i&4095], nil)
		}
		b.StopTimer()
		recordBench(b, nil)
	}
	b.Run("array", func(b *testing.B) { run(b, 1024, cct.DefaultHashPathThreshold) })
	b.Run("hash", func(b *testing.B) { run(b, 1024, 1) })
}

// BenchmarkCCTHashedKPaths measures steady-state hashed path counting at
// path degrees k = 1, 2, 3 on the compression workload: the flat tables
// are pre-sized from instrument.HashSizeHint exactly as Wire sizes them,
// warmed with every executed k-path id, and the timed loop replays the
// frequency-weighted id stream a real run produces. Each degree must stay
// 0 allocs/op — a rehash in the timed loop means the NumPathsK-derived
// hint under-sized the table (ci.sh asserts the k=3 row).
func BenchmarkCCTHashedKPaths(b *testing.B) {
	for _, k := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			w, _ := workload.ByName("compress")
			opts := instrument.DefaultOptions(instrument.ModePathFreq)
			opts.K = k
			opts.HashPathThreshold = 1 // force hashed counting everywhere
			plan, err := instrument.Instrument(w.Build(workload.Test), opts)
			if err != nil {
				b.Fatal(err)
			}
			m := sim.New(plan.Prog, sim.DefaultConfig())
			rt := plan.Wire(m)
			if _, err := m.Run(); err != nil {
				b.Fatal(err)
			}

			// The replay stream: every executed (proc, sum) repeated by its
			// frequency, order-shuffled deterministically so the probe
			// pattern isn't one sorted sweep per procedure.
			type op struct {
				proc int
				sum  int64
			}
			var ops []op
			var distinct int
			tables := make(map[int]*flat.Table)
			for _, pp := range rt.ExtractProfile().Procs {
				if pp == nil || len(pp.Entries) == 0 {
					continue
				}
				nm := plan.Procs[pp.ProcID].Numbering
				tbl := flat.New(instrument.HashSizeHint(nm.NumPathsK))
				for _, e := range pp.Entries {
					tbl.Add(e.Sum, 0) // warm: slot exists before the timed loop
					distinct++
					for n := uint64(0); n < e.Freq && len(ops) < 1<<15; n++ {
						ops = append(ops, op{proc: pp.ProcID, sum: e.Sum})
					}
				}
				tables[pp.ProcID] = tbl
			}
			if len(ops) == 0 {
				b.Fatal("no executed paths to replay")
			}
			rng := rand.New(rand.NewSource(7))
			rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })

			b.ReportAllocs()
			b.ResetTimer()
			j := 0
			for i := 0; i < b.N; i++ {
				o := ops[j]
				tables[o.proc].Add(o.sum, 1)
				j++
				if j == len(ops) {
					j = 0
				}
			}
			b.StopTimer()
			recordBench(b, map[string]float64{
				"k":               float64(k),
				"distinct-kpaths": float64(distinct),
			})
		})
	}
}

// BenchmarkCCTMergeExports measures the sharded-collection reduction:
// export k identical trees and reduce them with MergeAllExports.
func BenchmarkCCTMergeExports(b *testing.B) {
	ops := cctOpSequence(1 << 12)
	tree := newBenchTree()
	for j := 0; j != len(ops)-1; {
		j = playCCTOps(tree, ops, j)
	}
	const k = 4
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		shards := make([]*cct.Export, k)
		for s := range shards {
			shards[s] = tree.Export("bench")
		}
		b.StartTimer()
		if _, err := cct.MergeAllExports(shards); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	recordBench(b, map[string]float64{"shards": k})
}

func BenchmarkCacheAccess(b *testing.B) {
	c := cache.New(cache.DefaultL1D)
	rng := rand.New(rand.NewSource(2))
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1<<18)) &^ 7
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i%len(addrs)], i%4 == 0)
	}
}

// --- ablations (design choices from DESIGN.md) ---

// BenchmarkAblationIncrementPlacement compares the dynamic instrumentation
// cost of the basic edge-value placement against the spanning-tree chord
// optimization, in added simulated instructions.
func BenchmarkAblationIncrementPlacement(b *testing.B) {
	w, _ := workload.ByName("compress")
	prog := w.Build(workload.Test)
	m0 := sim.New(prog, sim.DefaultConfig())
	base, err := m0.Run()
	if err != nil {
		b.Fatal(err)
	}
	run := func(optimize bool) uint64 {
		opts := instrument.DefaultOptions(instrument.ModePathFreq)
		opts.OptimizeIncrements = optimize
		plan, err := instrument.Instrument(prog, opts)
		if err != nil {
			b.Fatal(err)
		}
		m := sim.New(plan.Prog, sim.DefaultConfig())
		plan.Wire(m)
		res, err := m.Run()
		if err != nil {
			b.Fatal(err)
		}
		return res.Instrs - base.Instrs
	}
	for i := 0; i < b.N; i++ {
		basic := run(false)
		opt := run(true)
		if i == 0 {
			b.ReportMetric(float64(basic), "basic-extra-instrs")
			b.ReportMetric(float64(opt), "chord-extra-instrs")
		}
	}
}

// BenchmarkAblationCallSites compares CCT size with and without call-site
// distinction (the paper reports a 2-3x size factor) on a program where
// every level calls the next from several sites, so distinguishing sites
// multiplies the contexts.
func BenchmarkAblationCallSites(b *testing.B) {
	prog := buildSiteFan()
	run := func(distinguish bool) (uint64, int) {
		opts := instrument.DefaultOptions(instrument.ModeContextHW)
		opts.DistinguishCallSites = distinguish
		plan, err := instrument.Instrument(prog, opts)
		if err != nil {
			b.Fatal(err)
		}
		m := sim.New(plan.Prog, sim.DefaultConfig())
		m.PMU().Select(hpm.EvDCacheMiss, hpm.EvInsts)
		rt := plan.Wire(m)
		if _, err := m.Run(); err != nil {
			b.Fatal(err)
		}
		st := rt.Tree.ComputeStats()
		return st.SizeBytes, st.Nodes
	}
	for i := 0; i < b.N; i++ {
		withBytes, withNodes := run(true)
		withoutBytes, withoutNodes := run(false)
		if i == 0 {
			b.ReportMetric(float64(withBytes), "sites-bytes")
			b.ReportMetric(float64(withoutBytes), "combined-bytes")
			b.ReportMetric(float64(withNodes), "sites-nodes")
			b.ReportMetric(float64(withoutNodes), "combined-nodes")
			if withNodes <= withoutNodes {
				b.Fatalf("site distinction did not grow the tree: %d vs %d nodes", withNodes, withoutNodes)
			}
		}
	}
}

// buildSiteFan constructs main →(3 sites) mid →(3 sites) leaf: 3 mid
// contexts and 9 leaf contexts when sites are distinguished, versus 1 and 1
// when combined.
func buildSiteFan() *ir.Program {
	bld := ir.NewBuilder("sitefan")

	leaf := bld.NewProc("leaf", 1)
	le := leaf.NewBlock()
	le.AddI(1, 1, 1)
	le.Ret()

	mid := bld.NewProc("mid", 1)
	me := mid.NewBlock()
	me.Call(leaf)
	me.AddI(1, 1, 2)
	me.Call(leaf)
	me.MulI(1, 1, 3)
	me.Call(leaf)
	me.Ret()

	main := bld.NewProc("main", 0)
	e := main.NewBlock()
	h := main.NewBlock()
	body := main.NewBlock()
	x := main.NewBlock()
	e.MovI(2, 0)
	e.Jmp(h)
	h.CmpLTI(3, 2, 50)
	h.Br(3, body, x)
	body.Mov(1, 2)
	body.Call(mid)
	body.AddI(1, 1, 7)
	body.Call(mid)
	body.XorI(1, 1, 5)
	body.Call(mid)
	body.AddI(2, 2, 1)
	body.Jmp(h)
	x.Halt()
	bld.SetMain(main)
	return bld.MustFinish()
}

// BenchmarkAblationHashThreshold compares dense-array and hash-table path
// counters on the same program (simulated cycles).
func BenchmarkAblationHashThreshold(b *testing.B) {
	w, _ := workload.ByName("searcher")
	prog := w.Build(workload.Test)
	run := func(threshold int64) uint64 {
		opts := instrument.DefaultOptions(instrument.ModePathFreq)
		opts.HashPathThreshold = threshold
		plan, err := instrument.Instrument(prog, opts)
		if err != nil {
			b.Fatal(err)
		}
		m := sim.New(plan.Prog, sim.DefaultConfig())
		plan.Wire(m)
		res, err := m.Run()
		if err != nil {
			b.Fatal(err)
		}
		return res.Cycles
	}
	for i := 0; i < b.N; i++ {
		arr := run(instrument.DefaultHashPathThreshold)
		hash := run(1) // force every procedure onto hash tables
		if i == 0 {
			b.ReportMetric(float64(arr), "array-cycles")
			b.ReportMetric(float64(hash), "hash-cycles")
		}
	}
}

// BenchmarkAblationBackedgeReads measures the cost of the Section 4.3
// backedge counter reads in context+HW mode.
func BenchmarkAblationBackedgeReads(b *testing.B) {
	w, _ := workload.ByName("grid")
	prog := w.Build(workload.Test)
	run := func(reads bool) uint64 {
		opts := instrument.DefaultOptions(instrument.ModeContextHW)
		opts.BackedgeCounterReads = reads
		plan, err := instrument.Instrument(prog, opts)
		if err != nil {
			b.Fatal(err)
		}
		m := sim.New(plan.Prog, sim.DefaultConfig())
		m.PMU().Select(hpm.EvDCacheMiss, hpm.EvInsts)
		plan.Wire(m)
		res, err := m.Run()
		if err != nil {
			b.Fatal(err)
		}
		return res.Cycles
	}
	for i := 0; i < b.N; i++ {
		with := run(true)
		without := run(false)
		if i == 0 {
			b.ReportMetric(float64(with), "ticks-cycles")
			b.ReportMetric(float64(without), "no-ticks-cycles")
		}
	}
}

// BenchmarkEdgeVsPathProfiling reproduces the paper's comparison point that
// path profiling costs roughly twice as much as edge profiling.
func BenchmarkEdgeVsPathProfiling(b *testing.B) {
	w, _ := workload.ByName("imagepack")
	prog := w.Build(workload.Test)
	m0 := sim.New(prog, sim.DefaultConfig())
	base, err := m0.Run()
	if err != nil {
		b.Fatal(err)
	}
	run := func(mode instrument.Mode) uint64 {
		plan, err := instrument.Instrument(prog, instrument.DefaultOptions(mode))
		if err != nil {
			b.Fatal(err)
		}
		m := sim.New(plan.Prog, sim.DefaultConfig())
		plan.Wire(m)
		res, err := m.Run()
		if err != nil {
			b.Fatal(err)
		}
		return res.Cycles
	}
	for i := 0; i < b.N; i++ {
		edge := run(instrument.ModeEdgeCount)
		path := run(instrument.ModePathFreq)
		if i == 0 {
			b.ReportMetric(float64(edge)/float64(base.Cycles), "edge-x")
			b.ReportMetric(float64(path)/float64(base.Cycles), "path-x")
		}
	}
}

// BenchmarkTable6Spectrum regenerates the representation-spectrum extension
// table and reports the CCT-vs-DCT compression on the call-heavy workload.
func BenchmarkTable6Spectrum(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSession(workload.Test)
		rows, err := s.Spectrum(2000)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			experiments.RenderSpectrum(rows, io.Discard)
			var best float64
			for _, r := range rows {
				if r.CCTNodes > 0 {
					if ratio := float64(r.DCTNodes) / float64(r.CCTNodes); ratio > best {
						best = ratio
					}
				}
			}
			b.ReportMetric(best, "max-dct/cct-nodes")
		}
	}
}

// BenchmarkAblationIssueWidth measures profiling overhead on a scalar
// versus a 4-wide machine — the paper's closing observation that added
// instructions hurt more on high-issue-rate processors.
func BenchmarkAblationIssueWidth(b *testing.B) {
	w, _ := workload.ByName("strhash")
	prog := w.Build(workload.Test)
	plan, err := instrument.Instrument(prog, instrument.DefaultOptions(instrument.ModePathHW))
	if err != nil {
		b.Fatal(err)
	}
	overhead := func(width int) float64 {
		cfg := sim.DefaultConfig()
		cfg.IssueWidth = width
		m0 := sim.New(prog, cfg)
		base, err := m0.Run()
		if err != nil {
			b.Fatal(err)
		}
		m := sim.New(plan.Prog, cfg)
		m.PMU().Select(hpm.EvDCacheMiss, hpm.EvInsts)
		plan.Wire(m)
		res, err := m.Run()
		if err != nil {
			b.Fatal(err)
		}
		return float64(res.Cycles) / float64(base.Cycles)
	}
	for i := 0; i < b.N; i++ {
		scalar := overhead(1)
		wide := overhead(4)
		if i == 0 {
			b.ReportMetric(scalar, "scalar-overhead-x")
			b.ReportMetric(wide, "4wide-overhead-x")
			if wide <= scalar {
				b.Logf("note: 4-wide overhead %.2f did not exceed scalar %.2f on this workload", wide, scalar)
			}
		}
	}
}

// --- parallel experiment engine ---

// benchmarkSession regenerates Table 1 (the largest cell matrix) with a
// fresh session per iteration at the given worker-pool size, so the
// measurement includes build, instrumentation and every simulation.
func benchmarkSession(b *testing.B, parallel int) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSession(workload.Test)
		s.Parallel = parallel
		rows, err := s.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			experiments.RenderTable1(rows, io.Discard)
		}
	}
	recordBench(b, map[string]float64{"workers": float64(parallel)})
}

// BenchmarkSessionSerial is the single-worker baseline for the engine.
func BenchmarkSessionSerial(b *testing.B) { benchmarkSession(b, 1) }

// BenchmarkSessionParallel runs the same matrix on a GOMAXPROCS-wide pool;
// the speedup over BenchmarkSessionSerial is the engine's parallel gain
// (cells are independent, so it should approach the core count on
// multi-core hosts).
func BenchmarkSessionParallel(b *testing.B) { benchmarkSession(b, runtime.GOMAXPROCS(0)) }

// --- simulator dispatch micro-benchmarks ---

// buildStepLoop constructs an endless counting loop whose body exercises
// one instruction class, so Machine.Step can be benchmarked per-opcode
// without the program halting mid-measurement.
func buildStepLoop(class string) *ir.Program {
	bld := ir.NewBuilder("step-" + class)
	bld.Globals(make([]int64, 16), mem.GlobalBase)

	leaf := bld.NewProc("leaf", 0)
	lb := leaf.NewBlock()
	lb.AddI(1, 1, 1)
	lb.Ret()

	main := bld.NewProc("main", 0)
	e := main.NewBlock()
	h := main.NewBlock()
	body := main.NewBlock()
	x := main.NewBlock()
	e.MovI(2, 0)
	e.MovI(4, int64(mem.GlobalBase))
	e.Jmp(h)
	h.CmpLTI(3, 2, 1<<40)
	h.Br(3, body, x)
	switch class {
	case "alu":
		body.AddI(1, 1, 3)
		body.XorI(1, 1, 5)
		body.Mul(1, 1, 1)
	case "fp":
		body.CvtIF(5, 2)
		body.FAdd(6, 6, 5)
		body.FMul(6, 6, 6)
	case "mem":
		body.Load(5, 4, 0)
		body.AddI(5, 5, 1)
		body.Store(4, 0, 5)
	case "branch":
		// The loop's compare-and-branch spine is the workload itself.
		body.Nop()
	case "call":
		body.Call(leaf)
	default:
		panic("unknown class " + class)
	}
	body.AddI(2, 2, 1)
	body.Jmp(h)
	x.Halt()
	bld.SetMain(main)
	return bld.MustFinish()
}

// TestStepZeroAlloc: once warm, Machine.Step allocates nothing for any
// instruction class (BenchmarkStepDispatch measures the same loops).
func TestStepZeroAlloc(t *testing.T) {
	for _, class := range []string{"alu", "fp", "mem", "branch", "call"} {
		m := sim.New(buildStepLoop(class), sim.DefaultConfig())
		allocs := testing.AllocsPerRun(20, func() {
			for i := 0; i < 1000; i++ {
				if err := m.Step(); err != nil {
					t.Fatal(err)
				}
			}
		})
		if allocs != 0 {
			t.Errorf("%s: 1000 steps allocated %.1f times, want 0", class, allocs)
		}
	}
}

// BenchmarkStepDispatch measures the simulator's per-instruction dispatch
// cost by class. The step path must not allocate: any alloc/op here is a
// regression in the simulator hot loop.
func BenchmarkStepDispatch(b *testing.B) {
	for _, class := range []string{"alu", "fp", "mem", "branch", "call"} {
		class := class
		b.Run(class, func(b *testing.B) {
			m := sim.New(buildStepLoop(class), sim.DefaultConfig())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.Step(); err != nil {
					b.Fatal(err)
				}
				if m.Halted() {
					b.Fatal("step loop halted early")
				}
			}
			b.StopTimer()
			recordBench(b, nil)
		})
	}
}

// BenchmarkBlockVsPathProfiling measures Section 6.4.3's "far more
// expensive": statement-level (per-block) hardware metric attribution
// versus path-level on the same workload.
func BenchmarkBlockVsPathProfiling(b *testing.B) {
	w, _ := workload.ByName("compiler")
	prog := w.Build(workload.Test)
	m0 := sim.New(prog, sim.DefaultConfig())
	base, err := m0.Run()
	if err != nil {
		b.Fatal(err)
	}
	run := func(mode instrument.Mode) uint64 {
		plan, err := instrument.Instrument(prog, instrument.DefaultOptions(mode))
		if err != nil {
			b.Fatal(err)
		}
		m := sim.New(plan.Prog, sim.DefaultConfig())
		m.PMU().Select(hpm.EvDCacheMiss, hpm.EvInsts)
		plan.Wire(m)
		res, err := m.Run()
		if err != nil {
			b.Fatal(err)
		}
		return res.Cycles
	}
	for i := 0; i < b.N; i++ {
		blockCycles := run(instrument.ModeBlockHW)
		pathCycles := run(instrument.ModePathHW)
		if i == 0 {
			b.ReportMetric(float64(blockCycles)/float64(base.Cycles), "block-x")
			b.ReportMetric(float64(pathCycles)/float64(base.Cycles), "path-x")
			if blockCycles <= pathCycles {
				b.Fatalf("block-level (%d) not more expensive than path-level (%d)", blockCycles, pathCycles)
			}
		}
	}
}

// --- wire codec + collection tier ---

// wireBench lazily produces the payloads the wire benchmarks share: a
// flow+HW path profile and a context+flow CCT export from one real
// instrumented run of a call-heavy workload. Built once — the run costs
// far more than any single codec iteration.
var wireBench struct {
	once    sync.Once
	profile *profile.Profile
	export  *cct.Export
	err     error
}

func wireBenchData(b *testing.B) (*profile.Profile, *cct.Export) {
	wireBench.once.Do(func() {
		s := experiments.NewSession(workload.Test)
		w, ok := workload.ByName("compiler")
		if !ok {
			wireBench.err = errors.New("bench workload missing from suite")
			return
		}
		s.Workloads = []workload.Workload{w}
		cell, err := s.Run(w, instrument.ModeContextFlow,
			experiments.StandardEvents[0], experiments.StandardEvents[1])
		if err != nil {
			wireBench.err = err
			return
		}
		wireBench.profile = cell.Profile
		wireBench.export = cell.Tree.Export(w.Name)
	})
	if wireBench.err != nil {
		b.Fatal(wireBench.err)
	}
	return wireBench.profile, wireBench.export
}

// The BenchmarkWireEncode*/Decode* benchmarks measure the one-item
// frame a single producer sends (wire.EncodeProfile/EncodeExport and
// wire.DecodeProfile/DecodeExport); b.SetBytes reports MB/s of wire
// bytes.

// BenchmarkWireEncodeProfile measures profile serialization throughput.
func BenchmarkWireEncodeProfile(b *testing.B) {
	p, _ := wireBenchData(b)
	var buf bytes.Buffer
	if err := wire.EncodeProfile(&buf, p); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := wire.EncodeProfile(&buf, p); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	recordBench(b, map[string]float64{"envelope-bytes": float64(buf.Len())})
}

func BenchmarkWireDecodeProfile(b *testing.B) {
	p, _ := wireBenchData(b)
	var buf bytes.Buffer
	if err := wire.EncodeProfile(&buf, p); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < b.N; i++ {
		if _, err := wire.DecodeProfile(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
	runtime.ReadMemStats(&ms1)
	b.StopTimer()
	recordBench(b, map[string]float64{
		"allocs-per-op": float64(ms1.Mallocs-ms0.Mallocs) / float64(b.N),
	})
}

func BenchmarkWireEncodeCCT(b *testing.B) {
	_, ex := wireBenchData(b)
	var buf bytes.Buffer
	if err := wire.EncodeExport(&buf, ex); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := wire.EncodeExport(&buf, ex); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	recordBench(b, map[string]float64{
		"envelope-bytes": float64(buf.Len()),
		"cct-nodes":      float64(len(ex.Nodes)),
	})
}

func BenchmarkWireDecodeCCT(b *testing.B) {
	_, ex := wireBenchData(b)
	var buf bytes.Buffer
	if err := wire.EncodeExport(&buf, ex); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wire.DecodeExport(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	recordBench(b, nil)
}

// BenchmarkWireIngest is the end-to-end collection-tier measurement: each
// iteration encodes a real CCT export as a one-item frame, POSTs it over
// loopback HTTP to a live collector, and folds it into the sharded
// aggregate. SetBytes is the envelope size, so the
// reported MB/s is sustained single-client ingest bandwidth.
func BenchmarkWireIngest(b *testing.B) {
	p, ex := wireBenchData(b)
	var buf bytes.Buffer
	if err := wire.EncodeExport(&buf, ex); err != nil {
		b.Fatal(err)
	}
	c := collector.New(collector.Config{Shards: 4})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	cl := &collector.Client{BaseURL: srv.URL, HTTPClient: srv.Client()}
	ctx := context.Background()
	if _, err := cl.PushProfile(ctx, p); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.PushExport(ctx, ex); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	m := c.Metrics()
	recordBench(b, map[string]float64{
		"envelope-bytes": float64(buf.Len()),
		"ingested-ccts":  float64(m.IngestedCCTs),
	})
}

// --- batched ingest (BENCH_ingest.json) ---

// ingestBenchFrame builds one wire-v3 frame of n envelopes alternating
// between the benchmark profile and CCT export.
func ingestBenchFrame(b *testing.B, n int) []byte {
	p, ex := wireBenchData(b)
	bw := wire.NewBatchWriter()
	for i := 0; i < n; i++ {
		var err error
		if i%2 == 0 {
			err = bw.AddProfile(p)
		} else {
			err = bw.AddExport(ex)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	return bw.Frame()
}

// BenchmarkIngestSinglePOST is the baseline the batched path is measured
// against: one envelope per POST (a one-item frame) over loopback HTTP,
// i.e. one iteration is one ingested envelope.
func BenchmarkIngestSinglePOST(b *testing.B) {
	p, _ := wireBenchData(b)
	c := collector.New(collector.Config{Shards: 4})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	cl := &collector.Client{BaseURL: srv.URL, HTTPClient: srv.Client()}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.PushProfile(ctx, p); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	recordBench(b, map[string]float64{
		"envelopes-per-op": 1,
		"ns-per-envelope":  float64(b.Elapsed().Nanoseconds()) / float64(b.N),
	})
}

// BenchmarkIngestBatchPOST posts one 64-envelope wire-v3 frame per
// iteration; ns-per-envelope divides out the batch size for direct
// comparison with BenchmarkIngestSinglePOST.
func BenchmarkIngestBatchPOST(b *testing.B) {
	const batch = 64
	frame := ingestBenchFrame(b, batch)
	c := collector.New(collector.Config{Shards: 4})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	cl := &collector.Client{BaseURL: srv.URL, HTTPClient: srv.Client()}
	ctx := context.Background()
	b.SetBytes(int64(len(frame)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.PushFrame(ctx, frame); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	recordBench(b, map[string]float64{
		"envelopes-per-op": batch,
		"frame-bytes":      float64(len(frame)),
		"ns-per-envelope":  float64(b.Elapsed().Nanoseconds()) / float64(b.N*batch),
	})
}

// BenchmarkIngestFrameFold isolates the server-side decode-to-shard loop
// (no HTTP): folding a 64-envelope frame into warm shard aggregates.
// This is the path that must not allocate — ci.sh gates on 0 allocs/op.
func BenchmarkIngestFrameFold(b *testing.B) {
	const batch = 64
	frame := ingestBenchFrame(b, batch)
	c := collector.New(collector.Config{Shards: 4})
	for i := 0; i < 3; i++ { // graft aggregates, warm the scratch pool
		if _, _, err := c.IngestFrame(frame); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < b.N; i++ {
		if _, _, err := c.IngestFrame(frame); err != nil {
			b.Fatal(err)
		}
	}
	runtime.ReadMemStats(&ms1)
	b.StopTimer()
	recordBench(b, map[string]float64{
		"envelopes-per-op": batch,
		"ns-per-envelope":  float64(b.Elapsed().Nanoseconds()) / float64(b.N*batch),
		"allocs-per-op":    float64(ms1.Mallocs-ms0.Mallocs) / float64(b.N),
	})
}
