package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"pathprof/internal/analysis"
	"pathprof/internal/cct"
	"pathprof/internal/collector"
	"pathprof/internal/experiments"
	"pathprof/internal/instrument"
	"pathprof/internal/profile"
	"pathprof/internal/sim"
	"pathprof/internal/store"
	"pathprof/internal/wire"
	"pathprof/internal/workload"
)

// The ingest stream. A pass pushes one frame of each size 1..ingestMaxFrame
// and ingestSingles single-envelope pushes, and queries each of Tables 3, 4
// and 5 once, about every 50 ops. The seed fixes which pool envelopes each
// push carries; with the 38-envelope pool a pass carries 2080+86 = 57×38
// envelopes, so every pool envelope is pushed exactly 57 times per pass
// whatever the seed.
const (
	ingestMaxFrame = 64
	ingestSingles  = 86
	// twinAppenders is how many goroutines append to the twin log at once
	// in traced runs, so its group commit coalesces appends as a durable
	// collector's does under concurrent pushes.
	twinAppenders = 8
)

type ingestKind byte

const (
	opFrame ingestKind = iota
	opSingle
	opQuery
)

type ingestOp struct {
	kind  ingestKind
	envs  []int // pool indices (frames and singles)
	table int   // 3, 4 or 5 (queries)
}

// poolEnv is one envelope of the pool: a Test-scale flow+hw path profile
// or context+hw CCT export of one suite program.
type poolEnv struct {
	program string
	prof    *profile.Profile
	ex      *cct.Export
}

// ingestOps generates the stream's ops from the seed; every pass runs each
// once, in its own seeded order.
func ingestOps(seed int64, poolSize int) []ingestOp {
	rng := rand.New(rand.NewPCG(uint64(seed), 0))
	var ops []ingestOp
	total := 0
	for n := 1; n <= ingestMaxFrame; n++ {
		ops = append(ops, ingestOp{kind: opFrame, envs: make([]int, n)})
		total += n
	}
	for i := 0; i < ingestSingles; i++ {
		ops = append(ops, ingestOp{kind: opSingle, envs: make([]int, 1)})
		total++
	}
	var seq []int
	for len(seq) < total {
		seq = append(seq, rng.Perm(poolSize)...)
	}
	for _, op := range ops {
		seq = seq[copy(op.envs, seq):]
	}
	for table := 3; table <= 5; table++ {
		ops = append(ops, ingestOp{kind: opQuery, table: table})
	}
	return ops
}

// ingestBench drives a collector over loopback HTTP from one closed-loop
// client: each push waits for its ack. The collector is in-memory: with a
// store mounted every ack waits for an fsync, and on a shared virtual disk
// fsync latency swung 2× between runs, making the ops mostly a disk
// measurement (see README). Traced runs time the store layer through a
// twin log instead. Served tables are checked against tables rendered
// from aggregates merged locally from the acked envelopes.
type ingestBench struct {
	seed int64
	tr   *tracer
	out  string
	cfg  sim.Config

	pool   []poolEnv
	ratios []float64 // instrumented/uninstrumented cycles of the pool runs

	// The system under test, rebuilt by every setup.
	inst     int
	dir      string
	col      *collector.Collector
	srv      *http.Server
	served   chan struct{}
	cl       *collector.Client
	acked    []int // acked pushes per pool envelope
	local    []localAgg
	pushes   int
	bw       *wire.BatchWriter
	ops      []ingestOp
	frame    []byte
	resp     *collector.IngestResponse
	table    string
	envBytes int
	envs     int

	// Traced runs only: an in-memory twin collector and a twin log that
	// replay each frame outside the op, so decode, fold and append can
	// be timed apart from the HTTP push. Appends wait for the end of the
	// pass, so their fsyncs do not disturb the ops that follow.
	twin      *collector.Collector
	twinStore store.Metrics // summed over the twin logs so far
	appends   []twinAppend
	pf        wire.Frame
	bp        wire.BatchProfile
	bc        wire.BatchCCT
}

func newIngestBench(seed int64, tr *tracer, out string) *ingestBench {
	return &ingestBench{seed: seed, tr: tr, out: out, cfg: sim.DefaultConfig()}
}

// buildPool simulates every suite program at Test scale uninstrumented,
// with flow+hw and with context+hw instrumentation, keeping the profiles
// and exports as the envelope pool. It records no spans: the layers it
// calls are not part of any ingest op.
func (b *ingestBench) buildPool() error {
	b.pool, b.ratios = nil, nil
	tr := &tracer{}
	for _, w := range workload.Suite() {
		s := tr.begin("workload.build")
		prog := w.Build(workload.Test)
		tr.end(s, 0)
		base, _, err := simulate(tr, b.cfg, prog, nil, "none")
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		for _, md := range profileModes[1:] {
			s := tr.begin("instrument.plan")
			plan, err := instrument.Instrument(prog, instrument.DefaultOptions(md.mode))
			tr.end(s, 0)
			if err != nil {
				return fmt.Errorf("%s/%s: instrument: %w", w.Name, md.label, err)
			}
			res, rt, err := simulate(tr, b.cfg, prog, plan, md.label)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", w.Name, md.label, err)
			}
			b.ratios = append(b.ratios, float64(res.Cycles)/float64(base.Cycles))
			e := poolEnv{program: w.Name}
			if md.mode == instrument.ModePathHW {
				s = tr.begin("instrument.extract")
				e.prof = rt.ExtractProfile()
				tr.end(s, 0)
			} else {
				s = tr.begin("cct.export")
				e.ex = rt.Tree.Export(w.Name)
				tr.end(s, int64(e.ex.NumNodes()))
			}
			b.pool = append(b.pool, e)
		}
	}
	return nil
}

func (b *ingestBench) setup() error {
	if err := b.buildPool(); err != nil {
		return err
	}
	b.dir = filepath.Join(b.out, fmt.Sprintf("twin-%d-%d", os.Getpid(), b.inst))
	b.inst++
	if err := os.RemoveAll(b.dir); err != nil {
		return err
	}
	b.col = collector.New(collector.Config{Shards: 4})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	b.srv = &http.Server{Handler: b.col.Handler()}
	b.served = make(chan struct{})
	go func() {
		defer close(b.served)
		_ = b.srv.Serve(ln) // returns ErrServerClosed once teardown closes it
	}()
	// One client, one connection: the load is a single closed loop.
	b.cl = &collector.Client{
		BaseURL:    "http://" + ln.Addr().String(),
		HTTPClient: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
	}
	b.bw = wire.NewBatchWriter()
	b.acked = make([]int, len(b.pool))
	b.local = make([]localAgg, len(b.pool))
	b.pushes, b.envBytes, b.envs = 0, 0, 0
	b.ops = ingestOps(b.seed, len(b.pool))

	// Warm-up: one frame carrying the whole pool, so every program has
	// aggregates before the first query.
	all := make([]int, len(b.pool))
	for i := range all {
		all[i] = i
	}
	warm := ingestOp{kind: opFrame, envs: all}
	if _, err := b.push(warm); err != nil {
		return err
	}
	err = b.check(warm)
	b.appends = b.appends[:0] // the warm-up is not part of any pass
	return err
}

func (b *ingestBench) teardown() {
	if b.srv != nil {
		_ = b.srv.Close() // a failed close leaves nothing to release
		<-b.served
		b.srv = nil
		b.cl.HTTPClient.CloseIdleConnections()
	}
	_ = os.RemoveAll(b.dir)
}

func (b *ingestBench) slots() int { return len(b.ops) }

func (b *ingestBench) do(i int) (float64, error) { return b.push(b.ops[i]) }

func (b *ingestBench) verify(i int) error { return b.check(b.ops[i]) }

func (b *ingestBench) push(op ingestOp) (float64, error) {
	tr := b.tr
	ctx := context.Background()
	b.resp, b.frame = nil, nil
	var err error
	switch op.kind {
	case opFrame:
		s := tr.begin("wire.encode")
		b.bw.Reset()
		for _, e := range op.envs {
			if err = b.add(e); err != nil {
				break
			}
		}
		b.frame = b.bw.Frame()
		tr.end(s, int64(len(op.envs)))
		if err != nil {
			return 0, err
		}
		s = tr.begin("collector.push.frame")
		b.resp, err = b.cl.PushFrame(ctx, b.frame)
		tr.end(s, int64(len(op.envs)))
	case opSingle:
		e := b.pool[op.envs[0]]
		s := tr.begin("collector.push.single")
		if e.prof != nil {
			b.resp, err = b.cl.PushProfile(ctx, e.prof)
		} else {
			b.resp, err = b.cl.PushExport(ctx, e.ex)
		}
		tr.end(s, 1)
	case opQuery:
		s := tr.begin("collector.query")
		b.table, err = b.cl.Table(ctx, op.table, nil)
		tr.end(s, 0)
		return 0, err
	}
	b.pushes++
	if err != nil {
		return 0, err
	}
	return float64(len(op.envs)), nil
}

func (b *ingestBench) add(i int) error {
	if e := b.pool[i]; e.prof != nil {
		return b.bw.AddProfile(e.prof)
	}
	return b.bw.AddExport(b.pool[i].ex)
}

// check checks each ack against what was pushed and each query against
// the same table rendered from aggregates merged locally from the acked
// envelopes.
func (b *ingestBench) check(op ingestOp) error {
	switch op.kind {
	case opFrame:
		var profiles int
		for _, e := range op.envs {
			if b.pool[e].prof != nil {
				profiles++
			}
		}
		r := b.resp
		if r.Duplicate || r.Envelopes != len(op.envs) || r.Profiles != profiles || r.CCTs != len(op.envs)-profiles {
			return fmt.Errorf("frame of %d envelopes (%d profiles) acked as %+v", len(op.envs), profiles, *r)
		}
		b.envBytes += len(b.frame)
		b.envs += len(op.envs)
		if b.tr.on {
			if err := b.shadow(len(op.envs)); err != nil {
				return err
			}
		}
	case opSingle:
		e := b.pool[op.envs[0]]
		kind := wire.KindCCT
		if e.prof != nil {
			kind = wire.KindProfile
		}
		if r := b.resp; r.Duplicate || r.Kind != kind.String() || r.Program != e.program {
			return fmt.Errorf("%s %s push acked as %+v", e.program, kind, *r)
		}
	case opQuery:
		if err := b.syncLocal(); err != nil {
			return err
		}
		s := b.tr.begin("report.render")
		want := b.render(op.table)
		b.tr.end(s, 0)
		if b.table != want {
			return fmt.Errorf("table %d served differs from the one rendered from the local merge", op.table)
		}
		return nil
	}
	for _, e := range op.envs {
		b.acked[e]++
	}
	return nil
}

// localAgg is one pool envelope merged locally as often as it was acked.
type localAgg struct {
	have int
	prof *profile.Profile
	ex   *cct.Export
}

// syncLocal brings every envelope's local aggregate up to its acked count.
func (b *ingestBench) syncLocal() error {
	for i, e := range b.pool {
		l := &b.local[i]
		n := b.acked[i] - l.have
		if n == 0 {
			continue
		}
		var err error
		if e.prof != nil {
			var add *profile.Profile
			if add, err = repeatProfile(e.prof, n); err == nil {
				if l.prof == nil {
					l.prof = add
				} else {
					err = l.prof.Merge(add)
				}
			}
		} else {
			var add *cct.Export
			if add, err = repeatExport(e.ex, n); err == nil {
				if l.ex == nil {
					l.ex = add
				} else {
					l.ex, err = cct.MergeExports(l.ex, add)
				}
			}
		}
		if err != nil {
			return fmt.Errorf("%s: local merge: %w", e.program, err)
		}
		l.have = b.acked[i]
	}
	return nil
}

// render draws table n the way the collector's handlers do, over every
// pool program in name order, from the local aggregates.
func (b *ingestBench) render(n int) string {
	profiles := map[string]*profile.Profile{}
	exports := map[string]*cct.Export{}
	var programs []string
	for i, e := range b.pool {
		if e.prof != nil {
			profiles[e.program] = b.local[i].prof
			programs = append(programs, e.program)
		} else {
			exports[e.program] = b.local[i].ex
		}
	}
	sort.Strings(programs)
	var sb bytes.Buffer
	switch n {
	case 3:
		var rows []experiments.Table3Row
		for _, name := range programs {
			rows = append(rows, experiments.Table3Row{Name: name, Stats: exports[name].Stats()})
		}
		experiments.RenderTable3(rows, &sb)
	case 4:
		var results []experiments.Table4Result
		for _, name := range programs {
			results = append(results, experiments.Table4FromProfile(name, profiles[name]))
		}
		experiments.RenderTable4(results, &sb)
	case 5:
		var reports []analysis.ProcReport
		for _, name := range programs {
			reports = append(reports, analysis.ClassifyProcs(profiles[name], analysis.DefaultHotThreshold))
		}
		experiments.RenderTable5(reports, &sb)
	}
	return sb.String()
}

// twinAppend is a pushed frame waiting to be appended to the twin log.
type twinAppend struct {
	op    int32
	frame []byte
}

// shadow replays the frame just pushed through the layers the collector
// runs behind HTTP: wire decode (ParseFrame and every item) and the fold
// (IngestFrame, which decodes again, into the in-memory twin). It queues
// the frame for the WAL append endPass times.
func (b *ingestBench) shadow(n int) error {
	tr := b.tr
	if b.twin == nil {
		b.twin = collector.New(collector.Config{Shards: 4})
	}
	s := tr.begin("wire.decode")
	err := b.pf.Reset(b.frame)
	for j := 0; err == nil && j < b.pf.Items(); j++ {
		if b.pf.Kind(j) == wire.KindProfile {
			err = b.pf.DecodeProfile(j, &b.bp)
		} else {
			err = b.pf.DecodeCCT(j, &b.bc)
		}
	}
	tr.end(s, int64(n))
	if err != nil {
		return err
	}
	s = tr.begin("collector.fold")
	_, _, err = b.twin.IngestFrame(b.frame)
	tr.end(s, int64(n))
	b.appends = append(b.appends, twinAppend{op: tr.op, frame: bytes.Clone(b.frame)})
	return err
}

// endPass makes the traced run's twin-log appends: the pass's queued
// frames go to a fresh twin log (Log.Append: WAL write and fsync) from
// twinAppenders goroutines at once, each append recorded under its op's
// id, and the log is removed again.
func (b *ingestBench) endPass() error {
	if len(b.appends) == 0 {
		return nil
	}
	dir := filepath.Join(b.dir, "twin")
	log, _, err := store.Open(dir, store.Options{CompactAfter: -1})
	if err != nil {
		return err
	}
	type timed struct{ start, end time.Time }
	times := make([]timed, len(b.appends))
	errs := make([]error, len(b.appends))
	next := make(chan int)
	var wg sync.WaitGroup
	for g := 0; g < twinAppenders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				times[i].start = time.Now()
				errs[i] = log.Append(context.Background(), 0, b.appends[i].frame)
				times[i].end = time.Now()
			}
		}()
	}
	for i := range b.appends {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, a := range b.appends {
		b.tr.add("store.append", a.op, times[i].start, times[i].end, 1)
	}
	b.appends = b.appends[:0]
	m := log.Metrics()
	b.twinStore.Appends += m.Appends
	b.twinStore.Fsyncs += m.Fsyncs
	b.twinStore.FsyncNanos += m.FsyncNanos
	_ = log.Close() // only ever appended to for timing
	_ = os.RemoveAll(dir)
	return errors.Join(errs...)
}

// finish checks that the collector's merged profile and CCT of every
// program equal profile.Merge / cct.MergeExports of the acked envelopes.
// An envelope acked n times merges with itself n times; the local side
// computes that by doubling, which folding's associativity allows.
func (b *ingestBench) finish() (checks, failed int) {
	for i, e := range b.pool {
		checks++
		if err := b.checkMerged(e, b.acked[i]); err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: ingest check: %v\n", err)
		}
	}
	return checks, failed
}

func (b *ingestBench) checkMerged(e poolEnv, n int) error {
	var got, want bytes.Buffer
	if e.prof != nil {
		merged, ok := b.col.MergedProfile(e.program)
		if !ok {
			return fmt.Errorf("%s: no merged profile", e.program)
		}
		local, err := repeatProfile(e.prof, n)
		if err != nil {
			return err
		}
		if err := wire.EncodeProfile(&got, merged); err != nil {
			return err
		}
		if err := wire.EncodeProfile(&want, local); err != nil {
			return err
		}
	} else {
		merged, ok := b.col.MergedExport(e.program)
		if !ok {
			return fmt.Errorf("%s: no merged CCT", e.program)
		}
		local, err := repeatExport(e.ex, n)
		if err != nil {
			return err
		}
		if err := wire.EncodeExport(&got, merged); err != nil {
			return err
		}
		if err := wire.EncodeExport(&want, local); err != nil {
			return err
		}
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		return fmt.Errorf("%s: merged aggregate of %d pushes differs from the local merge", e.program, n)
	}
	return nil
}

// cloneProfile deep-copies p through the wire codec.
func cloneProfile(p *profile.Profile) (*profile.Profile, error) {
	var buf bytes.Buffer
	if err := wire.EncodeProfile(&buf, p); err != nil {
		return nil, err
	}
	return wire.DecodeProfile(&buf)
}

// repeatProfile merges p with itself until it counts n runs.
func repeatProfile(p *profile.Profile, n int) (*profile.Profile, error) {
	if n < 1 {
		return nil, errors.New("profile was never acked")
	}
	pow, err := cloneProfile(p)
	if err != nil {
		return nil, err
	}
	var acc *profile.Profile
	for {
		if n&1 == 1 {
			if acc == nil {
				acc, err = cloneProfile(pow)
			} else {
				err = acc.Merge(pow)
			}
			if err != nil {
				return nil, err
			}
		}
		if n >>= 1; n == 0 {
			return acc, nil
		}
		twice, err := cloneProfile(pow)
		if err == nil {
			err = pow.Merge(twice)
		}
		if err != nil {
			return nil, err
		}
	}
}

// repeatExport merges ex with itself until it counts n runs.
func repeatExport(ex *cct.Export, n int) (*cct.Export, error) {
	if n < 1 {
		return nil, errors.New("CCT was never acked")
	}
	pow := ex
	var acc *cct.Export
	for {
		var err error
		if n&1 == 1 {
			if acc == nil {
				acc = pow
			} else if acc, err = cct.MergeExports(acc, pow); err != nil {
				return nil, err
			}
		}
		if n >>= 1; n == 0 {
			return acc, nil
		}
		if pow, err = cct.MergeExports(pow, pow); err != nil {
			return nil, err
		}
	}
}

// cyclesRatio is the instrumentation overhead of the runs that produced
// the envelope pool: instrumented over uninstrumented cycles, geometric
// mean.
func (b *ingestBench) cyclesRatio() float64 { return geomean(b.ratios) }

func (b *ingestBench) layerStats(m metrics) {
	if b.envs > 0 {
		m.set("wire.bytes_per_env", float64(b.envBytes)/float64(b.envs), "B")
	}
	cm := b.col.Metrics()
	rejected := cm.RejectedBusy + cm.RejectedQueueFull + cm.RejectedTooLarge + cm.RejectedTimeout +
		cm.RejectedBad + cm.RejectedConflict + cm.RejectedStoreFull + cm.RejectedDraining
	m.set("collector.rejected_ratio", float64(rejected)/float64(max(b.pushes, 1)), "ratio")
	if sm := b.twinStore; sm.Fsyncs > 0 {
		m.set("store.fsync_us_mean", float64(sm.FsyncNanos)/float64(sm.Fsyncs)/1e3, "us")
		m.set("store.appends_per_fsync", float64(sm.Appends)/float64(sm.Fsyncs), "count")
	}
}
