// Package collector implements the profile collection tier: an HTTP
// service that ingests wire-format envelopes (internal/wire) POSTed by
// many concurrent producers as version-3 frames of one or many items —
// folds them into sharded in-memory aggregates, and answers queries by
// rendering the paper's tables from the merged data.
//
// Concurrency model: admission is bounded by a semaphore of
// Config.MaxConcurrent slots plus a wait queue of Config.MaxQueue
// requests; beyond that new pushes are shed immediately with 429 and a
// Retry-After hint, so overload degrades into client-side backoff
// instead of a convoy of timed-out sockets. Each admitted request is
// decoded under a request timeout and a body size cap, then folded into
// one of Config.Shards shard aggregates chosen round-robin (batched
// frames fold item by item, spreading one frame across shards; a legacy
// version-1/2 envelope is converted to the one-item frame current
// producers send). Shards hold
// fold-in-place aggregates (see agg.go) that queries snapshot under the
// shard lock, so readers never share mutable state with the ingest path.
// Each program's shape (mode, schema, procedure layout) is recorded for
// the whole collector when a shard first seeds an aggregate for it, so a
// conflicting push is rejected with 409 whichever shard it lands on.
// For pushes of one shape, merging is associative and commutative over
// these aggregates, so the fully merged result is independent of how
// requests were spread across shards.
//
// Shutdown sets a draining flag (new ingests get 503) and waits for
// in-flight merges, so no accepted profile is lost.
package collector

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pathprof/internal/cct"
	"pathprof/internal/profile"
	"pathprof/internal/store"
	"pathprof/internal/wire"
)

// Config bounds the collector's resource use. Zero values select the
// defaults below.
type Config struct {
	// Shards is the number of independent aggregate shards (default 4).
	Shards int
	// MaxBodyBytes caps one request body (default 64 MiB); larger
	// uploads get 413.
	MaxBodyBytes int64
	// MaxConcurrent bounds admitted ingest requests (default 64); when
	// all slots are busy new requests wait in the queue.
	MaxConcurrent int
	// MaxQueue bounds how many requests may wait for a concurrency slot
	// (default 256); beyond that pushes are shed with 429 + Retry-After.
	MaxQueue int
	// RetryAfter is the backoff hint sent with 429 responses
	// (default 1s).
	RetryAfter time.Duration
	// RequestTimeout bounds one ingest from admission to merge
	// (default 30s); slow clients get 408.
	RequestTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 64
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 256
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	return c
}

// shard is one independent slice of the aggregate state. Aggregates are
// mutated in place under the shard lock; queries snapshot them (also
// under the lock) before rendering.
type shard struct {
	mu       sync.Mutex
	profiles map[string]*profAgg
	exports  map[string]*cctAgg
}

func newShard() *shard {
	return &shard{
		profiles: make(map[string]*profAgg),
		exports:  make(map[string]*cctAgg),
	}
}

// shapes records, per program, the shape every shard's aggregate must
// share: the first profile and CCT aggregate any shard created since the
// last Take. Mode, schema and procedure layout of an aggregate never
// change after creation, so a shard seeding a new aggregate checks the
// push against the recorded one (load-or-store, under the shard lock).
// A push that conflicts with data held on another shard is thus rejected
// exactly as on a single shard, while the steady-state fold only ever
// checks its own shard's aggregate.
type shapes struct {
	mu    sync.Mutex
	profs map[string]*profAgg
	ccts  map[string]*cctAgg
}

// reset forgets every recorded shape.
func (s *shapes) reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.profs = make(map[string]*profAgg)
	s.ccts = make(map[string]*cctAgg)
}

// claimProfile records a, just seeded from bp, as its program's profile
// shape, or checks bp against the shape already recorded.
func (s *shapes) claimProfile(a *profAgg, bp *wire.BatchProfile) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rec, ok := s.profs[a.program]; ok {
		return rec.checkShape(bp)
	}
	s.profs[a.program] = a
	return nil
}

// claimCCT is claimProfile for CCT aggregates.
func (s *shapes) claimCCT(a *cctAgg, bc *wire.BatchCCT) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rec, ok := s.ccts[a.program]; ok {
		return rec.checkShape(bc)
	}
	s.ccts[a.program] = a
	return nil
}

// Metrics is a point-in-time snapshot of the collector's counters.
// Store is present only when a durability tier is mounted (see
// durable.go): it carries the per-stage append/fsync/replay/compaction
// counters and latencies.
type Metrics struct {
	IngestedProfiles  uint64         `json:"ingested_profiles"`
	IngestedCCTs      uint64         `json:"ingested_ccts"`
	IngestedFrames    uint64         `json:"ingested_frames"`
	IngestedBytes     uint64         `json:"ingested_bytes"`
	RejectedBusy      uint64         `json:"rejected_busy"`
	RejectedQueueFull uint64         `json:"rejected_queue_full"`
	RejectedTooLarge  uint64         `json:"rejected_too_large"`
	RejectedTimeout   uint64         `json:"rejected_timeout"`
	RejectedBad       uint64         `json:"rejected_bad"`
	RejectedConflict  uint64         `json:"rejected_conflict"`
	RejectedStoreFull uint64         `json:"rejected_store_full"`
	RejectedDraining  uint64         `json:"rejected_draining"`
	Inflight          int64          `json:"inflight"`
	QueueDepth        int64          `json:"queue_depth"`
	Draining          bool           `json:"draining"`
	Durability        string         `json:"durability"`
	Store             *store.Metrics `json:"store,omitempty"`
}

// foldScratch bundles the reusable decode state one ingest needs: the
// zero-copy frame parser, the item scratch structs, the ancestor map for
// CCT folds, and a batch writer for converting legacy envelopes to
// frames. Pooled so steady-state ingest allocates nothing.
type foldScratch struct {
	frame wire.Frame
	bp    wire.BatchProfile
	bc    wire.BatchCCT
	bw    wire.BatchWriter
	buf   []byte
	anc   []*aggNode
}

// Collector aggregates pushed profiles. Create one with New.
type Collector struct {
	cfg     Config
	sem     chan struct{}
	next    atomic.Uint64 // round-robin shard cursor
	shards  []*shard
	shapes  shapes
	scratch sync.Pool // of *foldScratch

	// store, when mounted (durable.go), makes every ingest durable
	// before it is acked; nil keeps the zero-dependency in-memory mode.
	store   Store
	ackMode AckMode

	mu       sync.Mutex
	draining bool
	inflight sync.WaitGroup

	ingestedProfiles  atomic.Uint64
	ingestedCCTs      atomic.Uint64
	ingestedFrames    atomic.Uint64
	ingestedBytes     atomic.Uint64
	rejectedBusy      atomic.Uint64
	rejectedQueue     atomic.Uint64
	rejectedTooBig    atomic.Uint64
	rejectedTimeout   atomic.Uint64
	rejectedBad       atomic.Uint64
	rejectedConflict  atomic.Uint64
	rejectedStoreFull atomic.Uint64
	rejectedDraining  atomic.Uint64
	inflightCount     atomic.Int64
	queueDepth        atomic.Int64
}

// New creates a collector with cfg (zero fields defaulted).
func New(cfg Config) *Collector {
	cfg = cfg.withDefaults()
	c := &Collector{
		cfg:    cfg,
		sem:    make(chan struct{}, cfg.MaxConcurrent),
		shards: make([]*shard, cfg.Shards),
	}
	c.scratch.New = func() any { return &foldScratch{} }
	for i := range c.shards {
		c.shards[i] = newShard()
	}
	c.shapes.reset()
	return c
}

// Config returns the effective (defaulted) configuration.
func (c *Collector) Config() Config { return c.cfg }

// Metrics returns a snapshot of the counters.
func (c *Collector) Metrics() Metrics {
	c.mu.Lock()
	draining := c.draining
	c.mu.Unlock()
	m := Metrics{
		IngestedProfiles:  c.ingestedProfiles.Load(),
		IngestedCCTs:      c.ingestedCCTs.Load(),
		IngestedFrames:    c.ingestedFrames.Load(),
		IngestedBytes:     c.ingestedBytes.Load(),
		RejectedBusy:      c.rejectedBusy.Load(),
		RejectedQueueFull: c.rejectedQueue.Load(),
		RejectedTooLarge:  c.rejectedTooBig.Load(),
		RejectedTimeout:   c.rejectedTimeout.Load(),
		RejectedBad:       c.rejectedBad.Load(),
		RejectedConflict:  c.rejectedConflict.Load(),
		RejectedStoreFull: c.rejectedStoreFull.Load(),
		RejectedDraining:  c.rejectedDraining.Load(),
		Inflight:          c.inflightCount.Load(),
		QueueDepth:        c.queueDepth.Load(),
		Draining:          draining,
		Durability:        c.ackMode.String(),
	}
	if c.store != nil {
		sm := c.store.Metrics()
		m.Store = &sm
	}
	return m
}

// begin admits one ingest: it fails when draining and otherwise
// registers the request with the drain group. The caller must call the
// returned done func exactly once.
func (c *Collector) begin() (done func(), err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.draining {
		return nil, errDraining
	}
	c.inflight.Add(1)
	c.inflightCount.Add(1)
	return func() {
		c.inflightCount.Add(-1)
		c.inflight.Done()
	}, nil
}

var errDraining = errors.New("collector: draining")

// Shutdown stops admitting ingests and waits for in-flight requests to
// finish merging, or for ctx.
func (c *Collector) Shutdown(ctx context.Context) error {
	c.mu.Lock()
	c.draining = true
	c.mu.Unlock()
	drained := make(chan struct{})
	go func() {
		c.inflight.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("collector: shutdown: %w", ctx.Err())
	}
}

// conflictError marks a push whose shape or mode contradicts the
// aggregate already held for its program (HTTP 409).
type conflictError struct{ err error }

func (e *conflictError) Error() string { return e.err.Error() }
func (e *conflictError) Unwrap() error { return e.err }

func (c *Collector) getScratch() *foldScratch   { return c.scratch.Get().(*foldScratch) }
func (c *Collector) putScratch(sc *foldScratch) { c.scratch.Put(sc) }

// ingestBatchProfile folds one decoded batch profile item into a shard.
func (c *Collector) ingestBatchProfile(bp *wire.BatchProfile, _ *foldScratch) error {
	sh := c.pick()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	a, ok := sh.profiles[string(bp.Program)] // string(…) key lookup does not allocate
	if !ok {
		a = newProfAggBatch(bp)
		if err := c.shapes.claimProfile(a, bp); err != nil {
			return err
		}
		sh.profiles[a.program] = a
		c.ingestedProfiles.Add(1)
		return nil
	}
	if err := a.foldBatch(bp); err != nil {
		return err
	}
	c.ingestedProfiles.Add(1)
	return nil
}

// ingestBatchCCT folds one decoded batch CCT item into a shard.
func (c *Collector) ingestBatchCCT(bc *wire.BatchCCT, sc *foldScratch) error {
	sh := c.pick()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	a, ok := sh.exports[string(bc.Program)]
	if !ok {
		agg, err := newCCTAgg(bc, sc)
		if err != nil {
			return err
		}
		if err := c.shapes.claimCCT(agg, bc); err != nil {
			return err
		}
		sh.exports[agg.program] = agg
		c.ingestedCCTs.Add(1)
		return nil
	}
	if err := a.foldBatch(bc, sc); err != nil {
		return err
	}
	c.ingestedCCTs.Add(1)
	return nil
}

// IngestFrame decodes a version-3 batched frame and folds every item
// into the shard aggregates. Items fold independently in frame order; on
// a mid-frame error the items already folded stay applied, and the
// returned counts say how many of each kind landed. Steady-state frames
// from a stable producer population fold without allocating.
func (c *Collector) IngestFrame(data []byte) (profiles, ccts int, err error) {
	sc := c.getScratch()
	defer c.putScratch(sc)
	return c.ingestFrame(sc, data)
}

// ingestFrame parses data into sc.frame and folds it.
func (c *Collector) ingestFrame(sc *foldScratch, data []byte) (profiles, ccts int, err error) {
	if err := sc.frame.Reset(data); err != nil {
		return 0, 0, err
	}
	profiles, ccts, err = c.foldFrame(sc)
	if err == nil {
		c.ingestedFrames.Add(1)
	}
	return profiles, ccts, err
}

// foldFrame folds every item of the frame loaded into sc.frame, in frame
// order, stopping at the first error.
func (c *Collector) foldFrame(sc *foldScratch) (profiles, ccts int, err error) {
	n := sc.frame.Items()
	for i := 0; i < n; i++ {
		switch sc.frame.Kind(i) {
		case wire.KindProfile:
			if err := sc.frame.DecodeProfile(i, &sc.bp); err != nil {
				return profiles, ccts, err
			}
			if len(sc.bp.Program) == 0 {
				return profiles, ccts, fmt.Errorf("frame item %d names no program", i)
			}
			if err := c.ingestBatchProfile(&sc.bp, sc); err != nil {
				return profiles, ccts, err
			}
			profiles++
		case wire.KindCCT:
			if err := sc.frame.DecodeCCT(i, &sc.bc); err != nil {
				return profiles, ccts, err
			}
			if len(sc.bc.Program) == 0 {
				return profiles, ccts, fmt.Errorf("frame item %d names no program", i)
			}
			if err := c.ingestBatchCCT(&sc.bc, sc); err != nil {
				return profiles, ccts, err
			}
			ccts++
		}
	}
	return profiles, ccts, nil
}

func (c *Collector) pick() *shard {
	return c.shards[c.next.Add(1)%uint64(len(c.shards))]
}

// Programs returns every program with any aggregated data, sorted.
func (c *Collector) Programs() []string {
	seen := map[string]bool{}
	for _, sh := range c.shards {
		sh.mu.Lock()
		for name := range sh.profiles {
			seen[name] = true
		}
		for name := range sh.exports {
			seen[name] = true
		}
		sh.mu.Unlock()
	}
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// MergedExport returns the program's CCT aggregate merged across all
// shards, or false when no shard holds one. The result is a fresh
// snapshot; callers may keep it as long as they like.
func (c *Collector) MergedExport(program string) (*cct.Export, bool) {
	var parts []*cct.Export
	for _, sh := range c.shards {
		sh.mu.Lock()
		if a, ok := sh.exports[program]; ok {
			parts = append(parts, a.snapshot())
		}
		sh.mu.Unlock()
	}
	return mergeExportParts(parts)
}

func mergeExportParts(parts []*cct.Export) (*cct.Export, bool) {
	if len(parts) == 0 {
		return nil, false
	}
	out := parts[0]
	for _, p := range parts[1:] {
		merged, err := cct.MergeExports(out, p)
		if err != nil {
			// Unreachable: every shard's aggregate was checked against
			// the program's collector-wide shape when it was seeded.
			return out, true
		}
		out = merged
	}
	return out, true
}

// MergedProfile returns the program's path profile merged across all
// shards, or false when no shard holds one. The result is always a
// fresh snapshot; callers may mutate it.
func (c *Collector) MergedProfile(program string) (*profile.Profile, bool) {
	var parts []*profile.Profile
	for _, sh := range c.shards {
		sh.mu.Lock()
		if a, ok := sh.profiles[program]; ok {
			parts = append(parts, a.snapshot())
		}
		sh.mu.Unlock()
	}
	return mergeProfileParts(parts)
}

func mergeProfileParts(parts []*profile.Profile) (*profile.Profile, bool) {
	if len(parts) == 0 {
		return nil, false
	}
	out := parts[0]
	for _, p := range parts[1:] {
		if err := out.Merge(p); err != nil {
			return out, true
		}
	}
	return out, true
}

// Take removes and returns everything aggregated so far, merged across
// shards per program and sorted by program name. Ingest continues
// concurrently into fresh aggregates; this is the relay flush primitive
// (see relay.go): a leaf collector periodically Takes its aggregate and
// pushes it upstream as one batch.
func (c *Collector) Take() ([]*profile.Profile, []*cct.Export) {
	// Swap out every shard's aggregates and forget the recorded shapes in
	// one step, with all shard locks held, so the shape record always
	// describes exactly the aggregates the collector holds.
	taken := make([]*shard, len(c.shards))
	for _, sh := range c.shards {
		sh.mu.Lock()
	}
	for i, sh := range c.shards {
		taken[i] = &shard{profiles: sh.profiles, exports: sh.exports}
		sh.profiles = make(map[string]*profAgg)
		sh.exports = make(map[string]*cctAgg)
	}
	c.shapes.reset()
	for _, sh := range c.shards {
		sh.mu.Unlock()
	}
	// The swapped-out aggregates are exclusively owned now; snapshot them
	// outside the shard locks.
	profParts := map[string][]*profile.Profile{}
	exportParts := map[string][]*cct.Export{}
	for _, sh := range taken {
		for name, a := range sh.profiles {
			profParts[name] = append(profParts[name], a.snapshot())
		}
		for name, a := range sh.exports {
			exportParts[name] = append(exportParts[name], a.snapshot())
		}
	}
	var profiles []*profile.Profile
	for _, parts := range profParts {
		if p, ok := mergeProfileParts(parts); ok {
			profiles = append(profiles, p)
		}
	}
	var exports []*cct.Export
	for _, parts := range exportParts {
		if ex, ok := mergeExportParts(parts); ok {
			exports = append(exports, ex)
		}
	}
	sort.Slice(profiles, func(i, j int) bool { return profiles[i].Program < profiles[j].Program })
	sort.Slice(exports, func(i, j int) bool { return exports[i].Program < exports[j].Program })
	return profiles, exports
}
