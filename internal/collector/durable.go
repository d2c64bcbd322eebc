package collector

import (
	"bytes"
	"context"
	"fmt"

	"pathprof/internal/store"
	"pathprof/internal/wire"
)

// AckMode says when an ingest ack is sent relative to durability.
type AckMode int

const (
	// AckNone acks after the in-memory fold: fast, zero dependencies,
	// and everything is lost on restart. The default.
	AckNone AckMode = iota
	// AckBatch acks only after the push's record is group-committed to
	// the mounted store: the ack means the push survives kill -9.
	AckBatch
)

func (m AckMode) String() string {
	if m == AckBatch {
		return "batch"
	}
	return "none"
}

// ParseAckMode parses the -durability flag values.
func ParseAckMode(s string) (AckMode, error) {
	switch s {
	case "", "none":
		return AckNone, nil
	case "batch":
		return AckBatch, nil
	}
	return AckNone, fmt.Errorf("unknown durability mode %q (want none or batch)", s)
}

// Store is the persistence surface the collector mounts. *store.Log
// implements it; the interface keeps the in-memory collector free of
// any storage dependency and lets tests substitute failure-injecting
// stores.
type Store interface {
	// Ingest makes one push durable and folds it through apply,
	// deduplicating by the non-zero push id (dup == true means the push
	// was already applied and must be acked without re-folding).
	Ingest(ctx context.Context, id uint64, payload []byte, apply func([]byte) error) (dup bool, err error)
	// SnapshotNow dumps the mounted state and prunes covered segments.
	SnapshotNow() error
	// CompactNow rewrites sealed segments as pre-merged records.
	CompactNow() error
	// Metrics reports the store's durability counters.
	Metrics() store.Metrics
	// Close drains in-flight appends and seals the log.
	Close() error
}

// MountStore attaches s: every subsequent ingest is appended and
// group-committed before it is acked (AckBatch). Mount before serving;
// the collector does not close the store — the opener owns it.
func (c *Collector) MountStore(s Store) {
	c.store = s
	c.ackMode = AckBatch
}

// Store returns the mounted store, or nil for an in-memory collector.
func (c *Collector) Store() Store { return c.store }

// AckMode returns the collector's acking mode.
func (c *Collector) AckMode() AckMode { return c.ackMode }

// OpenStore opens (or recovers) the store directory with the
// collector's fold/snapshot/compact callbacks wired in, replaying any
// surviving state into this collector, and mounts the log. opts.Apply,
// opts.Snapshot and opts.Compact are overwritten.
func (c *Collector) OpenStore(dir string, opts store.Options) (*store.Log, store.Recovery, error) {
	opts.Apply = c.ApplyPayload
	opts.Snapshot = c.SnapshotFrame
	opts.Compact = c.CompactPayloads
	l, rec, err := store.Open(dir, opts)
	if err != nil {
		return nil, rec, err
	}
	c.MountStore(l)
	return l, rec, nil
}

// Checkpoint snapshots the mounted store (bounding future replay to
// ingests after this point), or does nothing for in-memory collectors.
// Relays call it after a fully flushed Take so the spool does not
// replay — and re-push — envelopes already delivered upstream.
func (c *Collector) Checkpoint() error {
	if c.store == nil {
		return nil
	}
	return c.store.SnapshotNow()
}

// ApplyPayload folds one raw pushed payload — a version-3 frame or a
// legacy version-1/2 envelope — into the shard aggregates. This is the
// store's replay callback: re-applying the log through it reproduces
// the in-memory state the acks described.
func (c *Collector) ApplyPayload(data []byte) error {
	_, err := c.applyPayload(data)
	return err
}

// applyPayload folds one payload and builds its ack. A legacy envelope,
// from an old producer or an old store record, is first converted to
// the one-item frame a current producer would have sent; every payload
// then folds through the frame path.
func (c *Collector) applyPayload(data []byte) (IngestResponse, error) {
	sc := c.getScratch()
	defer c.putScratch(sc)
	if !wire.IsFrame(data) {
		pl, err := wire.Decode(bytes.NewReader(data))
		if err != nil {
			return IngestResponse{}, err
		}
		sc.bw.Reset()
		if pl.Kind == wire.KindProfile {
			err = sc.bw.AddProfile(pl.Profile)
		} else {
			err = sc.bw.AddExport(pl.Export)
		}
		if err != nil {
			return IngestResponse{}, err
		}
		sc.buf = sc.bw.AppendFrame(sc.buf[:0])
		data = sc.buf
	}
	profiles, ccts, err := c.ingestFrame(sc, data)
	if err != nil {
		return IngestResponse{}, err
	}
	return ingestAck(sc, profiles, ccts), nil
}

// ingestAck describes a folded push. A push of exactly one envelope acks
// as that envelope's kind and program; a larger one acks as a batch. Both
// carry the counts.
func ingestAck(sc *foldScratch, profiles, ccts int) IngestResponse {
	r := IngestResponse{Kind: "batch", Envelopes: profiles + ccts, Profiles: profiles, CCTs: ccts}
	if r.Envelopes == 1 {
		if profiles == 1 {
			r.Kind, r.Program = wire.KindProfile.String(), string(sc.bp.Program)
		} else {
			r.Kind, r.Program = wire.KindCCT.String(), string(sc.bc.Program)
		}
	}
	return r
}

// SnapshotFrame encodes every program's fully merged aggregates as one
// version-3 batched frame — the store's snapshot callback. Applying the
// frame to an empty collector reproduces the merged state exactly
// (folding is associative and commutative, so the pre-merge does not
// change any table). Returns nil when nothing has been aggregated.
func (c *Collector) SnapshotFrame() ([]byte, error) {
	progs := c.Programs()
	if len(progs) == 0 {
		return nil, nil
	}
	bw := wire.NewBatchWriter()
	for _, name := range progs {
		if p, ok := c.MergedProfile(name); ok {
			if err := bw.AddProfile(p); err != nil {
				return nil, fmt.Errorf("snapshot %s: %w", name, err)
			}
		}
		if ex, ok := c.MergedExport(name); ok {
			if err := bw.AddExport(ex); err != nil {
				return nil, fmt.Errorf("snapshot %s: %w", name, err)
			}
		}
	}
	if bw.Items() == 0 {
		return nil, nil
	}
	return append([]byte(nil), bw.Frame()...), nil
}

// CompactPayloads pre-merges one sealed segment's payloads into a
// single frame — the store's compaction callback. The payloads fold
// into a scratch single-shard collector exactly as replay would fold
// them (per-payload errors skipped the same way), so replaying the
// merged frame reproduces the same aggregate as replaying the originals.
func (c *Collector) CompactPayloads(payloads [][]byte) ([]byte, error) {
	scratch := New(Config{Shards: 1})
	for _, p := range payloads {
		// Errors deliberately ignored: replay also counts-and-skips
		// payloads the fold rejects, and a rejected payload contributes
		// nothing to the aggregate either way.
		_ = scratch.ApplyPayload(p)
	}
	return scratch.SnapshotFrame()
}
