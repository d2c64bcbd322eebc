package collector

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"pathprof/internal/store"
	"pathprof/internal/wire"
)

// newDurableServer mounts a store on a fresh collector and serves it.
// The caller owns the returned log (closed via t.Cleanup in open order,
// so restarts can close it earlier by hand).
func newDurableServer(t *testing.T, dir string, cfg Config, sopts store.Options) (*Collector, *Client, *store.Log, store.Recovery) {
	t.Helper()
	c := New(cfg)
	l, rec, err := c.OpenStore(dir, sopts)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(srv.Close)
	return c, &Client{BaseURL: srv.URL, HTTPClient: srv.Client()}, l, rec
}

func pushEnvelopes(t *testing.T, cl *Client, envs []envelope) {
	t.Helper()
	ctx := context.Background()
	for _, e := range envs {
		var err error
		if e.p != nil {
			_, err = cl.PushProfile(ctx, e.p)
		} else {
			_, err = cl.PushExport(ctx, e.ex)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestDurableRestartByteIdentity is the durability oracle: push a
// workload into a durable collector, tear the whole process state down
// (close the store, drop the collector), recover from disk alone, and
// the recovered tables 3, 4 and 5 must be byte-identical to an
// uninterrupted in-memory collector fed the same envelope multiset.
func TestDurableRestartByteIdentity(t *testing.T) {
	envs := testEnvelopes(t, 10)
	programs := []string{"compress", "otherprog"}

	_, memCl := newServer(t, Config{Shards: 4})
	pushEnvelopes(t, memCl, envs)
	want := tableBytes(t, memCl, programs)

	dir := t.TempDir()
	_, durCl, l, _ := newDurableServer(t, dir, Config{Shards: 4}, store.Options{})
	pushEnvelopes(t, durCl, envs)
	if got := tableBytes(t, durCl, programs); got != want {
		t.Fatalf("durable collector diverged before restart")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Restart: a brand-new collector recovers purely from the log.
	_, cl2, _, rec := newDurableServer(t, dir, Config{Shards: 4}, store.Options{})
	if rec.Records == 0 {
		t.Fatalf("restart replayed nothing: %+v", rec)
	}
	if got := tableBytes(t, cl2, programs); got != want {
		t.Fatalf("tables after restart+replay differ from uninterrupted run")
	}
}

// TestSnapshotMidIngestEquivalence covers the satellite: snapshot in
// the middle of an ingest stream, restart, replay the remainder — the
// tables must be byte-identical to the uninterrupted collector, and the
// replay must be bounded by the snapshot (few records, not the full
// history).
func TestSnapshotMidIngestEquivalence(t *testing.T) {
	envs := testEnvelopes(t, 12)
	programs := []string{"compress", "otherprog"}

	_, memCl := newServer(t, Config{Shards: 4})
	pushEnvelopes(t, memCl, envs)
	want := tableBytes(t, memCl, programs)

	dir := t.TempDir()
	_, durCl, l, _ := newDurableServer(t, dir, Config{Shards: 4}, store.Options{})
	half := len(envs) / 2
	pushEnvelopes(t, durCl, envs[:half])

	// Snapshot through the ops endpoint, as an operator would.
	resp, err := durCl.http().Post(durCl.BaseURL+"/store/snapshot", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var sm store.Metrics
	if err := json.NewDecoder(resp.Body).Decode(&sm); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || sm.Snapshots != 1 {
		t.Fatalf("snapshot endpoint: status %d, metrics %+v", resp.StatusCode, sm)
	}

	pushEnvelopes(t, durCl, envs[half:])
	l.Close()

	_, cl2, _, rec := newDurableServer(t, dir, Config{Shards: 4}, store.Options{})
	if rec.SnapshotSeq == 0 || rec.SnapshotBytes == 0 {
		t.Fatalf("restart ignored the snapshot: %+v", rec)
	}
	if rec.Records != len(envs)-half {
		t.Fatalf("replay folded %d records, want only the %d post-snapshot pushes", rec.Records, len(envs)-half)
	}
	if got := tableBytes(t, cl2, programs); got != want {
		t.Fatalf("tables after snapshot+restart+replay differ from uninterrupted run")
	}
}

// TestCompactionEndpointEquivalence: compacting sealed segments through
// the ops endpoint must not change any table, before or after restart.
func TestCompactionEndpointEquivalence(t *testing.T) {
	envs := testEnvelopes(t, 8)
	programs := []string{"compress", "otherprog"}

	_, memCl := newServer(t, Config{Shards: 4})
	pushEnvelopes(t, memCl, envs)
	want := tableBytes(t, memCl, programs)

	dir := t.TempDir()
	// Small segments so the stream seals several; no auto-compaction —
	// the endpoint drives it.
	sopts := store.Options{SegmentBytes: 1 << 10, CompactAfter: -1}
	_, durCl, l, _ := newDurableServer(t, dir, Config{Shards: 4}, sopts)
	pushEnvelopes(t, durCl, envs)

	resp, err := durCl.http().Post(durCl.BaseURL+"/store/compact", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var sm store.Metrics
	if err := json.NewDecoder(resp.Body).Decode(&sm); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if sm.Compactions == 0 {
		t.Fatalf("nothing compacted (segments=%d); metrics %+v", sm.Segments, sm)
	}
	if got := tableBytes(t, durCl, programs); got != want {
		t.Fatalf("compaction changed live tables")
	}
	l.Close()

	_, cl2, _, rec := newDurableServer(t, dir, Config{Shards: 4}, sopts)
	if got := tableBytes(t, cl2, programs); got != want {
		t.Fatalf("tables after compaction+restart differ from uninterrupted run")
	}
	if rec.Records >= len(envs) {
		t.Fatalf("replay folded %d records, want fewer than %d after compaction", rec.Records, len(envs))
	}
}

// TestDurablePushRetryDeduplicates: the same push ID twice — the wire
// retry after a lost ack — folds once and acks the second as duplicate.
func TestDurablePushRetryDeduplicates(t *testing.T) {
	prof, _ := fixtures(t)
	dir := t.TempDir()
	c, cl, _, _ := newDurableServer(t, dir, Config{Shards: 2}, store.Options{})

	var body bytes.Buffer
	if err := wire.Encode(&body, prof); err != nil {
		t.Fatal(err)
	}
	push := func() IngestResponse {
		req, err := http.NewRequest(http.MethodPost, cl.BaseURL+"/ingest", bytes.NewReader(body.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Push-Id", "deadbeef01")
		resp, err := cl.http().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("push: HTTP %d", resp.StatusCode)
		}
		var ir IngestResponse
		if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
			t.Fatal(err)
		}
		return ir
	}
	if ir := push(); ir.Duplicate {
		t.Fatalf("first push marked duplicate: %+v", ir)
	}
	if ir := push(); !ir.Duplicate {
		t.Fatalf("retried push not marked duplicate: %+v", ir)
	}
	m := c.Metrics()
	if m.IngestedProfiles != 1 {
		t.Fatalf("ingested %d profiles, want 1 (retry must not re-fold)", m.IngestedProfiles)
	}
	if m.Store == nil || m.Store.Duplicates != 1 {
		t.Fatalf("store metrics: %+v", m.Store)
	}
}

// TestStoreFullBackpressure covers the satellite: when the WAL disk
// budget is exhausted the client sees 503 + Retry-After (a retryable
// shed, like 429), RejectedStoreFull counts it, and a snapshot frees
// the budget so the retried push succeeds.
func TestStoreFullBackpressure(t *testing.T) {
	prof, _ := fixtures(t)
	dir := t.TempDir()
	// Budget fits roughly two profile pushes.
	var probe bytes.Buffer
	if err := wire.Encode(&probe, prof); err != nil {
		t.Fatal(err)
	}
	budget := int64(probe.Len()*2 + 256)
	c, cl, _, _ := newDurableServer(t, dir, Config{Shards: 2, RetryAfter: 2 * time.Second},
		store.Options{MaxLogBytes: budget})

	ctx := context.Background()
	var sawFull bool
	var fullErr error
	for i := 0; i < 10; i++ {
		if _, err := cl.PushProfile(ctx, prof); err != nil {
			sawFull, fullErr = true, err
			break
		}
	}
	if !sawFull {
		t.Fatalf("no 503 after exhausting a %d-byte budget", budget)
	}
	var ae *apiError
	if !errors.As(fullErr, &ae) || ae.Status != http.StatusServiceUnavailable {
		t.Fatalf("store-full error = %v, want HTTP 503", fullErr)
	}
	if ae.RetryAfter < time.Second {
		t.Fatalf("store-full response carries no Retry-After hint: %+v", ae)
	}
	if got, ok := retryable(fullErr); !ok || got != ae.RetryAfter {
		t.Fatalf("client does not treat store-full as retryable backoff: %v %v", got, ok)
	}
	if m := c.Metrics(); m.RejectedStoreFull == 0 {
		t.Fatalf("RejectedStoreFull not counted: %+v", m)
	}

	// A snapshot absorbs the log into one compact file; the client's
	// retry must now land.
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.PushProfile(ctx, prof); err != nil {
		t.Fatalf("push after snapshot freed the budget: %v", err)
	}
}

// TestDurabilityMetricsExposed: /metrics must carry the store's
// per-stage counters and the declared ack mode.
func TestDurabilityMetricsExposed(t *testing.T) {
	prof, _ := fixtures(t)
	dir := t.TempDir()
	_, cl, _, _ := newDurableServer(t, dir, Config{Shards: 2}, store.Options{})
	if _, err := cl.PushProfile(context.Background(), prof); err != nil {
		t.Fatal(err)
	}
	data, err := cl.get(context.Background(), "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m Metrics
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m.Durability != "batch" {
		t.Fatalf("durability = %q, want batch", m.Durability)
	}
	if m.Store == nil {
		t.Fatalf("no store metrics in /metrics")
	}
	if m.Store.Appends != 1 || m.Store.Fsyncs == 0 || m.Store.AppendedBytes == 0 {
		t.Fatalf("store metrics not counting: %+v", m.Store)
	}

	// The in-memory collector must say so and carry no store block.
	_, memCl := newServer(t, Config{})
	data, err = memCl.get(context.Background(), "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var mm Metrics
	if err := json.Unmarshal(data, &mm); err != nil {
		t.Fatal(err)
	}
	if mm.Durability != "none" || mm.Store != nil {
		t.Fatalf("in-memory metrics: durability=%q store=%v", mm.Durability, mm.Store)
	}
}

// TestDurableRelaySpool: a relay with a durable local collector spools
// through upstream outages and across restarts without losing or
// double-delivering envelopes.
func TestDurableRelaySpool(t *testing.T) {
	envs := testEnvelopes(t, 6)
	programs := []string{"compress", "otherprog"}

	_, memCl := newServer(t, Config{Shards: 4})
	pushEnvelopes(t, memCl, envs)
	want := tableBytes(t, memCl, programs)

	root, rootCl := newServer(t, Config{Shards: 4})
	_ = root

	dir := t.TempDir()
	local, localCl, l, _ := newDurableServer(t, dir, Config{Shards: 2}, store.Options{})
	relay := &Relay{
		Local:    local,
		Upstream: &Client{BaseURL: "http://127.0.0.1:1", HTTPClient: &http.Client{Timeout: 200 * time.Millisecond}},
	}
	pushEnvelopes(t, localCl, envs[:len(envs)/2])
	// Flush against a dead upstream: the envelopes must re-ingest
	// locally and the spool must NOT be checkpointed.
	if err := relay.FlushOnce(context.Background()); err == nil {
		t.Fatalf("flush against dead upstream succeeded")
	}
	if relay.Stats().Checkpoints != 0 {
		t.Fatalf("relay checkpointed a failed flush")
	}
	l.Close()

	// Crash the relay; recovery must still hold the first half.
	local2, local2Cl, _, rec := newDurableServer(t, dir, Config{Shards: 2}, store.Options{})
	if rec.Records == 0 {
		t.Fatalf("relay spool replayed nothing")
	}
	pushEnvelopes(t, local2Cl, envs[len(envs)/2:])
	relay2 := &Relay{Local: local2, Upstream: rootCl}
	if err := relay2.FlushOnce(context.Background()); err != nil {
		t.Fatalf("flush to live upstream: %v", err)
	}
	if relay2.Stats().Checkpoints != 1 {
		t.Fatalf("successful flush did not checkpoint: %+v", relay2.Stats())
	}
	if got := tableBytes(t, rootCl, programs); got != want {
		t.Fatalf("upstream tables after spooled relay differ from direct ingest")
	}
	// The checkpoint bounded the spool: a second restart replays the
	// (near-empty) snapshot, not the full history, and a second flush
	// must not double-deliver.
	if err := relay2.FlushOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := tableBytes(t, rootCl, programs); got != want {
		t.Fatalf("idle flush re-delivered envelopes upstream")
	}
}

// TestDurableConcurrentPushes exercises group commit under the full
// HTTP stack: many concurrent pushes, all durable, all replayed.
func TestDurableConcurrentPushes(t *testing.T) {
	envs := testEnvelopes(t, 8)
	programs := []string{"compress", "otherprog"}

	_, memCl := newServer(t, Config{Shards: 4})
	pushEnvelopes(t, memCl, envs)
	want := tableBytes(t, memCl, programs)

	dir := t.TempDir()
	c, durCl, l, _ := newDurableServer(t, dir, Config{Shards: 4}, store.Options{})
	errc := make(chan error, len(envs))
	for _, e := range envs {
		go func(e envelope) {
			var err error
			if e.p != nil {
				_, err = durCl.PushProfile(context.Background(), e.p)
			} else {
				_, err = durCl.PushExport(context.Background(), e.ex)
			}
			errc <- err
		}(e)
	}
	for range envs {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if m := c.Metrics(); m.Store.Appends != uint64(len(envs)) {
		t.Fatalf("store appends = %d, want %d", m.Store.Appends, len(envs))
	}
	l.Close()

	_, cl2, _, _ := newDurableServer(t, dir, Config{Shards: 4}, store.Options{})
	if got := tableBytes(t, cl2, programs); got != want {
		t.Fatalf("concurrent durable ingest did not replay byte-identically")
	}
}

// TestParseAckMode pins the -durability flag values.
func TestParseAckMode(t *testing.T) {
	for s, want := range map[string]AckMode{"": AckNone, "none": AckNone, "batch": AckBatch} {
		got, err := ParseAckMode(s)
		if err != nil || got != want {
			t.Fatalf("ParseAckMode(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseAckMode("fsync-each"); err == nil {
		t.Fatalf("bad mode accepted")
	}
	if AckNone.String() != "none" || AckBatch.String() != "batch" {
		t.Fatalf("AckMode strings: %q %q", AckNone, AckBatch)
	}
}
