package experiments

import (
	"bytes"
	"context"
	"testing"

	"pathprof/internal/instrument"
)

// TestShardedTable3Identical: Table 3 rendered from sharded collection must
// be byte-identical to the serial table at every shard count — the shape
// statistics of a merge of identical deterministic runs are invariant.
func TestShardedTable3Identical(t *testing.T) {
	s := subsetSession(t)
	serialRows, err := s.Table3()
	if err != nil {
		t.Fatal(err)
	}
	var serial bytes.Buffer
	RenderTable3(serialRows, &serial)

	for _, shards := range []int{1, 2, 4} {
		rows, err := s.Table3Sharded(shards)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		var got bytes.Buffer
		RenderTable3(rows, &got)
		if !bytes.Equal(serial.Bytes(), got.Bytes()) {
			t.Errorf("shards=%d: rendered Table 3 differs from serial run\nserial:\n%s\nsharded:\n%s",
				shards, serial.String(), got.String())
		}
	}
}

// TestShardedCountersScale: merging k identical shard exports leaves the
// structure untouched but multiplies the accumulated counters by k.
func TestShardedCountersScale(t *testing.T) {
	s := subsetSession(t)
	w := s.Workloads[0]

	invocations := func(shards int) (int64, int) {
		run, err := s.CollectSharded(context.Background(), w,
			instrument.ModeContextFlow, StandardEvents[0], StandardEvents[1], shards)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		return run.Export.TotalMetric(0), run.Export.NumNodes()
	}

	baseCalls, baseNodes := invocations(1)
	if baseCalls == 0 {
		t.Fatal("serial run recorded no invocations")
	}
	for _, k := range []int{2, 4} {
		calls, nodes := invocations(k)
		if nodes != baseNodes {
			t.Errorf("shards=%d: merged tree has %d nodes, serial %d (structure must not change)",
				k, nodes, baseNodes)
		}
		if calls != int64(k)*baseCalls {
			t.Errorf("shards=%d: merged invocation count %d, want %d (k x serial)",
				k, calls, int64(k)*baseCalls)
		}
	}
}
