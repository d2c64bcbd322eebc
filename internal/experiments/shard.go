package experiments

import (
	"context"
	"fmt"
	"time"

	"pathprof/internal/cct"
	"pathprof/internal/hpm"
	"pathprof/internal/instrument"
	"pathprof/internal/sim"
	"pathprof/internal/workload"
)

// Sharded collection: the paper's instrumentation writes the CCT heap at
// program exit and merges trees from repeated runs offline. CollectSharded
// models that workflow in-process — every shard is an independent
// instrumented execution wired from the shared plan onto its own machine,
// built concurrently on the session's worker pool, and exported at exit the
// way the runtime writes its heap. The per-shard exports are reduced by
// cct.MergeAllExports (tree-structured pairwise MergeExports), the same
// reference merge the collection tier's aggregates are checked against.
//
// Workloads are deterministic, so all shards export structurally identical
// trees and the merged export's shape statistics (everything Table 3
// renders) are byte-identical to a single serial run at any shard count;
// only the accumulated counters scale with the number of shards. See
// EXPERIMENTS.md.

// ShardedRun is the result of a sharded collection: the merged export plus
// the per-shard simulation results.
type ShardedRun struct {
	Export  *cct.Export
	Results []sim.Result
	Plan    *instrument.Plan
}

// CollectSharded executes `shards` instrumented runs of w under mode
// (which must be a CCT-building mode), exports each shard's tree and
// merges the exports.
func (s *Session) CollectSharded(ctx context.Context, w workload.Workload, mode instrument.Mode, ev0, ev1 hpm.Event, shards int) (*ShardedRun, error) {
	if !mode.UsesCCT() {
		return nil, fmt.Errorf("experiments: sharded collection needs a CCT mode, got %v", mode)
	}
	if shards < 1 {
		shards = 1
	}
	plan, err := s.sharedPlan(w, mode)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s %v: %w", w.Name, mode, err)
	}

	start := time.Now()
	exports := make([]*cct.Export, shards)
	results := make([]sim.Result, shards)
	err = s.forEach(ctx, shards, func(ctx context.Context, i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		m := sim.New(plan.Prog, s.SimConfig)
		m.PMU().Select(ev0, ev1)
		rt := plan.Wire(m)
		res, err := m.Run()
		if err != nil {
			return fmt.Errorf("experiments: %s %v shard %d: %w", w.Name, mode, i, err)
		}
		exports[i] = rt.Tree.Export(w.Name)
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}

	merged, err := cct.MergeAllExports(exports)
	if err != nil {
		return nil, err
	}
	var instrs uint64
	for _, r := range results {
		instrs += r.Instrs
	}
	s.recordTiming(CellTiming{
		Workload: w.Name,
		Mode:     fmt.Sprintf("%v(x%d shards)", mode, shards),
		Events:   hpm.NewMetricSet(ev0, ev1).Key(),
		Wall:     time.Since(start),
		Instrs:   instrs,
	})
	return &ShardedRun{Export: merged, Results: results, Plan: plan}, nil
}

// Table3Sharded builds Table 3 from sharded collection: every workload's
// combined flow+context CCT is collected over the given shard count and
// merged. The rendered rows are byte-identical to Table3's at any shard
// count (shape statistics are invariant under merging identical runs).
func (s *Session) Table3Sharded(shards int) ([]Table3Row, error) {
	// Workloads run serially here; each one's shards already occupy the
	// worker pool.
	rows := make([]Table3Row, 0, len(s.Workloads))
	for _, w := range s.Workloads {
		run, err := s.CollectSharded(context.Background(),
			w, instrument.ModeContextFlow, StandardEvents[0], StandardEvents[1], shards)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table3Row{Name: w.Name, Stats: run.Export.Stats()})
	}
	return rows, nil
}
