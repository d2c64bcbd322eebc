package cct

import (
	"pathprof/internal/flat"

	"fmt"
	"sync"
)

// MergeExports combines two decoded CCT files from runs of the same
// program, summing metrics and path counts over structurally matching
// records (same procedure reached through the same child position of a
// matching parent). Records present in only one tree are kept. This is the
// multi-run aggregation workflow: each run writes its heap at program exit
// (as the paper's instrumentation does) and the files are merged offline.
func MergeExports(a, b *Export) (*Export, error) {
	if a.NumProcs != b.NumProcs || a.DistinguishSites != b.DistinguishSites {
		return nil, fmt.Errorf("cct: merge shape mismatch: %d/%v procs vs %d/%v",
			a.NumProcs, a.DistinguishSites, b.NumProcs, b.DistinguishSites)
	}
	out := &Export{
		NumProcs:         a.NumProcs,
		DistinguishSites: a.DistinguishSites,
		NumMetrics:       a.NumMetrics,
		Nodes:            map[int]*ExportedNode{},
		Program:          a.Program,
		HasStructure:     a.HasStructure && b.HasStructure,
	}
	if out.Program == "" {
		out.Program = b.Program
	}
	nextID := 1
	// graftedBytes accumulates the simulated size of records present only in
	// b; for same-shape inputs (the sharded-collection case) it stays zero
	// and the merged heap footprint equals a's exactly.
	var graftedBytes uint64
	// Backedge targets are node IDs in their source export's numbering, so
	// they are resolved to merged nodes by target procedure (unique along a
	// root path by the recursion rule) and converted back to IDs after the
	// final renumbering.
	type pendingBack struct{ from, to *ExportedNode }
	var pending []pendingBack
	ancestors := map[int]*ExportedNode{}
	var merge func(x, y *ExportedNode) *ExportedNode
	merge = func(x, y *ExportedNode) *ExportedNode {
		n := &ExportedNode{}
		addCounts := func(src *ExportedNode) {
			src.PathCounts.Range(func(s, c int64) bool {
				n.PathCounts.Add(s, c)
				return true
			})
		}
		switch {
		case x != nil && y != nil:
			n.Proc = x.Proc
			n.Metrics = append(make([]int64, 0, max(len(x.Metrics), len(y.Metrics))), x.Metrics...)
			for i, m := range y.Metrics {
				if i < len(n.Metrics) {
					n.Metrics[i] += m
				} else {
					n.Metrics = append(n.Metrics, m)
				}
			}
			n.PathCounts = flat.New(x.PathCounts.Len() + y.PathCounts.Len())
			addCounts(x)
			addCounts(y)
			n.Size = x.Size
			n.Slots = FoldSlotStats(append([]SlotStat(nil), x.Slots...), y.Slots)
		case x != nil:
			n.Proc = x.Proc
			n.Metrics = append(make([]int64, 0, len(x.Metrics)), x.Metrics...)
			n.PathCounts = flat.New(x.PathCounts.Len())
			addCounts(x)
			n.Size = x.Size
			n.Slots = append([]SlotStat(nil), x.Slots...)
		default:
			n.Proc = y.Proc
			n.Metrics = append(make([]int64, 0, len(y.Metrics)), y.Metrics...)
			n.PathCounts = flat.New(y.PathCounts.Len())
			addCounts(y)
			n.Size = y.Size
			n.Slots = append([]SlotStat(nil), y.Slots...)
			graftedBytes += y.Size
		}

		// Union the backedges by target procedure with multiplicity (one
		// per originating call site): all of x's, plus y's that have no
		// counterpart in x.
		var backProcs []int
		matched := map[int]int{}
		if x != nil {
			for _, to := range x.Backedges {
				if t, ok := a.Nodes[to]; ok {
					backProcs = append(backProcs, t.Proc)
					matched[t.Proc]++
				}
			}
		}
		if y != nil {
			for _, to := range y.Backedges {
				t, ok := b.Nodes[to]
				if !ok {
					continue
				}
				if matched[t.Proc] > 0 {
					matched[t.Proc]--
				} else {
					backProcs = append(backProcs, t.Proc)
				}
			}
		}

		prev, hadPrev := ancestors[n.Proc]
		ancestors[n.Proc] = n
		defer func() {
			if hadPrev {
				ancestors[n.Proc] = prev
			} else {
				delete(ancestors, n.Proc)
			}
		}()
		for _, p := range backProcs {
			if anc := ancestors[p]; anc != nil {
				pending = append(pending, pendingBack{from: n, to: anc})
			}
		}

		// Children match by procedure within the parent (one record per
		// procedure per context, as the CCT equivalence guarantees).
		var xs, ys []*ExportedNode
		if x != nil {
			xs = x.Children
		}
		if y != nil {
			ys = y.Children
		}
		byProc := map[int]*ExportedNode{}
		for _, c := range ys {
			if _, dup := byProc[c.Proc]; dup {
				// Site-distinguished trees can hold several records of the
				// same procedure under one parent (different sites). Fall
				// back to positional pairing for those.
				byProc = nil
				break
			}
			byProc[c.Proc] = c
		}
		if byProc != nil {
			n.Children = make([]*ExportedNode, 0, max(len(xs), len(ys)))
			seen := map[int]bool{}
			for _, cx := range xs {
				cy := byProc[cx.Proc]
				if cy != nil && !seen[cx.Proc] {
					seen[cx.Proc] = true
				} else {
					cy = nil
				}
				n.Children = append(n.Children, merge(cx, cy))
			}
			for _, cy := range ys {
				if !seen[cy.Proc] {
					n.Children = append(n.Children, merge(nil, cy))
				}
			}
		} else {
			n.Children = make([]*ExportedNode, 0, max(len(xs), len(ys)))
			for i := 0; i < len(xs) || i < len(ys); i++ {
				var cx, cy *ExportedNode
				if i < len(xs) {
					cx = xs[i]
				}
				if i < len(ys) {
					cy = ys[i]
				}
				n.Children = append(n.Children, merge(cx, cy))
			}
		}
		return n
	}
	out.Root = merge(a.Root, b.Root)
	out.Root.ID = 0
	// Re-number depth-first and rebuild the index.
	var index func(n *ExportedNode)
	index = func(n *ExportedNode) {
		out.Nodes[n.ID] = n
		for _, c := range n.Children {
			c.ID = nextID
			c.ParentID = n.ID
			nextID++
			index(c)
		}
	}
	index(out.Root)
	for _, pb := range pending {
		pb.from.Backedges = append(pb.from.Backedges, pb.to.ID)
	}
	if out.HasStructure {
		// Exact for same-shape inputs; for grafted subtrees the footprint
		// grows by the grafted records (list reallocations, which the export
		// does not model per-slot, are not charged).
		out.SizeBytes = a.SizeBytes + graftedBytes
		out.ListElems = a.ListElems
	}
	return out, nil
}

// FoldSlotStats folds src's per-site states into dst in place (growing
// dst to src's length) and returns it. A site stays "one path" only if both
// sides saw the same single prefix. This is the one slot-state rule:
// MergeExports applies it to a copy of the left record's slots, and the
// collector's in-place aggregate applies it to its own.
func FoldSlotStats(dst, src []SlotStat) []SlotStat {
	for len(dst) < len(src) {
		dst = append(dst, SlotStat{})
	}
	for i := range src {
		s := &dst[i]
		s.Used = s.Used || src[i].Used
		switch src[i].PathState {
		case 1:
			switch s.PathState {
			case 0:
				s.PathState = 1
				s.PathPrefix = src[i].PathPrefix
			case 1:
				if s.PathPrefix != src[i].PathPrefix {
					s.PathState = 2
					s.PathPrefix = 0
				}
			}
		case 2:
			s.PathState = 2
			s.PathPrefix = 0
		}
	}
	return dst
}

// MergeAllExports reduces a set of decoded CCT files into one by a
// tree-structured pairwise merge. Pairs at the same level are independent
// and merge concurrently; the pairing pattern is fixed (neighbours at
// doubling strides), so the result does not depend on scheduling. For
// same-shape inputs (identical deterministic runs, as in sharded
// collection) it is byte-identical to a left-to-right serial fold of
// MergeExports. For differently shaped inputs only the metric and
// path-count totals are guaranteed to match that fold: exports carry no
// per-child call-site index, so MergeExports pairs duplicate-procedure
// children by position, and the node count can depend on grouping.
func MergeAllExports(exports []*Export) (*Export, error) {
	switch len(exports) {
	case 0:
		return nil, fmt.Errorf("cct: no exports to merge")
	case 1:
		return exports[0], nil
	}
	work := append([]*Export(nil), exports...)
	for stride := 1; stride < len(work); stride *= 2 {
		var wg sync.WaitGroup
		var mu sync.Mutex
		var firstErr error
		for i := 0; i+stride < len(work); i += 2 * stride {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				m, err := MergeExports(work[i], work[i+stride])
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				work[i] = m
			}()
		}
		wg.Wait()
		if firstErr != nil {
			return nil, firstErr
		}
	}
	return work[0], nil
}

// TotalMetric sums metric slot i over all records.
func (ex *Export) TotalMetric(i int) int64 {
	var sum int64
	for id, n := range ex.Nodes {
		if id == 0 {
			continue
		}
		if i < len(n.Metrics) {
			sum += n.Metrics[i]
		}
	}
	return sum
}
