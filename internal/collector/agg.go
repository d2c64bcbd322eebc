package collector

import (
	"fmt"

	"pathprof/internal/cct"
	"pathprof/internal/flat"
	"pathprof/internal/profile"
	"pathprof/internal/wire"
)

// This file holds the shard-resident aggregate forms: the collector's
// in-place fold, one of the two merge implementations per profile type.
// The other is the reference merge (profile.(*Profile).Merge and
// cct.MergeExports/MergeAllExports), which builds a fresh result and is
// what queries use to combine per-shard snapshots.
//
// Every push reaches the fold as a decoded frame item; a legacy
// version-1/2 envelope is converted to a one-item frame first
// (Collector.applyPayload). Each shard folds items in place into flat
// scratch aggregates:
//
//   - profAgg keys path entries by sum through a flat.Table, so folding a
//     batch item is hash-probe + add per path, no allocation once the path
//     set is stable;
//   - cctAgg follows cct.MergeExports node for node, but mutates the
//     existing tree (metrics +=, PathCounts.Add, cct.FoldSlotStats)
//     instead of building a new one, allocating only when a push grafts
//     records the aggregate has not seen.
//
// Queries snapshot an aggregate under the shard lock into a fresh
// profile.Profile / cct.Export, so readers never share mutable state with
// the fold path. The fold rules match the reference merge exactly — the
// correctness oracle is byte-identity of the rendered tables against
// Table3Sharded/Table5 at any batch size and shard count (see
// TestBatchIngestMatchesSingles and the relay e2e).

// --- profile aggregates ---

// procAgg is one procedure's folded path table in column form: row j is
// (sums[j], freqs[j], metrics[j*width:(j+1)*width]), indexed by path sum.
type procAgg struct {
	procID   int
	name     string
	numPaths int64
	k        int         // effective iteration degree; 0 in classic profiles
	index    *flat.Table // path sum -> row
	sums     []int64
	freqs    []uint64
	metrics  []uint64
}

// profAgg is one program's folded flow-sensitive profile.
type profAgg struct {
	program string
	mode    string
	events  []string
	k       int    // iteration degree; 0 when classic (see aggK)
	schema  string // SchemaKey of (k, events)
	procs   []*procAgg
}

// aggK normalizes an iteration degree for aggregation: 0 and 1 both mean
// classic single-iteration paths and must compare (and fold) as equal.
// Degrees >1 are distinct id spaces — a k=2 push into a k=3 aggregate is
// a schema conflict, never a silent merge of unrelated path ids.
func aggK(k int) int {
	if k <= 1 {
		return 0
	}
	return k
}

// newProfAggBatch seeds an aggregate from a decoded batch item.
func newProfAggBatch(bp *wire.BatchProfile) *profAgg {
	a := &profAgg{
		program: string(bp.Program),
		mode:    string(bp.Mode),
		events:  make([]string, len(bp.Events)),
	}
	for i, ev := range bp.Events {
		a.events[i] = string(ev)
	}
	a.k = aggK(bp.K)
	a.schema = profile.SchemaKeyFor(a.k, a.events)
	w := len(a.events)
	a.procs = make([]*procAgg, len(bp.Procs))
	for i := range bp.Procs {
		pr := &bp.Procs[i]
		pa := &procAgg{
			procID:   pr.ProcID,
			name:     string(pr.Name),
			numPaths: pr.NumPaths,
			k:        pr.K,
			index:    flat.New(pr.N),
			sums:     append([]int64(nil), bp.Sums[pr.Off:pr.Off+pr.N]...),
			freqs:    append([]uint64(nil), bp.Freqs[pr.Off:pr.Off+pr.N]...),
			metrics:  append([]uint64(nil), bp.Metrics[pr.Off*w:(pr.Off+pr.N)*w]...),
		}
		for j, s := range pa.sums {
			pa.index.Set(s, int64(j))
		}
		a.procs[i] = pa
	}
	return a
}

// checkShape validates bp's mode, schema and procedure layout against the
// aggregate before any mutation (a rejected push must leave the aggregate
// untouched, which for an in-place fold means validating up front). It
// rebuilds the item's identity as strings, so it runs only on the error
// path of foldBatch and when a shard seeds a new aggregate.
func (a *profAgg) checkShape(bp *wire.BatchProfile) error {
	if a.mode != string(bp.Mode) {
		return &conflictError{fmt.Errorf("profile mode %q conflicts with aggregated mode %q", bp.Mode, a.mode)}
	}
	events := make([]string, len(bp.Events))
	for i, ev := range bp.Events {
		events[i] = string(ev)
	}
	if schema := profile.SchemaKeyFor(aggK(bp.K), events); a.schema != schema {
		return &conflictError{fmt.Errorf("profile metric schema %q conflicts with aggregated schema %q", schema, a.schema)}
	}
	if len(a.procs) != len(bp.Procs) {
		return &conflictError{fmt.Errorf("profile: merge shape mismatch: %d vs %d procs", len(a.procs), len(bp.Procs))}
	}
	for i, pa := range a.procs {
		if pa.procID != bp.Procs[i].ProcID {
			return &conflictError{fmt.Errorf("profile: merge proc mismatch at %d", i)}
		}
	}
	return nil
}

// foldRow adds one path observation to the procedure (hash hit: pure
// adds; miss: append a row).
func (pa *procAgg) foldRow(sum int64, freq uint64, metrics []uint64) {
	if j, ok := pa.index.Get(sum); ok {
		pa.freqs[j] += freq
		base := int(j) * len(metrics)
		for k, m := range metrics {
			pa.metrics[base+k] += m
		}
		return
	}
	pa.index.Set(sum, int64(len(pa.sums)))
	pa.sums = append(pa.sums, sum)
	pa.freqs = append(pa.freqs, freq)
	pa.metrics = append(pa.metrics, metrics...)
}

// foldBatch merges a decoded batch item in place. Steady state (stable
// path set per program) performs no allocation: the shape check compares
// frame bytes against aggregate strings directly, and every row lands in
// an existing slot.
func (a *profAgg) foldBatch(bp *wire.BatchProfile) error {
	if a.mode != string(bp.Mode) { // comparison does not allocate
		return a.checkShape(bp)
	}
	if a.k != aggK(bp.K) {
		return a.checkShape(bp)
	}
	if len(a.events) != len(bp.Events) {
		return a.checkShape(bp)
	}
	for i, ev := range bp.Events {
		if a.events[i] != string(ev) {
			return a.checkShape(bp)
		}
	}
	if len(a.procs) != len(bp.Procs) {
		return a.checkShape(bp)
	}
	for i := range bp.Procs {
		if a.procs[i].procID != bp.Procs[i].ProcID {
			return a.checkShape(bp)
		}
	}
	w := len(a.events)
	for i := range bp.Procs {
		pr := &bp.Procs[i]
		pa := a.procs[i]
		for j := 0; j < pr.N; j++ {
			row := pr.Off + j
			pa.foldRow(bp.Sums[row], bp.Freqs[row], bp.Metrics[row*w:(row+1)*w])
		}
	}
	return nil
}

// snapshot materializes the aggregate as a fresh profile. Entries are
// sorted by path sum — the order every merged profile has (Merge sorts
// after folding, and producers emit sorted profiles).
func (a *profAgg) snapshot() *profile.Profile {
	p := &profile.Profile{
		Program: a.program,
		Mode:    a.mode,
		Events:  append([]string(nil), a.events...),
		K:       a.k,
	}
	w := len(a.events)
	p.Procs = make([]*profile.ProcPaths, len(a.procs))
	for i, pa := range a.procs {
		pp := &profile.ProcPaths{ProcID: pa.procID, Name: pa.name, NumPaths: pa.numPaths, K: pa.k}
		pp.Entries = make([]profile.PathEntry, len(pa.sums))
		for j := range pa.sums {
			e := &pp.Entries[j]
			e.Sum = pa.sums[j]
			e.Freq = pa.freqs[j]
			if w > 0 {
				e.Metrics = pp.NewMetrics(w)
				copy(e.Metrics, pa.metrics[j*w:(j+1)*w])
			}
		}
		pp.Sort()
		p.Procs[i] = pp
	}
	return p
}

// --- CCT aggregates ---

// aggNode is one record of the folded calling context tree.
type aggNode struct {
	proc      int32
	metrics   []int64
	pc        *flat.Table
	children  []*aggNode
	backedges []*aggNode // resolved targets (ancestors)
	size      uint64
	slots     []cct.SlotStat
	snapID    int // transient preorder id, valid only during a snapshot
}

// cctAgg is one program's folded CCT.
type cctAgg struct {
	program          string
	numProcs         int
	distinguishSites bool
	numMetrics       int
	hasStructure     bool
	sizeBytes        uint64
	listElems        int
	root             *aggNode
}

// ancestors is the fold-time proc -> nearest-enclosing-record map,
// reused across folds (procs are dense small integers, so a slice
// replaces cct.MergeExports' map).
type ancestors []*aggNode

func (sc *foldScratch) ancestorsFor(numProcs int) ancestors {
	if cap(sc.anc) < numProcs {
		sc.anc = make([]*aggNode, numProcs)
	}
	sc.anc = sc.anc[:numProcs]
	for i := range sc.anc {
		sc.anc[i] = nil
	}
	return sc.anc
}

// newCCTAgg seeds an aggregate from a decoded batch item by folding it
// into an empty tree, which grafts every record. The seed keeps the
// item's own heap footprint, so the grafted byte count is not added.
func newCCTAgg(bc *wire.BatchCCT, sc *foldScratch) (*cctAgg, error) {
	a := &cctAgg{
		program:          string(bc.Program),
		numProcs:         bc.NumProcs,
		distinguishSites: bc.DistinguishSites,
		numMetrics:       bc.NumMetrics,
		hasStructure:     bc.HasStructure,
		sizeBytes:        bc.SizeBytes,
		listElems:        bc.ListElems,
		root:             &aggNode{proc: -1, pc: flat.New(0)},
	}
	var grafted uint64
	if err := a.foldNode(a.root, bc, 0, sc.ancestorsFor(a.numProcs), &grafted); err != nil {
		return nil, err
	}
	return a, nil
}

// graft deep-copies the batch subtree rooted at node id into new
// aggregate records, resolving backedges against anc.
func (a *cctAgg) graft(bc *wire.BatchCCT, id int32, anc ancestors, grafted *uint64) (*aggNode, error) {
	bn := &bc.Nodes[id-1]
	if bn.Proc < 0 || int(bn.Proc) >= a.numProcs {
		return nil, fmt.Errorf("cct node proc %d out of range (program has %d procs)", bn.Proc, a.numProcs)
	}
	n := &aggNode{proc: bn.Proc, size: bn.Size}
	if bn.MetN > 0 {
		n.metrics = append([]int64(nil), bc.Metrics[bn.MetOff:bn.MetOff+bn.MetN]...)
	}
	n.pc = flat.New(int(bn.PCN))
	for k := int32(0); k < bn.PCN; k++ {
		n.pc.Set(bc.PCSums[bn.PCOff+k], bc.PCCounts[bn.PCOff+k])
	}
	if bn.SlotN > 0 {
		n.slots = append([]cct.SlotStat(nil), bc.Slots[bn.SlotOff:bn.SlotOff+bn.SlotN]...)
	}
	*grafted += bn.Size

	// Install self before resolving backedges: a self-recursive edge
	// targets this record (as in MergeExports, which installs the node in
	// ancestors before resolving).
	prev := anc[n.proc]
	anc[n.proc] = n
	for _, be := range bc.Backedges {
		if be.From != id {
			continue
		}
		tp := bc.Nodes[be.To-1].Proc
		if tp < 0 || int(tp) >= a.numProcs {
			continue
		}
		if t := anc[tp]; t != nil {
			n.backedges = append(n.backedges, t)
		}
		// No matching ancestor: drop the backedge, as MergeExports does.
	}
	for _, cid := range bc.Children(id) {
		ch, err := a.graft(bc, cid, anc, grafted)
		if err != nil {
			anc[n.proc] = prev
			return nil, err
		}
		n.children = append(n.children, ch)
	}
	anc[n.proc] = prev
	return n, nil
}

// foldBatch merges a decoded batch item into the aggregate in place,
// replicating cct.MergeExports record for record. Same-shape pushes (the
// sharded-collection steady state) allocate nothing: metrics and path
// counts fold into existing storage and no records are grafted.
func (a *cctAgg) foldBatch(bc *wire.BatchCCT, sc *foldScratch) error {
	if err := a.checkShape(bc); err != nil {
		return err
	}
	if a.program == "" {
		a.program = string(bc.Program)
	}
	a.hasStructure = a.hasStructure && bc.HasStructure
	anc := sc.ancestorsFor(a.numProcs)
	var grafted uint64
	if err := a.foldNode(a.root, bc, 0, anc, &grafted); err != nil {
		return err
	}
	a.sizeBytes += grafted
	return nil
}

// checkShape validates bc's procedure count and call-site option against
// the aggregate, with cct.MergeExports' rejection message.
func (a *cctAgg) checkShape(bc *wire.BatchCCT) error {
	if a.numProcs != bc.NumProcs || a.distinguishSites != bc.DistinguishSites {
		return &conflictError{fmt.Errorf("cct: merge shape mismatch: %d/%v procs vs %d/%v",
			a.numProcs, a.distinguishSites, bc.NumProcs, bc.DistinguishSites)}
	}
	return nil
}

// foldNode merges batch node yID (0 = the implicit root) into x.
func (a *cctAgg) foldNode(x *aggNode, bc *wire.BatchCCT, yID int32, anc ancestors, grafted *uint64) error {
	if yID > 0 {
		bn := &bc.Nodes[yID-1]
		for k := int32(0); k < bn.MetN; k++ {
			m := bc.Metrics[bn.MetOff+k]
			if int(k) < len(x.metrics) {
				x.metrics[k] += m
			} else {
				x.metrics = append(x.metrics, m)
			}
		}
		for k := int32(0); k < bn.PCN; k++ {
			x.pc.Add(bc.PCSums[bn.PCOff+k], bc.PCCounts[bn.PCOff+k])
		}
		// x.size stays (merge keeps x's record size).
		x.slots = cct.FoldSlotStats(x.slots, bc.Slots[bn.SlotOff:bn.SlotOff+bn.SlotN])
	}

	// Install self before backedge resolution and child folds.
	var prev *aggNode
	if x.proc >= 0 && int(x.proc) < len(anc) {
		prev = anc[x.proc]
		anc[x.proc] = x
		defer func() { anc[x.proc] = prev }()
	}

	// Union backedges by target procedure with multiplicity: x's stay as
	// they are; each of y's either consumes one of x's with the same
	// target proc or appends a new edge resolved against the ancestors.
	if yID > 0 {
		nxBack := len(x.backedges)
		for bi, be := range bc.Backedges {
			if be.From != yID {
				continue
			}
			tp := bc.Nodes[be.To-1].Proc
			if tp < 0 || int(tp) >= a.numProcs {
				continue
			}
			matched := 0
			for _, xb := range x.backedges[:nxBack] {
				if xb.proc == tp {
					matched++
				}
			}
			seen := 0
			for _, pe := range bc.Backedges[:bi] {
				if pe.From == yID && bc.Nodes[pe.To-1].Proc == tp {
					seen++
				}
			}
			if seen < matched {
				continue // paired with one of x's edges
			}
			if t := anc[tp]; t != nil {
				x.backedges = append(x.backedges, t)
			}
		}
	}

	// Children match by procedure within the parent; site-distinguished
	// trees can repeat a procedure under one parent, which falls back to
	// positional pairing (both rules exactly as MergeExports).
	ys := bc.Children(yID)
	nx := len(x.children)
	xs := x.children[:nx]
	dup := false
	for i := 1; i < len(ys) && !dup; i++ {
		pi := bc.Nodes[ys[i]-1].Proc
		for j := 0; j < i; j++ {
			if bc.Nodes[ys[j]-1].Proc == pi {
				dup = true
				break
			}
		}
	}
	if !dup {
		for i, cx := range xs {
			first := true
			for _, p := range xs[:i] {
				if p.proc == cx.proc {
					first = false
					break
				}
			}
			if !first {
				continue // a later duplicate-proc x child merges with nothing
			}
			for _, cid := range ys {
				if bc.Nodes[cid-1].Proc == cx.proc {
					if err := a.foldNode(cx, bc, cid, anc, grafted); err != nil {
						return err
					}
					break
				}
			}
		}
		for _, cid := range ys {
			cp := bc.Nodes[cid-1].Proc
			found := false
			for _, cx := range xs {
				if cx.proc == cp {
					found = true
					break
				}
			}
			if !found {
				ch, err := a.graft(bc, cid, anc, grafted)
				if err != nil {
					return err
				}
				x.children = append(x.children, ch)
			}
		}
	} else {
		for i := 0; i < len(xs) || i < len(ys); i++ {
			switch {
			case i < len(xs) && i < len(ys):
				if err := a.foldNode(xs[i], bc, ys[i], anc, grafted); err != nil {
					return err
				}
			case i < len(ys):
				ch, err := a.graft(bc, ys[i], anc, grafted)
				if err != nil {
					return err
				}
				x.children = append(x.children, ch)
			}
		}
	}
	return nil
}

// snapshot materializes the aggregate as a fresh export with preorder
// node IDs, sharing no mutable state with the aggregate.
func (a *cctAgg) snapshot() *cct.Export {
	ex := &cct.Export{
		NumProcs:         a.numProcs,
		DistinguishSites: a.distinguishSites,
		NumMetrics:       a.numMetrics,
		Program:          a.program,
		HasStructure:     a.hasStructure,
		Nodes:            map[int]*cct.ExportedNode{},
	}
	if a.hasStructure {
		ex.SizeBytes = a.sizeBytes
		ex.ListElems = a.listElems
	}
	next := 1
	var walk func(an *aggNode, parentID int) *cct.ExportedNode
	walk = func(an *aggNode, parentID int) *cct.ExportedNode {
		id := 0
		if parentID >= 0 {
			id = next
			next++
		}
		an.snapID = id
		n := &cct.ExportedNode{
			ID:         id,
			ParentID:   max(parentID, 0),
			Proc:       int(an.proc),
			PathCounts: an.pc.Clone(),
			Size:       an.size,
		}
		if len(an.metrics) > 0 {
			n.Metrics = append([]int64(nil), an.metrics...)
		}
		if len(an.slots) > 0 {
			n.Slots = append([]cct.SlotStat(nil), an.slots...)
		}
		// Backedge targets are ancestors, so their preorder IDs are
		// already assigned when the referencing node is walked.
		for _, t := range an.backedges {
			n.Backedges = append(n.Backedges, t.snapID)
		}
		ex.Nodes[id] = n
		for _, ch := range an.children {
			n.Children = append(n.Children, walk(ch, id))
		}
		return n
	}
	ex.Root = walk(a.root, -1)
	return ex
}
