package cct

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// leftFold merges exports left to right with MergeExports.
func leftFold(t *testing.T, exports []*Export) *Export {
	t.Helper()
	acc := exports[0]
	for _, ex := range exports[1:] {
		var err error
		if acc, err = MergeExports(acc, ex); err != nil {
			t.Fatal(err)
		}
	}
	return acc
}

func exportText(t *testing.T, ex *Export) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ex.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// exportTotals sums every metric slot and every path count of ex.
func exportTotals(ex *Export) (metrics, paths int64) {
	for id, n := range ex.Nodes {
		if id == 0 {
			continue
		}
		for _, m := range n.Metrics {
			metrics += m
		}
		n.PathCounts.Range(func(_, c int64) bool {
			paths += c
			return true
		})
	}
	return metrics, paths
}

// TestMergeAllExportsMatchesLeftFold: for same-shape inputs (the sharded
// collection case) the pairwise reduction is byte-identical to a serial
// left fold. Each input scales the counters differently, so a reduction
// that dropped or repeated an input would not match.
func TestMergeAllExportsMatchesLeftFold(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			tr := buildTreeFromTrace(rand.New(rand.NewSource(int64(40+n))), 4, 2, 600, true)
			inputs := func() []*Export {
				exports := make([]*Export, n)
				for i := range exports {
					ex := tr.Export("x")
					for _, node := range ex.Nodes {
						for k := range node.Metrics {
							node.Metrics[k] *= int64(i + 1)
						}
						node.PathCounts.Range(func(s, c int64) bool {
							node.PathCounts.Set(s, c*int64(i+1))
							return true
						})
					}
					exports[i] = ex
				}
				return exports
			}
			got, err := MergeAllExports(inputs())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(exportText(t, got), exportText(t, leftFold(t, inputs()))) {
				t.Fatal("pairwise reduction differs from the serial left fold")
			}
			if got.Stats() != tr.ComputeStats() {
				t.Fatalf("merged stats %+v, want the single run's %+v", got.Stats(), tr.ComputeStats())
			}
		})
	}
}

// TestMergeAllExportsConservesTotals: differently shaped inputs may merge
// into a different tree than a serial fold would build (duplicate-procedure
// children pair by position), but no metric or path count is lost or
// invented.
func TestMergeAllExportsConservesTotals(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8} {
		exports := make([]*Export, n)
		var wantM, wantP int64
		for i := range exports {
			exports[i] = buildTreeFromTrace(rand.New(rand.NewSource(int64(100+i))), 4, 2, 600, true).Export("x")
			m, p := exportTotals(exports[i])
			wantM += m
			wantP += p
		}
		got, err := MergeAllExports(exports)
		if err != nil {
			t.Fatal(err)
		}
		if m, p := exportTotals(got); m != wantM || p != wantP {
			t.Fatalf("n=%d: merged totals metrics %d paths %d, want %d %d", n, m, p, wantM, wantP)
		}
	}
}

func TestMergeAllExportsErrors(t *testing.T) {
	if _, err := MergeAllExports(nil); err == nil {
		t.Fatal("merged zero exports")
	}
	a := buildTreeFromTrace(rand.New(rand.NewSource(1)), 3, 2, 100, true).Export("x")
	b := buildTreeFromTrace(rand.New(rand.NewSource(2)), 4, 2, 100, true).Export("x")
	if _, err := MergeAllExports([]*Export{a, a, b}); err == nil {
		t.Fatal("merged exports with different procedure counts")
	}
}
