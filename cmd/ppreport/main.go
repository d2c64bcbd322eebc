// Command ppreport analyzes saved profiles (written by cmd/pp -profile):
// it prints Table 4/5-style classifications, merges profiles from repeated
// runs, and sweeps hot-path thresholds.
//
// Usage:
//
//	ppreport -in run.prof [-threshold 0.01] [-top 15]
//	ppreport -in a.prof -merge b.prof -out merged.prof
//	ppreport -in run.prof -sweep
package main

import (
	"cmp"
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strings"

	"pathprof/internal/analysis"
	"pathprof/internal/cct"
	"pathprof/internal/profile"
	"pathprof/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ppreport: ")

	in := flag.String("in", "", "profile file to analyze")
	cctIn := flag.String("cct", "", "calling-context-tree file to analyze (from pp -cctout)")
	mergeCCT := flag.String("mergecct", "", "second CCT file to merge into -cct before analyzing")
	mergeWith := flag.String("merge", "", "second profile to merge into -in")
	out := flag.String("out", "", "write the (merged) profile here")
	threshold := flag.Float64("threshold", analysis.DefaultHotThreshold, "hot-path miss threshold")
	top := flag.Int("top", 15, "hot paths to list")
	sweep := flag.Bool("sweep", false, "sweep thresholds 10%..0.1% and report coverage")
	flag.Parse()

	if *cctIn != "" {
		analyzeCCT(*cctIn, *mergeCCT)
		return
	}
	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}
	prof := load(*in)

	if *mergeWith != "" {
		if err := mergeFile(prof, *mergeWith); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("merged %s into %s\n", *mergeWith, *in)
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		if err := prof.Write(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("profile written to %s\n", *out)
		return
	}

	freq, metrics := prof.Totals()
	fmt.Printf("profile %s (%s), events %s\n", prof.Program, prof.Mode, strings.Join(prof.Events, "/"))
	totals := make([]string, len(metrics))
	for i, m := range metrics {
		totals[i] = fmt.Sprint(m)
	}
	fmt.Printf("%d procedures, %d executed paths, %d path executions, %s metric totals\n\n",
		len(prof.Procs), prof.TotalExecutedPaths(), freq, strings.Join(totals, "/"))

	if *sweep {
		t := &report.Table{
			Title: "Hot-path threshold sweep",
			Cols:  []string{"Threshold", "Hot paths", "Miss coverage", "Inst coverage"},
		}
		for _, th := range []float64{0.10, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001} {
			r := analysis.ClassifyPaths(prof, th)
			t.AddRow(report.Pct(th), r.Hot.Num,
				report.Pct(r.Hot.MissFrac(r.TotalMisses)),
				report.Pct(r.Hot.InstFrac(r.TotalInsts)))
		}
		t.Render(os.Stdout)
		return
	}

	rep := analysis.ClassifyPaths(prof, *threshold)
	t := &report.Table{
		Title: fmt.Sprintf("Path classification at %s (dense = above-average miss ratio %.5f)",
			report.Pct(*threshold), rep.AvgRatio),
		Cols: []string{"Class", "Paths", "Insts", "Misses", "MissShare"},
	}
	add := func(name string, c analysis.ClassTotals) {
		t.AddRow(name, c.Num, report.SI(c.Insts), report.SI(c.Misses),
			report.Pct(c.MissFrac(rep.TotalMisses)))
	}
	add("hot", rep.Hot)
	add("  dense", rep.Dense)
	add("  sparse", rep.Sparse)
	add("cold", rep.Cold)
	t.Render(os.Stdout)

	t2 := &report.Table{
		Title: fmt.Sprintf("Top %d hot paths", min(*top, len(rep.HotPaths))),
		Cols:  []string{"Proc", "PathID", "Freq", "M0", "M1", "M0/M1"},
	}
	for i, p := range rep.HotPaths {
		if i >= *top {
			break
		}
		t2.AddRow(p.Proc, p.Sum, p.Freq, p.Misses, p.Insts, fmt.Sprintf("%.4f", p.MissRatio()))
	}
	t2.Render(os.Stdout)

	pr := analysis.ClassifyProcs(prof, *threshold)
	t3 := &report.Table{
		Title: "Procedure classification",
		Cols:  []string{"Class", "Procs", "Paths/Proc", "MissShare"},
	}
	addP := func(name string, c analysis.ProcClass) {
		t3.AddRow(name, c.Num, fmt.Sprintf("%.1f", c.PathsPerProc),
			report.Pct(frac(c.Misses, pr.TotalMisses)))
	}
	addP("hot", pr.Hot)
	addP("  dense", pr.Dense)
	addP("  sparse", pr.Sparse)
	addP("cold", pr.Cold)
	t3.Render(os.Stdout)
}

// analyzeCCT reports on a saved calling context tree, optionally merged
// with a second run's tree.
func analyzeCCT(path, mergePath string) {
	ex := loadCCT(path)
	if mergePath != "" {
		other := loadCCT(mergePath)
		merged, err := cct.MergeExports(ex, other)
		if err != nil {
			log.Fatal(err)
		}
		ex = merged
		fmt.Printf("merged %s into %s\n", mergePath, path)
	}
	st := ex.Stats()
	fmt.Printf("calling context tree: %d procedures declared, %d records\n", ex.NumProcs, st.Nodes)
	fmt.Printf("height: avg %.1f max %d; avg out-degree %.1f; max replication %d\n",
		st.AvgHeight, st.MaxHeight, st.AvgOutDegree, st.MaxReplication)

	// Hottest contexts by metric slot 1 (PIC0 delta) when present.
	type row struct {
		id    int
		m     int64
		calls int64
	}
	var rows []row
	for id, n := range ex.Nodes {
		if id == 0 || len(n.Metrics) == 0 {
			continue
		}
		r := row{id: id, calls: n.Metrics[0]}
		if len(n.Metrics) > 1 {
			r.m = n.Metrics[1]
		}
		rows = append(rows, r)
	}
	slices.SortFunc(rows, func(a, b row) int {
		// rows come from map iteration; break metric ties by node ID so the
		// listing is fully determined.
		if c := cmp.Compare(b.m, a.m); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	t := &report.Table{
		Title: "Records by metric slot 1",
		Cols:  []string{"Node", "Proc", "Calls", "Metric1", "Paths"},
	}
	for i, r := range rows {
		if i >= 12 {
			break
		}
		n := ex.Nodes[r.id]
		t.AddRow(r.id, n.Proc, r.calls, r.m, n.PathCounts.Len())
	}
	t.Render(os.Stdout)
}

func loadCCT(path string) *cct.Export {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	ex, err := cct.Read(f)
	if err != nil {
		log.Fatal(err)
	}
	return ex
}

func load(path string) *profile.Profile {
	p, err := readProfile(path)
	if err != nil {
		log.Fatal(err)
	}
	return p
}

func readProfile(path string) (*profile.Profile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return profile.Read(f)
}

// mergeFile merges the profile saved at path into prof (-merge); profiles
// of different modes or metric schemas are rejected.
func mergeFile(prof *profile.Profile, path string) error {
	other, err := readProfile(path)
	if err != nil {
		return err
	}
	if err := prof.Merge(other); err != nil {
		return fmt.Errorf("merging %s: %w", path, err)
	}
	return nil
}

func frac(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
