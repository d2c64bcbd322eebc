// Command experiments regenerates the paper's evaluation tables (1-5) on
// the synthetic SPEC95-like suite.
//
// Usage:
//
//	experiments [-table N | -all] [-scale ref|test] [-workloads a,b,c]
//	            [-parallel N] [-shards N] [-k degree] [-kpaths]
//	            [-mux [-events a,b,c,d]]
//	            [-pgo [-pgo-out FILE] [-pgo-gate a,b,c]] [-v]
//
// -parallel sets the experiment engine's worker count (0 means
// GOMAXPROCS, 1 forces serial execution); rendered tables are
// byte-identical at any setting. -shards N collects Table 3's calling
// context trees from N independent instrumented runs merged together —
// output is byte-identical at any shard count. -mux skips the paper
// tables and instead compares time-multiplexed scaled estimates of the
// -events metric set against dedicated-counter runs. -pgo closes the
// loop: each workload is profiled, rewritten by the profile-guided
// optimizer, verified behaviorally equivalent, and re-measured; results
// go to BENCH_pgo.json and -pgo-gate turns regressions on the named
// workloads into a non-zero exit. -k raises the path iteration degree of
// every path-mode cell (ids span up to k loop iterations); -kpaths skips
// the paper tables and renders the k=1 vs k=2,3 comparison of hot
// backedge-crossing paths instead. -v prints per-cell timings to stderr.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"pathprof/internal/experiments"
	"pathprof/internal/hpm"
	"pathprof/internal/pgo"
	"pathprof/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")

	table := flag.Int("table", 0, "table to regenerate (1-6; 6 is the representation-spectrum extension); 0 with -all for everything")
	all := flag.Bool("all", false, "regenerate all tables")
	scale := flag.String("scale", "ref", "workload scale: ref or test")
	only := flag.String("workloads", "", "comma-separated workload subset (default: full suite)")
	parallel := flag.Int("parallel", 0, "worker pool size for cell execution (0 = GOMAXPROCS, 1 = serial)")
	shards := flag.Int("shards", 1, "independent runs to merge per Table 3 CCT (sharded collection)")
	mux := flag.Bool("mux", false, "report multiplexed vs dedicated counter accuracy instead of the paper tables")
	events := flag.String("events", "cycles,insts,loads,branches", "metric set for -mux (comma-separated event names)")
	pgoRun := flag.Bool("pgo", false, "run the profile-guided optimization round trip instead of the paper tables; writes BENCH_pgo.json")
	pgoOut := flag.String("pgo-out", "BENCH_pgo.json", "output path for the -pgo results")
	pgoGate := flag.String("pgo-gate", "", "comma-separated workloads that must show cycle reduction without imiss/mispredict regressions (exit 1 otherwise)")
	kdeg := flag.Int("k", 1, "path iteration degree for path-mode cells (ids span up to k loop iterations)")
	kpaths := flag.Bool("kpaths", false, "report the k-iteration path comparison (k=1 vs k=2,3) instead of the paper tables")
	verbose := flag.Bool("v", false, "print per-cell timing/throughput to stderr")
	flag.Parse()

	sc := workload.Ref
	switch *scale {
	case "ref":
	case "test":
		sc = workload.Test
	default:
		log.Fatalf("unknown scale %q (want ref or test)", *scale)
	}

	s := experiments.NewSession(sc)
	s.Parallel = *parallel
	s.K = *kdeg
	if *only != "" {
		var subset []workload.Workload
		for _, name := range strings.Split(*only, ",") {
			w, ok := workload.ByName(strings.TrimSpace(name))
			if !ok {
				log.Fatalf("unknown workload %q", name)
			}
			subset = append(subset, w)
		}
		s.Workloads = subset
	}

	if *kpaths {
		names := experiments.KPathWorkloads
		if *only != "" {
			names = names[:0:0]
			for _, w := range s.Workloads {
				names = append(names, w.Name)
			}
		}
		cmp, err := experiments.KPaths(sc, names, []int{2, 3})
		exitOn(err)
		experiments.RenderKPaths(cmp, os.Stdout)
		return
	}

	if *pgoRun {
		recs, err := s.PGOAll(pgo.DefaultOptions())
		exitOn(err)
		experiments.RenderPGO(recs, os.Stdout)
		data, err := json.MarshalIndent(recs, "", "  ")
		exitOn(err)
		exitOn(os.WriteFile(*pgoOut, append(data, '\n'), 0o644))
		fmt.Fprintf(os.Stderr, "[pgo results written to %s]\n", *pgoOut)
		if *pgoGate != "" {
			var gate []string
			for _, name := range strings.Split(*pgoGate, ",") {
				gate = append(gate, strings.TrimSpace(name))
			}
			if errs := experiments.CheckPGOGate(recs, gate); len(errs) > 0 {
				for _, err := range errs {
					fmt.Fprintln(os.Stderr, err)
				}
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "[pgo gate passed: %s]\n", *pgoGate)
		}
		return
	}

	if *mux {
		set, err := hpm.ParseMetricSet(*events)
		exitOn(err)
		for i, w := range s.Workloads {
			rows, err := s.MuxAccuracy(w, set)
			exitOn(err)
			if i > 0 {
				fmt.Println()
			}
			experiments.RenderMuxAccuracy(w.Name, set, s.SimConfig.NumCounters, rows, os.Stdout)
		}
		return
	}

	tables := experiments.AllTables
	if !*all && *table != 0 {
		tables = []int{*table}
	}
	exitOn(s.WriteTables(os.Stdout, tables, *shards, func(n int, d time.Duration) {
		fmt.Fprintf(os.Stderr, "[table %d: %.1fs]\n", n, d.Seconds())
	}))

	if *verbose {
		printTimings(s)
	}
}

// printTimings reports what the session actually simulated: one line per
// unique cell (cache hits do not re-run), with wall time and simulation
// throughput.
func printTimings(s *experiments.Session) {
	ts := s.Timings()
	var wall time.Duration
	var instrs uint64
	fmt.Fprintf(os.Stderr, "\n%-10s %-14s %-22s %10s %12s %12s\n",
		"workload", "mode", "events", "wall", "instrs", "instrs/s")
	for _, t := range ts {
		wall += t.Wall
		instrs += t.Instrs
		fmt.Fprintf(os.Stderr, "%-10s %-14s %-22s %10s %12d %12.3e\n",
			t.Workload, t.Mode, t.Events,
			t.Wall.Round(time.Millisecond), t.Instrs, t.InstrsPerSec())
	}
	fmt.Fprintf(os.Stderr, "%d cells simulated, %s total simulation wall time, %d instrs\n",
		len(ts), wall.Round(time.Millisecond), instrs)
}

func exitOn(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
