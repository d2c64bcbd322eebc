package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
)

func TestPassOrderIsSeeded(t *testing.T) {
	const n = 57
	for pass := 0; pass < 3; pass++ {
		a, b := passOrder(7, pass, n), passOrder(7, pass, n)
		if !slices.Equal(a, b) {
			t.Fatalf("pass %d: seed 7 gave two op lists", pass)
		}
		if slices.Equal(a, passOrder(8, pass, n)) {
			t.Fatalf("pass %d: seeds 7 and 8 gave the same op list", pass)
		}
		sorted := slices.Clone(a)
		slices.Sort(sorted)
		for i, v := range sorted {
			if v != i {
				t.Fatalf("pass %d is not a permutation of the %d cases: %v", pass, n, a)
			}
		}
	}
}

func TestIngestOpsAreSeeded(t *testing.T) {
	const pool = 38
	a := ingestOps(7, pool)
	if !reflect.DeepEqual(a, ingestOps(7, pool)) {
		t.Fatal("seed 7 gave two op lists")
	}
	if reflect.DeepEqual(a, ingestOps(8, pool)) {
		t.Fatal("seeds 7 and 8 gave the same op list")
	}
	// Every pass has the same composition whatever the seed.
	uses := make([]int, pool)
	var frames, singles, queries int
	for _, op := range a {
		switch op.kind {
		case opFrame:
			frames++
		case opSingle:
			singles++
		case opQuery:
			queries++
		}
		for _, e := range op.envs {
			uses[e]++
		}
	}
	if frames != ingestMaxFrame || singles != ingestSingles || queries != 3 {
		t.Fatalf("%d frames, %d singles, %d queries", frames, singles, queries)
	}
	for e, u := range uses {
		if u != 57 {
			t.Fatalf("envelope %d pushed %d times, want 57", e, u)
		}
	}
}

// passDigest runs pass 0 of b in seed's order and hashes every op's output
// in order.
func passDigest(t *testing.T, b bench, seed int64, output func(slot int) string) string {
	t.Helper()
	if err := b.setup(); err != nil {
		t.Fatal(err)
	}
	defer b.teardown()
	h := sha256.New()
	for _, s := range passOrder(seed, 0, b.slots()) {
		if _, err := b.do(s); err != nil {
			t.Fatal(err)
		}
		if err := b.verify(s); err != nil {
			t.Fatal(err)
		}
		io.WriteString(h, output(s))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestSameSeedSameOutputs(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	optimize := func(seed int64) string {
		b := newOptimizeBench(seed, newTracer(), ref)
		return passDigest(t, b, seed, func(int) string { return fmt.Sprintf("%s %d;", b.rt.Winner, b.rt.After.Cycles) })
	}
	ingest := func(seed int64) string {
		b := newIngestBench(seed, newTracer(), out)
		return passDigest(t, b, seed, func(i int) string {
			if b.ops[i].kind == opQuery {
				return b.table
			}
			return fmt.Sprintf("%+v;", *b.resp)
		})
	}
	for name, digest := range map[string]func(int64) string{"optimize": optimize, "ingest": ingest} {
		a, b, c := digest(3), digest(3), digest(4)
		if a != b {
			t.Errorf("%s: seed 3 gave output digests %s and %s", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 3 and 4 gave the same ordered outputs", name)
		}
	}
}

// benchmarkSpec is the part of BENCHMARK.json the binary must honour.
type benchmarkSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func checkMetrics(t *testing.T, what string, got metrics, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json lists %d", what, len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", what, w.Name)
		} else if m.Unit != w.Unit {
			t.Errorf("%s: metric %s in %s, BENCHMARK.json says %s", what, w.Name, m.Unit, w.Unit)
		}
	}
}

// TestSmoke runs one untraced and one traced pass of every workload and
// checks that it is correct and reports every metric BENCHMARK.json names,
// with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := loadSpec(t)
	for _, name := range []string{"profile", "ingest", "optimize"} {
		t.Run(name, func(t *testing.T) {
			o := options{workload: name, seed: 1, trace: true, out: t.TempDir(), passes: 1}
			out, err := execute(o, os.Stderr)
			if err != nil {
				t.Fatal(err)
			}
			if !out.res.Correct || out.res.Attempted == 0 {
				t.Fatalf("result %+v", out.res)
			}
			checkMetrics(t, name+" end-to-end", out.e2e, spec.EndToEnd)
			checkMetrics(t, name+" per-layer", out.layers, spec.PerLayer)
			for _, m := range spec.EndToEnd {
				if v := out.e2e[m.Name].Value; v <= 0 {
					t.Errorf("%s = %v, want > 0", m.Name, v)
				}
			}
		})
	}
}

// TestResultLine checks the command's printed contract on the fastest
// workload: the last line of standard output is one JSON object with
// exactly correct, attempted, failed and metrics, the metrics being the
// end-to-end set untraced and the per-layer set traced.
func TestResultLine(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the optimize workload twice")
	}
	spec := loadSpec(t)
	for trace, want := range map[string][]struct{ Name, Unit string }{"0": spec.EndToEnd, "1": spec.PerLayer} {
		var stdout, stderr bytes.Buffer
		args := []string{"-workload", "optimize", "-seed", "5", "-seconds", "0", "-trace", trace, "-out", t.TempDir()}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("trace %s: exit %d: %s", trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var fields map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &fields); err != nil {
			t.Fatalf("trace %s: last line: %v", trace, err)
		}
		if len(fields) != 4 || fields["correct"] == nil || fields["attempted"] == nil || fields["failed"] == nil || fields["metrics"] == nil {
			t.Fatalf("trace %s: keys of %s", trace, lines[len(lines)-1])
		}
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		// At least one pass of every (program, k) case.
		if !res.Correct || res.Attempted < len(newOptimizeBench(5, newTracer(), nil).cases) || res.Failed != 0 {
			t.Errorf("trace %s: correct=%v attempted=%d failed=%d", trace, res.Correct, res.Attempted, res.Failed)
		}
		checkMetrics(t, "trace "+trace, res.Metrics, want)
	}
}
