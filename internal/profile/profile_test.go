package profile

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func sample() *Profile {
	return &Profile{
		Program: "prog", Mode: "flow+hw", Events: []string{"dcache-miss", "insts"},
		Procs: []*ProcPaths{
			{ProcID: 0, Name: "main", NumPaths: 6, Entries: []PathEntry{
				NewEntry(0, 10, 5, 100),
				NewEntry(3, 2, 1, 20),
			}},
			{ProcID: 1, Name: "leaf", NumPaths: 2, Entries: []PathEntry{
				NewEntry(1, 7, 3, 70),
			}},
		},
	}
}

func entriesEqual(a, b PathEntry) bool {
	return a.Sum == b.Sum && a.Freq == b.Freq && slices.Equal(a.Metrics, b.Metrics)
}

func TestWriteReadRoundTrip(t *testing.T) {
	p := sample()
	var buf bytes.Buffer
	if err := p.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Program != p.Program || got.Mode != p.Mode || !slices.Equal(got.Events, p.Events) {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Procs) != 2 || len(got.Procs[0].Entries) != 2 {
		t.Fatalf("shape mismatch: %+v", got)
	}
	if !entriesEqual(got.Procs[0].Entries[1], p.Procs[0].Entries[1]) {
		t.Fatalf("entry mismatch")
	}
}

func TestRoundTripRandom(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := &Profile{Program: "r", Mode: "m", Events: []string{"a", "b"}}
		for i := 0; i < rng.Intn(5)+1; i++ {
			pp := &ProcPaths{ProcID: i, Name: "p", NumPaths: int64(rng.Intn(100) + 1)}
			for j := 0; j < rng.Intn(20); j++ {
				pp.Entries = append(pp.Entries, NewEntry(
					int64(j), uint64(rng.Intn(1000)),
					uint64(rng.Intn(1000)), uint64(rng.Intn(1000)),
				))
			}
			p.Procs = append(p.Procs, pp)
		}
		var buf bytes.Buffer
		if err := p.Write(&buf); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		f1, m1 := p.Totals()
		f2, m2 := got.Totals()
		return f1 == f2 && slices.Equal(m1, m2) && got.TotalExecutedPaths() == p.TotalExecutedPaths()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestRoundTripWide exercises a four-event schema through the text codec:
// the header's event count must drive the path-line width both ways.
func TestRoundTripWide(t *testing.T) {
	p := &Profile{
		Program: "wide", Mode: "flow+hw",
		Events: []string{"cycles", "insts", "dcache-miss", "icache-miss"},
		Procs: []*ProcPaths{
			{ProcID: 0, Name: "main", NumPaths: 4, Entries: []PathEntry{
				NewEntry(0, 9, 1, 2, 3, 4),
				NewEntry(2, 1, 0, 0, 7, 0),
			}},
		},
	}
	var buf bytes.Buffer
	if err := p.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumMetrics() != 4 || got.MetricIndex("dcache-miss") != 2 {
		t.Fatalf("schema: %v", got.Events)
	}
	if !entriesEqual(got.Procs[0].Entries[0], p.Procs[0].Entries[0]) {
		t.Fatalf("entry mismatch: %+v", got.Procs[0].Entries[0])
	}
}

func TestTotals(t *testing.T) {
	f, ms := sample().Totals()
	if f != 19 || !slices.Equal(ms, []uint64{9, 190}) {
		t.Fatalf("totals = %d %v", f, ms)
	}
}

func TestMerge(t *testing.T) {
	a := sample()
	b := sample()
	b.Procs[0].Entries = append(b.Procs[0].Entries, PathEntry{Sum: 5, Freq: 1})
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if e := a.Procs[0].Entries; len(e) != 3 {
		t.Fatalf("merged entries = %d", len(e))
	}
	if a.Proc(0).Entries[0].Freq != 20 {
		t.Fatalf("freq not doubled: %+v", a.Proc(0).Entries[0])
	}
	// Shape mismatch errors.
	c := sample()
	c.Procs = c.Procs[:1]
	if err := a.Merge(c); err == nil {
		t.Fatal("shape mismatch accepted")
	}
	// Schema mismatch errors.
	d := sample()
	d.Events = []string{"cycles", "insts"}
	if err := a.Merge(d); err == nil {
		t.Fatal("schema mismatch accepted")
	}
}

// TestMergeRejectsModeMismatch: profiles of different instrumentation
// modes never sum, and the rejected merge leaves the receiver unchanged.
func TestMergeRejectsModeMismatch(t *testing.T) {
	a, b := sample(), sample()
	b.Mode = "context+hw"
	err := a.Merge(b)
	if err == nil || !strings.Contains(err.Error(), "mode mismatch") {
		t.Fatalf("Merge(flow+hw, context+hw) = %v, want a mode mismatch", err)
	}
	if want := sample(); !slices.EqualFunc(a.Procs[0].Entries, want.Procs[0].Entries, entriesEqual) {
		t.Fatalf("rejected merge changed the receiver: %+v", a.Procs[0].Entries)
	}
}

func TestProcLookup(t *testing.T) {
	p := sample()
	if p.Proc(1) == nil || p.Proc(99) != nil {
		t.Fatal("Proc lookup broken")
	}
}

func TestNewMetricsArena(t *testing.T) {
	pp := &ProcPaths{}
	a := pp.NewMetrics(3)
	b := pp.NewMetrics(2)
	a[2] = 7 // must not be visible through b
	if b[0] != 0 || b[1] != 0 {
		t.Fatalf("arena slices alias: %v", b)
	}
	// Appending past a chunk boundary must not touch earlier slices.
	var all [][]uint64
	for i := 0; i < 2000; i++ {
		m := pp.NewMetrics(2)
		m[0] = uint64(i)
		all = append(all, m)
	}
	for i, m := range all {
		if m[0] != uint64(i) {
			t.Fatalf("slice %d clobbered: %v", i, m)
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"bogus 1 2 3",
		"profile a",                 // short header
		"path 1 2 3 4",              // path before proc
		"profile p m a b\nproc x y", // short proc
		"profile p m a b\nproc 0 n 1\npath 1 nope 3 4", // bad number
		"profile p m a b\nproc 0 n 1\npath 1 2 3",      // too few metric columns
		"profile p m a b\nproc 0 n 1\npath 1 2 3 4 5",  // too many metric columns
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Errorf("accepted %q", c)
		}
	}
}

func TestFieldEscaping(t *testing.T) {
	p := sample()
	p.Program = "has space"
	p.Events[0] = ""
	var buf bytes.Buffer
	if err := p.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Program != "has_space" || got.Events[0] != "" {
		t.Fatalf("fields: %q %q", got.Program, got.Events[0])
	}
}

func TestSortOrders(t *testing.T) {
	pp := &ProcPaths{Entries: []PathEntry{{Sum: 5}, {Sum: 1}, {Sum: 3}}}
	pp.Sort()
	if pp.Entries[0].Sum != 1 || pp.Entries[2].Sum != 5 {
		t.Fatalf("not sorted: %+v", pp.Entries)
	}
}
