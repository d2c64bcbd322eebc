package main

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"time"
)

// span is one timed call into a layer. The layer is the name up to its
// first dot ("sim.run.none" belongs to sim); the op root span is
// "bench.op". N counts the units of work the call covered (simulated
// instructions, envelopes, bytes), 0 when the call has no natural unit.
type span struct {
	Name       string
	Op         int32 // op id; -1 for set-up
	ID, Parent int32 // Parent is -1 for a root
	Start, End int64 // ns since the tracer's origin
	N          int64
}

// tracer records spans in memory. When off, begin returns -1 and end
// ignores it, so the untraced run pays one branch per call site.
type tracer struct {
	on    bool
	t0    time.Time
	op    int32
	spans []span
	open  []int32
}

func newTracer() *tracer { return &tracer{t0: time.Now(), op: -1} }

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(name string) int32 {
	if !t.on {
		return -1
	}
	id := int32(len(t.spans))
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Op: t.op, ID: id, Parent: parent, Start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	return id
}

// end closes span id (the innermost open one), recording n units of work.
func (t *tracer) end(id int32, n int64) {
	if id < 0 {
		return
	}
	s := &t.spans[id]
	s.End = int64(time.Since(t.t0))
	s.N = n
	t.open = t.open[:len(t.open)-1]
}

// add records a finished root span timed elsewhere, such as on another
// goroutine.
func (t *tracer) add(name string, op int32, start, end time.Time, n int64) {
	if !t.on {
		return
	}
	t.spans = append(t.spans, span{Name: name, Op: op, ID: int32(len(t.spans)), Parent: -1,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), N: n})
}

// write dumps every span as one CSV line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "op,id,parent,name,start_ns,end_ns,n")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d,%d\n", s.Op, s.ID, s.Parent, s.Name, s.Start, s.End, s.N)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanAgg totals the spans sharing one name.
type spanAgg struct {
	count int
	dur   int64 // ns
	n     int64
}

// summary aggregates a finished trace: per-name totals of the spans made
// for ops and of those made in set-up, and per-layer self time inside op
// roots.
type summary struct {
	byName map[string]*spanAgg
	setup  map[string]*spanAgg
	self   map[string]int64 // layer -> self ns within op roots
	opNs   int64            // total duration of the op roots
	ops    int
	spans  int // spans recorded under op ids (roots and shadows)
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// summarize derives the per-name totals and per-layer self times. A span's
// self time is its duration minus its children's; only spans whose root is
// an op ("bench.op") count toward self time, so shadow measurements made
// after an op (outside its root) do not inflate the op's breakdown.
func (t *tracer) summarize() summary {
	s := summary{byName: map[string]*spanAgg{}, setup: map[string]*spanAgg{}, self: map[string]int64{}}
	child := make([]int64, len(t.spans))
	root := make([]int32, len(t.spans))
	for i, sp := range t.spans {
		if sp.Parent >= 0 {
			child[sp.Parent] += sp.End - sp.Start
			root[i] = root[sp.Parent]
		} else {
			root[i] = int32(i)
		}
	}
	for i, sp := range t.spans {
		d := sp.End - sp.Start
		names := s.byName
		if sp.Op < 0 {
			names = s.setup
		} else {
			s.spans++
		}
		a := names[sp.Name]
		if a == nil {
			a = &spanAgg{}
			names[sp.Name] = a
		}
		a.count++
		a.dur += d
		a.n += sp.N
		if t.spans[root[i]].Name != "bench.op" {
			continue
		}
		s.self[layerOf(sp.Name)] += d - child[i]
		if sp.Parent < 0 {
			s.opNs += d
			s.ops++
		}
	}
	return s
}

// agg returns the combined totals of the op spans named prefix or
// prefix.anything.
func (s summary) agg(prefix string) spanAgg { return aggOf(s.byName, prefix) }

// aggOrSetup is agg, or — when no op made such a span — the same totals
// over the set-up's spans: on profile, building, instrumenting and vetting
// happen only in set-up.
func (s summary) aggOrSetup(prefix string) spanAgg {
	if a := s.agg(prefix); a.count > 0 {
		return a
	}
	return aggOf(s.setup, prefix)
}

func aggOf(byName map[string]*spanAgg, prefix string) spanAgg {
	var out spanAgg
	for name, a := range byName {
		if name == prefix || strings.HasPrefix(name, prefix+".") {
			out.count += a.count
			out.dur += a.dur
			out.n += a.n
		}
	}
	return out
}

// meanUs is the mean span duration in µs.
func (a spanAgg) meanUs() float64 {
	if a.count == 0 {
		return 0
	}
	return float64(a.dur) / float64(a.count) / 1e3
}

// nsPerUnit is the total duration divided by the total work units.
func (a spanAgg) nsPerUnit() float64 {
	if a.n == 0 {
		return 0
	}
	return float64(a.dur) / float64(a.n)
}
