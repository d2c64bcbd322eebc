// Package profile defines the profile data model produced by instrumented
// runs: per-procedure path tables carrying a frequency and N hardware-metric
// accumulators per path (the metric schema names what each slot counted),
// plus program-level totals. It also provides a line-oriented text encoding
// for saving and reloading profiles.
package profile

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"pathprof/internal/flat"
)

// PathEntry is one executed path's record. Metrics[i] accumulates the event
// named by the owning Profile's Events[i]; the classic two-slot layout puts
// the PIC0 metric (D-cache misses) in slot 0 and PIC1 (instructions) in
// slot 1.
type PathEntry struct {
	Sum     int64  // Ball-Larus path identifier
	Freq    uint64 // executions
	Metrics []uint64
}

// Metric returns slot i's accumulator, treating missing slots as zero.
func (e *PathEntry) Metric(i int) uint64 {
	if i < 0 || i >= len(e.Metrics) {
		return 0
	}
	return e.Metrics[i]
}

// NewEntry builds a PathEntry holding the given metric values. The metrics
// slice is heap-allocated rather than arena-backed — convenient for
// hand-built profiles; bulk extraction should use ProcPaths.NewMetrics.
func NewEntry(sum int64, freq uint64, metrics ...uint64) PathEntry {
	e := PathEntry{Sum: sum, Freq: freq}
	if len(metrics) > 0 {
		e.Metrics = append([]uint64(nil), metrics...)
	}
	return e
}

// ProcPaths is the path profile of one procedure.
type ProcPaths struct {
	ProcID   int
	Name     string
	NumPaths int64 // potential paths (k-paths when the profile's K > 1)
	Entries  []PathEntry

	// K is the procedure's effective path degree: every entry's Sum names
	// a path spanning up to K loop iterations. 0 or 1 is the classic
	// scheme. It can sit below the profile's requested K when the
	// procedure's k-path space was clamped.
	K int

	// arena backs the Entries' Metrics slices in chunks — one allocation
	// per arenaChunk entries instead of one per path, the same discipline
	// the cct package uses for its node records.
	arena []uint64
}

// arenaChunk is the arena growth quantum, in uint64 words.
const arenaChunk = 1024

// NewMetrics carves an n-slot zeroed metrics slice out of the procedure's
// arena. The returned slice has capacity exactly n, so appending to it can
// never bleed into a neighbouring entry.
func (pp *ProcPaths) NewMetrics(n int) []uint64 {
	if n == 0 {
		return nil
	}
	if len(pp.arena)+n > cap(pp.arena) {
		size := arenaChunk
		if n > size {
			size = n
		}
		pp.arena = make([]uint64, 0, size)
	}
	lo := len(pp.arena)
	pp.arena = pp.arena[:lo+n]
	return pp.arena[lo : lo+n : lo+n]
}

// Executed returns how many distinct paths executed.
func (pp *ProcPaths) Executed() int { return len(pp.Entries) }

// Totals sums frequency and per-slot metrics over all executed paths. The
// metrics vector is as wide as the widest entry.
func (pp *ProcPaths) Totals() (freq uint64, metrics []uint64) {
	for _, e := range pp.Entries {
		freq += e.Freq
		for len(metrics) < len(e.Metrics) {
			metrics = append(metrics, 0)
		}
		for i, m := range e.Metrics {
			metrics[i] += m
		}
	}
	return
}

// Sort orders entries by path identifier. Sums are unique within a
// procedure, so the unstable sort is still fully determined.
func (pp *ProcPaths) Sort() {
	slices.SortFunc(pp.Entries, func(a, b PathEntry) int { return cmp.Compare(a.Sum, b.Sum) })
}

// Profile is a complete flow-sensitive profile of one program run.
type Profile struct {
	Program string
	Mode    string

	// K is the requested path degree: path ids span up to K loop
	// iterations (D'Elia–Demetrescu k-iteration paths). 0 or 1 is the
	// classic Ball-Larus scheme. Profiles of different degrees have
	// disjoint id spaces, so K is part of the schema identity.
	K int

	// Events is the metric schema: Events[i] names the hardware event that
	// every entry's Metrics[i] accumulated. The classic schema is
	// {"dcache-miss", "insts"}.
	Events []string

	Procs []*ProcPaths
}

// NumMetrics returns the schema width.
func (p *Profile) NumMetrics() int { return len(p.Events) }

// MetricIndex returns the slot whose event is named, or -1.
func (p *Profile) MetricIndex(name string) int {
	for i, ev := range p.Events {
		if ev == name {
			return i
		}
	}
	return -1
}

// SchemaKey returns the schema as a stable identity string: the
// comma-joined events, prefixed with the path degree when it departs from
// the classic K=1 (so k-path profiles never merge with classic ones —
// their id spaces are disjoint — and collectors 409 on K conflicts).
func (p *Profile) SchemaKey() string { return SchemaKeyFor(p.K, p.Events) }

// SchemaKeyFor builds the schema identity string for a degree and event
// list without requiring a Profile value (collector aggregates keep the
// parts unpacked).
func SchemaKeyFor(k int, events []string) string {
	if k > 1 {
		return "k=" + strconv.Itoa(k) + "|" + strings.Join(events, ",")
	}
	return strings.Join(events, ",")
}

// Proc returns the entry for the given procedure ID, or nil.
func (p *Profile) Proc(id int) *ProcPaths {
	for _, pp := range p.Procs {
		if pp.ProcID == id {
			return pp
		}
	}
	return nil
}

// Totals sums frequency and per-slot metrics over all procedures.
func (p *Profile) Totals() (freq uint64, metrics []uint64) {
	metrics = make([]uint64, len(p.Events))
	for _, pp := range p.Procs {
		f, ms := pp.Totals()
		freq += f
		for len(metrics) < len(ms) {
			metrics = append(metrics, 0)
		}
		for i, m := range ms {
			metrics[i] += m
		}
	}
	return
}

// TotalExecutedPaths counts distinct executed paths across procedures.
func (p *Profile) TotalExecutedPaths() int {
	n := 0
	for _, pp := range p.Procs {
		n += pp.Executed()
	}
	return n
}

// Merge adds other's counts into p (matching procedures by ID). Profiles
// from repeated runs of the same instrumented program can be combined; the
// modes and metric schemas must agree, since slot i of one run is only
// meaningfully summable with slot i of another when both counted the same
// event under the same instrumentation. On an error p is unchanged.
func (p *Profile) Merge(other *Profile) error {
	if p.Mode != other.Mode {
		return fmt.Errorf("profile: merge mode mismatch: %q vs %q", p.Mode, other.Mode)
	}
	if p.SchemaKey() != other.SchemaKey() {
		return fmt.Errorf("profile: merge schema mismatch: %q vs %q", p.SchemaKey(), other.SchemaKey())
	}
	if len(p.Procs) != len(other.Procs) {
		return fmt.Errorf("profile: merge shape mismatch: %d vs %d procs", len(p.Procs), len(other.Procs))
	}
	for i, pp := range p.Procs {
		op := other.Procs[i]
		if pp.ProcID != op.ProcID {
			return fmt.Errorf("profile: merge proc mismatch at %d", i)
		}
		idx := flat.New(len(pp.Entries))
		for j, e := range pp.Entries {
			idx.Set(e.Sum, int64(j))
		}
		for _, e := range op.Entries {
			if j, ok := idx.Get(e.Sum); ok {
				dst := &pp.Entries[j]
				dst.Freq += e.Freq
				for k, m := range e.Metrics {
					if k < len(dst.Metrics) {
						dst.Metrics[k] += m
					}
				}
			} else {
				// Copy the metrics into pp's own arena so merged profiles
				// never alias the source run's storage.
				ne := PathEntry{Sum: e.Sum, Freq: e.Freq}
				if len(e.Metrics) > 0 {
					ne.Metrics = pp.NewMetrics(len(e.Metrics))
					copy(ne.Metrics, e.Metrics)
				}
				pp.Entries = append(pp.Entries, ne)
			}
		}
		pp.Sort()
	}
	return nil
}

// Write encodes the profile as text:
//
//	profile <program> <mode> [k=<K>] <event>...
//	proc <id> <name> <numpaths> [k=<K>]
//	path <sum> <freq> <metric>...
//
// Each path line carries exactly one metric column per schema event (the
// classic two-event schema reproduces the legacy 5-field layout). The k=
// tokens appear only for k-iteration profiles (K > 1): classic profiles
// encode byte-identically to the pre-k format. The proc-level k is the
// procedure's effective (possibly clamped) degree.
func (p *Profile) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "profile %s %s", field(p.Program), field(p.Mode))
	if p.K > 1 {
		fmt.Fprintf(bw, " k=%d", p.K)
	}
	for _, ev := range p.Events {
		fmt.Fprintf(bw, " %s", field(ev))
	}
	bw.WriteByte('\n')
	for _, pp := range p.Procs {
		fmt.Fprintf(bw, "proc %d %s %d", pp.ProcID, field(pp.Name), pp.NumPaths)
		if p.K > 1 {
			fmt.Fprintf(bw, " k=%d", max(pp.K, 1))
		}
		bw.WriteByte('\n')
		for i := range pp.Entries {
			e := &pp.Entries[i]
			fmt.Fprintf(bw, "path %d %d", e.Sum, e.Freq)
			for k := range p.Events {
				fmt.Fprintf(bw, " %d", e.Metric(k))
			}
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}

func field(s string) string {
	if s == "" {
		return "-"
	}
	return strings.ReplaceAll(s, " ", "_")
}

func unfield(s string) string {
	if s == "-" {
		return ""
	}
	return s
}

// parseKField recognizes a "k=<n>" token (n >= 1). Event names never
// contain '=', so the token is unambiguous in both header and proc lines.
func parseKField(s string) (int, bool) {
	rest, ok := strings.CutPrefix(s, "k=")
	if !ok {
		return 0, false
	}
	k, err := strconv.Atoi(rest)
	if err != nil || k < 1 {
		return 0, false
	}
	return k, true
}

// Read decodes a profile written by Write. The header's event count fixes
// the expected width of every path line.
func Read(r io.Reader) (*Profile, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var p *Profile
	var cur *ProcPaths
	line := 0
	for sc.Scan() {
		line++
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "profile":
			if len(fields) < 3 {
				return nil, fmt.Errorf("profile: line %d: malformed header", line)
			}
			p = &Profile{Program: unfield(fields[1]), Mode: unfield(fields[2])}
			rest := fields[3:]
			if len(rest) > 0 {
				if k, ok := parseKField(rest[0]); ok {
					p.K = k
					rest = rest[1:]
				}
			}
			for _, f := range rest {
				p.Events = append(p.Events, unfield(f))
			}
		case "proc":
			if p == nil || len(fields) < 4 || len(fields) > 5 {
				return nil, fmt.Errorf("profile: line %d: malformed proc", line)
			}
			id, err1 := strconv.Atoi(fields[1])
			np, err2 := strconv.ParseInt(fields[3], 10, 64)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("profile: line %d: bad proc numbers", line)
			}
			cur = &ProcPaths{ProcID: id, Name: unfield(fields[2]), NumPaths: np}
			if len(fields) == 5 {
				k, ok := parseKField(fields[4])
				if !ok {
					return nil, fmt.Errorf("profile: line %d: malformed proc", line)
				}
				cur.K = k
			}
			p.Procs = append(p.Procs, cur)
		case "path":
			if cur == nil || len(fields) != 3+len(p.Events) {
				return nil, fmt.Errorf("profile: line %d: malformed path", line)
			}
			var e PathEntry
			var err error
			if e.Sum, err = strconv.ParseInt(fields[1], 10, 64); err != nil {
				return nil, fmt.Errorf("profile: line %d: bad path numbers", line)
			}
			if e.Freq, err = strconv.ParseUint(fields[2], 10, 64); err != nil {
				return nil, fmt.Errorf("profile: line %d: bad path numbers", line)
			}
			if n := len(p.Events); n > 0 {
				e.Metrics = cur.NewMetrics(n)
				for k := 0; k < n; k++ {
					if e.Metrics[k], err = strconv.ParseUint(fields[3+k], 10, 64); err != nil {
						return nil, fmt.Errorf("profile: line %d: bad path numbers", line)
					}
				}
			}
			cur.Entries = append(cur.Entries, e)
		default:
			return nil, fmt.Errorf("profile: line %d: unknown record %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if p == nil {
		return nil, fmt.Errorf("profile: empty input")
	}
	return p, nil
}
