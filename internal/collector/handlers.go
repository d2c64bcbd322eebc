package collector

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"pathprof/internal/analysis"
	"pathprof/internal/experiments"
	"pathprof/internal/report"
	"pathprof/internal/store"
)

// Handler returns the collector's HTTP surface:
//
//	POST /ingest         one wire frame, or one legacy v1/v2 envelope
//	GET  /table/3        CCT statistics from merged exports
//	GET  /table/4        hot paths from merged profiles
//	GET  /table/5        hot procedures from merged profiles
//	GET  /table/metrics  per-program totals under named metric columns
//	GET  /programs       JSON list of aggregated programs
//	GET  /metrics        JSON counters
//	GET  /healthz        liveness (503 while draining)
//
// The table endpoints accept ?programs=a,b to select and order rows;
// the default is every aggregated program in sorted order.
func (c *Collector) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ingest", c.handleIngest)
	mux.HandleFunc("GET /table/3", c.handleTable3)
	mux.HandleFunc("GET /table/4", c.handleTable4)
	mux.HandleFunc("GET /table/5", c.handleTable5)
	mux.HandleFunc("GET /table/metrics", c.handleTableNamedMetrics)
	mux.HandleFunc("GET /programs", c.handlePrograms)
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	mux.HandleFunc("GET /healthz", c.handleHealthz)
	mux.HandleFunc("POST /store/snapshot", c.handleStoreSnapshot)
	mux.HandleFunc("POST /store/compact", c.handleStoreCompact)
	return mux
}

// IngestResponse is the JSON body of a successful push: how many
// envelopes of each kind it carried. A push of exactly one envelope —
// a one-item frame or a legacy envelope — names its kind ("profile" or
// "cct") and program; a larger one has Kind "batch" and no Program, since
// one frame may span programs.
type IngestResponse struct {
	Kind      string `json:"kind"`
	Program   string `json:"program,omitempty"`
	Envelopes int    `json:"envelopes,omitempty"`
	Profiles  int    `json:"profiles,omitempty"`
	CCTs      int    `json:"ccts,omitempty"`
	// Duplicate marks a retried push the durable collector had already
	// applied: the original ack was lost, the data was not.
	Duplicate bool `json:"duplicate,omitempty"`
}

func (c *Collector) handleIngest(w http.ResponseWriter, r *http.Request) {
	done, err := c.begin()
	if err != nil {
		c.rejectedDraining.Add(1)
		http.Error(w, "collector is draining", http.StatusServiceUnavailable)
		return
	}
	defer done()

	ctx, cancel := context.WithTimeout(r.Context(), c.cfg.RequestTimeout)
	defer cancel()

	// Backpressure: when every concurrency slot is busy and the wait
	// queue is full, shed the push immediately with 429 + Retry-After
	// instead of letting a convoy build up toward the request timeout.
	// Well-behaved clients (collector.Client with a RetryPolicy) back
	// off and retry.
	if q := c.queueDepth.Add(1); q > int64(c.cfg.MaxQueue) {
		c.queueDepth.Add(-1)
		c.rejectedQueue.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(c.cfg.RetryAfter)))
		http.Error(w, "ingest queue is full", http.StatusTooManyRequests)
		return
	}

	// Admission: wait for a concurrency slot, but never longer than the
	// request timeout.
	select {
	case c.sem <- struct{}{}:
		c.queueDepth.Add(-1)
		defer func() { <-c.sem }()
	case <-ctx.Done():
		c.queueDepth.Add(-1)
		c.rejectedBusy.Add(1)
		http.Error(w, "too many concurrent pushes", http.StatusServiceUnavailable)
		return
	}

	// Read the body on a helper goroutine so a dribbling client hits the
	// request timeout instead of pinning the slot; the abandoned reader
	// unblocks when the server tears the connection down.
	body := http.MaxBytesReader(w, r.Body, c.cfg.MaxBodyBytes)
	type readResult struct {
		data []byte
		err  error
	}
	ch := make(chan readResult, 1)
	go func() {
		data, err := io.ReadAll(body)
		ch <- readResult{data, err}
	}()
	var data []byte
	select {
	case res := <-ch:
		if res.err != nil {
			var mbe *http.MaxBytesError
			if errors.As(res.err, &mbe) {
				c.rejectedTooBig.Add(1)
				abortBody(w)
				http.Error(w, "profile exceeds the size limit", http.StatusRequestEntityTooLarge)
			} else {
				c.rejectedBad.Add(1)
				http.Error(w, "reading body: "+res.err.Error(), http.StatusBadRequest)
			}
			return
		}
		data = res.data
	case <-ctx.Done():
		c.rejectedTimeout.Add(1)
		abortBody(w)
		http.Error(w, "push timed out", http.StatusRequestTimeout)
		return
	}

	// Every payload folds through one path (applyPayload, durable.go):
	// frames decode into pooled scratch and fold without materializing
	// intermediate Profile/Export values.
	//
	// With a store mounted, the payload is appended and group-committed
	// to disk first and folded only once durable, so the ack below means
	// the push survives kill -9. The X-Push-Id header (stable across one
	// client's retries) dedups the crash window where a push was durable
	// but the ack was lost.
	var resp IngestResponse
	if c.store != nil {
		dup, err := c.store.Ingest(ctx, parsePushID(r), data, func(p []byte) error {
			var ferr error
			resp, ferr = c.applyPayload(p)
			return ferr
		})
		if dup {
			writeJSON(w, IngestResponse{Kind: "duplicate", Duplicate: true})
			return
		}
		if err != nil {
			c.failIngest(w, err)
			return
		}
	} else {
		var err error
		resp, err = c.applyPayload(data)
		if err != nil {
			c.failIngest(w, err)
			return
		}
	}
	c.ingestedBytes.Add(uint64(len(data)))
	writeJSON(w, resp)
}

// failIngest maps a fold or store error to its HTTP rejection.
func (c *Collector) failIngest(w http.ResponseWriter, err error) {
	var ce *conflictError
	switch {
	case errors.Is(err, store.ErrFull):
		// The WAL disk budget is exhausted: durable backpressure.
		// Compaction or the next snapshot usually frees space, so tell
		// clients to back off and retry rather than fail outright.
		c.rejectedStoreFull.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(c.cfg.RetryAfter)))
		http.Error(w, "store disk budget exhausted", http.StatusServiceUnavailable)
	case errors.As(err, &ce):
		c.rejectedConflict.Add(1)
		http.Error(w, err.Error(), http.StatusConflict)
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		c.rejectedTimeout.Add(1)
		http.Error(w, "push timed out", http.StatusRequestTimeout)
	default:
		c.rejectedBad.Add(1)
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
}

// parsePushID extracts the client's hex push ID (0 = none).
func parsePushID(r *http.Request) uint64 {
	id, err := strconv.ParseUint(r.Header.Get("X-Push-Id"), 16, 64)
	if err != nil {
		return 0
	}
	return id
}

// handleStoreSnapshot forces a snapshot of the mounted store.
func (c *Collector) handleStoreSnapshot(w http.ResponseWriter, _ *http.Request) {
	if c.store == nil {
		http.Error(w, "no store mounted", http.StatusNotFound)
		return
	}
	if err := c.store.SnapshotNow(); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, c.store.Metrics())
}

// handleStoreCompact forces compaction of sealed segments.
func (c *Collector) handleStoreCompact(w http.ResponseWriter, _ *http.Request) {
	if c.store == nil {
		http.Error(w, "no store mounted", http.StatusNotFound)
		return
	}
	if err := c.store.CompactNow(); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, c.store.Metrics())
}

// retryAfterSeconds rounds d up to whole seconds for the Retry-After
// header (which has no sub-second form), with a 1s floor.
func retryAfterSeconds(d time.Duration) int {
	s := int((d + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}

// abortBody forces pending and post-handler reads of the request body to
// fail immediately. Without this the server would stall the error
// response behind draining the rest of a slow or oversized upload.
func abortBody(w http.ResponseWriter) {
	http.NewResponseController(w).SetReadDeadline(time.Now())
}

// requestedPrograms resolves the ?programs= selection (explicit order)
// or defaults to every aggregated program sorted.
func (c *Collector) requestedPrograms(r *http.Request) []string {
	if q := r.URL.Query().Get("programs"); q != "" {
		var out []string
		for _, name := range strings.Split(q, ",") {
			if name = strings.TrimSpace(name); name != "" {
				out = append(out, name)
			}
		}
		return out
	}
	return c.Programs()
}

func (c *Collector) handleTable3(w http.ResponseWriter, r *http.Request) {
	var rows []experiments.Table3Row
	for _, name := range c.requestedPrograms(r) {
		ex, ok := c.MergedExport(name)
		if !ok {
			http.Error(w, "no CCT aggregate for "+name, http.StatusNotFound)
			return
		}
		rows = append(rows, experiments.Table3Row{Name: name, Stats: ex.Stats()})
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	experiments.RenderTable3(rows, w)
}

func (c *Collector) handleTable4(w http.ResponseWriter, r *http.Request) {
	var results []experiments.Table4Result
	for _, name := range c.requestedPrograms(r) {
		p, ok := c.MergedProfile(name)
		if !ok {
			http.Error(w, "no profile aggregate for "+name, http.StatusNotFound)
			return
		}
		results = append(results, experiments.Table4FromProfile(name, p))
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	experiments.RenderTable4(results, w)
}

func (c *Collector) handleTable5(w http.ResponseWriter, r *http.Request) {
	var reports []analysis.ProcReport
	for _, name := range c.requestedPrograms(r) {
		p, ok := c.MergedProfile(name)
		if !ok {
			http.Error(w, "no profile aggregate for "+name, http.StatusNotFound)
			return
		}
		reports = append(reports, analysis.ClassifyProcs(p, analysis.DefaultHotThreshold))
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	experiments.RenderTable5(reports, w)
}

// handleTableNamedMetrics renders each program's merged totals under the
// metric names its profile schema declares. Programs pushed with different
// schemas contribute different columns; the column set is the first-seen
// union and rows leave unschemed columns blank.
func (c *Collector) handleTableNamedMetrics(w http.ResponseWriter, r *http.Request) {
	type row struct {
		name   string
		freq   uint64
		totals map[string]uint64
	}
	var rows []row
	var cols []string
	seen := map[string]bool{}
	for _, name := range c.requestedPrograms(r) {
		p, ok := c.MergedProfile(name)
		if !ok {
			http.Error(w, "no profile aggregate for "+name, http.StatusNotFound)
			return
		}
		freq, ms := p.Totals()
		totals := make(map[string]uint64, len(p.Events))
		for i, ev := range p.Events {
			if ev == "" {
				ev = "slot" + strconv.Itoa(i)
			}
			if !seen[ev] {
				seen[ev] = true
				cols = append(cols, ev)
			}
			if i < len(ms) {
				totals[ev] += ms[i]
			}
		}
		rows = append(rows, row{name: name, freq: freq, totals: totals})
	}
	t := &report.Table{
		Title: "Merged profile totals by named metric",
		Cols:  append([]string{"Program", "Path execs"}, cols...),
	}
	for _, rw := range rows {
		vals := []interface{}{rw.name, rw.freq}
		for _, ev := range cols {
			if v, ok := rw.totals[ev]; ok {
				vals = append(vals, v)
			} else {
				vals = append(vals, "-")
			}
		}
		t.AddRow(vals...)
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	t.Render(w)
}

func (c *Collector) handlePrograms(w http.ResponseWriter, _ *http.Request) {
	progs := c.Programs()
	if progs == nil {
		progs = []string{}
	}
	writeJSON(w, progs)
}

func (c *Collector) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, c.Metrics())
}

func (c *Collector) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	c.mu.Lock()
	draining := c.draining
	c.mu.Unlock()
	if draining {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
