// Package server exposes an mcdbr.Engine as a concurrent HTTP JSON query
// service — the serving layer on top of the thread-safe engine and the
// prepared-query plan cache:
//
//	POST /query    {"sql": "...", "seed": 7, "samples": 100, "workers": 2}
//	POST /explain  {"sql": "..."}
//	GET  /tables
//	GET  /healthz
//
// Query execution sits behind an admission controller (internal/admit):
// a bounded priority queue in front of a fixed pool of execution slots.
// Requests beyond MaxQueue are shed immediately with 429 + Retry-After;
// queued requests that outlive the queue-wait budget get 429 too; a
// draining server answers 503. Admitted queries run under per-request
// resource budgets — a wall-clock deadline, a sample budget, and a memory
// budget — each capped by server options, and adaptive queries whose
// deadline fires mid-run return their partial estimate with
// "degraded": true instead of an error (DESIGN.md §12). SELECT statements
// are routed through Engine.Prepare so repeated statements hit the LRU
// plan cache, and Serve shuts down gracefully on context cancellation.
// Engine-level panic containment means a malformed query returns a JSON
// error instead of killing the process.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"repro/internal/admit"
	"repro/internal/sqlish"
	"repro/mcdbr"
)

// Options configures a Server.
type Options struct {
	// MaxConcurrent bounds simultaneously executing queries (not
	// connections); 0 selects runtime.NumCPU(). Excess requests queue.
	MaxConcurrent int
	// MaxQueue bounds requests waiting for an execution slot; beyond it
	// arrivals are shed with 429. 0 selects 4*MaxConcurrent; negative
	// disables queueing entirely (every excess request sheds).
	MaxQueue int
	// QueueWait bounds how long one request may wait queued before it is
	// shed with 429 (0 selects 2s). Its ceiling in seconds is the
	// Retry-After hint on every 429.
	QueueWait time.Duration
	// DefaultDeadline is both the default and the upper cap of the
	// per-request deadline_ms run budget: requests without one run under
	// DefaultDeadline, and a longer request deadline is clamped to it.
	// 0 means no deadline unless the request sets one.
	DefaultDeadline time.Duration
	// MaxSamplesCap caps per-request sample budgets: a fixed "samples"
	// override beyond it is rejected outright (fixed-N results are never
	// silently truncated), while adaptive "max_samples" budgets are
	// clamped to it. 0 means uncapped.
	MaxSamplesCap int
	// Tail supplies default tail-sampling options for DOMAIN queries;
	// per-request fields override them.
	Tail mcdbr.TailSampleOptions
}

// Server is the HTTP query service. Create one with New; its Handler can
// be mounted in any http server, or use Serve for a managed listener with
// graceful shutdown.
type Server struct {
	engine *mcdbr.Engine
	opts   Options
	admit  *admit.Controller
	mux    *http.ServeMux
	start  time.Time
}

// New builds a server over a (shared, concurrency-safe) engine.
func New(e *mcdbr.Engine, opts Options) *Server {
	if opts.MaxConcurrent <= 0 {
		opts.MaxConcurrent = runtime.NumCPU()
	}
	s := &Server{
		engine: e,
		opts:   opts,
		admit: admit.New(admit.Options{
			MaxConcurrent: opts.MaxConcurrent,
			MaxQueue:      opts.MaxQueue,
			QueueWait:     opts.QueueWait,
		}),
		mux:   http.NewServeMux(),
		start: time.Now(),
	}
	s.mux.HandleFunc("/query", s.handleQuery)
	s.mux.HandleFunc("/explain", s.handleExplain)
	s.mux.HandleFunc("/tables", s.handleTables)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// MaxConcurrent reports the query worker limit.
func (s *Server) MaxConcurrent() int { return s.admit.MaxConcurrent() }

// AdmitStats exposes the admission controller's live counters (the
// /healthz "admission" object) for in-process harnesses.
func (s *Server) AdmitStats() admit.Stats { return s.admit.Stats() }

// Serve listens on addr until ctx is cancelled, then shuts down
// gracefully: the admission queue is drained first — every parked request
// is rejected promptly with 503 instead of hanging out the grace period —
// then in-flight requests get up to grace to finish (grace <= 0 selects
// 10s). It returns nil on clean shutdown.
func (s *Server) Serve(ctx context.Context, addr string, grace time.Duration) error {
	if grace <= 0 {
		grace = 10 * time.Second
	}
	hs := &http.Server{Addr: addr, Handler: s.mux}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		// Queued requests can only end in 503 once shutdown begins; fail
		// them now so their clients can retry elsewhere immediately.
		s.admit.Drain()
		//mcdbr:ctxpropagate ok(the grace period must outlive the just-cancelled serve ctx; deriving from it would skip draining)
		shCtx, cancel := context.WithTimeout(context.Background(), grace)
		defer cancel()
		if err := hs.Shutdown(shCtx); err != nil {
			return fmt.Errorf("server: shutdown: %w", err)
		}
		if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}

// QueryRequest is the body of POST /query. SQL is required; the remaining
// fields are per-run overrides (see mcdbr.RunOptions). Every SELECT,
// grouped or not, runs through Prepare and takes them all; Seed, Samples
// and TargetRelError on any other statement (CREATE TABLE, EXPLAIN) are
// rejected. Workers also sets the tail-sampling parallelism of DOMAIN
// queries.
//
// POST /query?stream=1 streams the same request as Server-Sent Events:
// one "progress" event per adaptive round or tail-chain attempt (fixed-N
// runs included, with convergence disabled) carrying cumulative estimates
// and CI half-widths, then one "result" event whose data is the exact
// QueryResponse the non-streaming endpoint would return, or an "error"
// event.
type QueryRequest struct {
	SQL     string `json:"sql"`
	Seed    uint64 `json:"seed,omitempty"`
	Samples int    `json:"samples,omitempty"`
	Workers int    `json:"workers,omitempty"`
	// TotalSamples is the tail-sampling budget N for DOMAIN queries
	// (0 = server default, then Appendix C selection).
	TotalSamples int `json:"total_samples,omitempty"`
	// TargetRelError, when > 0, turns the run adaptive (or overrides the
	// statement's UNTIL ERROR target); Confidence and MaxSamples refine the
	// rule. See mcdbr.RunOptions.
	TargetRelError float64 `json:"target_rel_error,omitempty"`
	Confidence     float64 `json:"confidence,omitempty"`
	MaxSamples     int     `json:"max_samples,omitempty"`
	// Priority selects the admission class: "interactive", "normal"
	// (default, also ""), or "batch". Higher classes are granted slots
	// first; within a class the queue is FIFO.
	Priority string `json:"priority,omitempty"`
	// DeadlineMS caps this query's wall-clock run time in milliseconds,
	// clamped to the server's -default-deadline. An adaptive query whose
	// deadline fires mid-run returns its partial estimate with
	// "degraded": true; a fixed-N query fails with 504.
	DeadlineMS int `json:"deadline_ms,omitempty"`
	// MaxBytes tightens the run's memory budget (mcdbr.RunOptions.MaxBytes).
	// Negative values are rejected: a request cannot disable the server's
	// budget.
	MaxBytes int64 `json:"max_bytes,omitempty"`
	// NoDegrade opts an adaptive query out of deadline degradation: the
	// deadline becomes a hard 504 like fixed-N.
	NoDegrade bool `json:"no_degrade,omitempty"`
}

// DistSummary describes a result distribution without shipping every
// sample. CVaR95/CVaR99 are the expected shortfalls beyond the 0.95- and
// 0.99-quantiles (Distribution.CVaR): the conditional mean of the result
// given that it lies in the tail.
type DistSummary struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	Std    float64 `json:"std"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Q50    float64 `json:"q50"`
	Q90    float64 `json:"q90"`
	Q99    float64 `json:"q99"`
	CVaR95 float64 `json:"cvar95"`
	CVaR99 float64 `json:"cvar99"`
}

// GroupSummary is one group of a grouped (or multi-aggregate) result:
// the group key, the HAVING inclusion fraction, and one DistSummary per
// aggregate in select-list order.
type GroupSummary struct {
	Key       []string       `json:"key"`
	Inclusion float64        `json:"inclusion"`
	Dists     []*DistSummary `json:"dists"`
}

// GroupedSummary is the ordered multi-column view of a GROUP BY and/or
// multi-aggregate query result.
type GroupedSummary struct {
	GroupCols []string       `json:"group_cols"`
	AggCols   []string       `json:"agg_cols"`
	Groups    []GroupSummary `json:"groups"`
}

// TableSummary ships a small deterministic relation (grouped/multi
// scalar aggregates).
type TableSummary struct {
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

// TailSummary extends DistSummary with the MCDB-R tail estimates.
type TailSummary struct {
	DistSummary
	QuantileEstimate  float64 `json:"quantile_estimate"`
	P                 float64 `json:"p"`
	Lower             bool    `json:"lower"`
	ExpectedShortfall float64 `json:"expected_shortfall"`
	// Replenishments is always 0: tail sampling no longer re-runs the
	// plan. The field is removed with the next benchmark change.
	Replenishments int `json:"replenishments"`
}

// AggregateCISummary is one (group, aggregate) confidence interval of an
// adaptive run. Non-finite values (an interval before two replicates, a
// relative error at mean zero) are reported as -1, since JSON has no
// Inf/NaN.
type AggregateCISummary struct {
	Group       string  `json:"group,omitempty"`
	Agg         string  `json:"agg"`
	N           int64   `json:"n"`
	Mean        float64 `json:"mean"`
	HalfWidth   float64 `json:"half_width"`
	RelError    float64 `json:"rel_error"`
	Converged   bool    `json:"converged"`
	ConvergedAt int     `json:"converged_at,omitempty"`
}

// AdaptiveSummary reports how an adaptive (UNTIL ERROR) or progressive
// run stopped.
type AdaptiveSummary struct {
	TargetRelError float64              `json:"target_rel_error"`
	Confidence     float64              `json:"confidence"`
	MaxSamples     int                  `json:"max_samples"`
	SamplesUsed    int                  `json:"samples_used"`
	Rounds         int                  `json:"rounds"`
	Converged      bool                 `json:"converged"`
	Degraded       bool                 `json:"degraded,omitempty"`
	CIs            []AggregateCISummary `json:"cis"`
}

// ProgressEvent is the data payload of one SSE "progress" event.
type ProgressEvent struct {
	Round       int                  `json:"round"`
	SamplesUsed int                  `json:"samples_used"`
	Converged   bool                 `json:"converged"`
	CIs         []AggregateCISummary `json:"cis"`
}

// QueryResponse is the body of a successful POST /query. Grouped carries
// the ordered multi-column result of GROUP BY and multi-aggregate
// queries; GroupDists/GroupTails remain the legacy single-aggregate map
// views.
type QueryResponse struct {
	Kind       string                  `json:"kind"`
	Scalar     *float64                `json:"scalar,omitempty"`
	Table      *TableSummary           `json:"table,omitempty"`
	Dist       *DistSummary            `json:"dist,omitempty"`
	Tail       *TailSummary            `json:"tail,omitempty"`
	Grouped    *GroupedSummary         `json:"grouped,omitempty"`
	GroupDists map[string]*DistSummary `json:"group_dists,omitempty"`
	GroupTails map[string]*TailSummary `json:"group_tails,omitempty"`
	Adaptive   *AdaptiveSummary        `json:"adaptive,omitempty"`
	// Degraded marks a partial result: the query's deadline fired mid-run
	// and Adaptive describes the estimate accumulated by then (still
	// bit-identical to a fixed run of that count). See DESIGN.md §12.
	Degraded   bool    `json:"degraded,omitempty"`
	Explain    string  `json:"explain,omitempty"`
	PlanCached bool    `json:"plan_cached"`
	ElapsedMS  float64 `json:"elapsed_ms"`
}

// ErrorResponse is the body of any non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, ErrorResponse{Error: err.Error()})
}

// admitError maps an admission failure to its HTTP status: shed and
// queue-wait-exceeded requests get 429 with a Retry-After hint, a
// draining server answers 503, and a client that disconnected while
// queued gets 503 (it is no longer listening anyway).
func (s *Server) admitError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, admit.ErrQueueFull) || errors.Is(err, admit.ErrQueueWait):
		w.Header().Set("Retry-After", strconv.Itoa(s.admit.RetryAfterSeconds()))
		writeError(w, http.StatusTooManyRequests, err)
	default:
		writeError(w, http.StatusServiceUnavailable, err)
	}
}

// validateBudgets rejects per-request budgets the server caps forbid.
// Fixed sample overrides beyond MaxSamplesCap are an error, not a clamp:
// a fixed-N result silently truncated to the cap would claim to be a
// MONTECARLO(n) run it is not.
func (s *Server) validateBudgets(req QueryRequest) error {
	if req.DeadlineMS < 0 {
		return fmt.Errorf("server: deadline_ms must be >= 0")
	}
	if req.MaxBytes < 0 {
		return fmt.Errorf("server: max_bytes must be >= 0; the server memory budget cannot be disabled per request")
	}
	if cap := s.opts.MaxSamplesCap; cap > 0 && req.Samples > cap {
		return fmt.Errorf("server: samples %d exceeds the server cap %d (fixed-N runs are never truncated; lower samples or use the adaptive max_samples budget)", req.Samples, cap)
	}
	return nil
}

// queryContext derives the run context: the request's deadline clamped to
// the server's DefaultDeadline, or DefaultDeadline alone when the request
// sets none. With neither, the run is bounded only by the client staying
// connected.
func (s *Server) queryContext(parent context.Context, req QueryRequest) (context.Context, context.CancelFunc) {
	d := s.opts.DefaultDeadline
	if req.DeadlineMS > 0 {
		if rd := time.Duration(req.DeadlineMS) * time.Millisecond; d <= 0 || rd < d {
			d = rd
		}
	}
	if d <= 0 {
		return parent, func() {}
	}
	return context.WithTimeout(parent, d)
}

// errStatus maps an execution error to its HTTP status. Deadline-exceeded
// runs — a fixed-N query out of time, or an adaptive one that opted out
// of degradation — are the upstream's timeout, 504.
func errStatus(err error) int {
	var pe *mcdbr.PanicError
	switch {
	case errors.As(err, &pe):
		// A recovered engine panic is a server fault, not a bad request.
		return http.StatusInternalServerError
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("server: %s needs POST", r.URL.Path))
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("server: bad request body: %w", err))
		return false
	}
	return true
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.SQL == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("server: missing \"sql\""))
		return
	}
	class, err := admit.ParseClass(req.Priority)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.validateBudgets(req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if v := r.URL.Query().Get("stream"); v == "1" || v == "true" {
		s.handleQueryStream(w, r, req, class)
		return
	}
	if err := s.admit.Acquire(r.Context(), class); err != nil {
		s.admitError(w, err)
		return
	}
	defer s.admit.Release()
	ctx, cancel := s.queryContext(r.Context(), req)
	defer cancel()

	start := time.Now()
	res, cached, err := s.execute(ctx, req, nil)
	if err != nil {
		writeError(w, errStatus(err), err)
		return
	}
	resp := buildResponse(res)
	resp.PlanCached = cached
	resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	if resp.Degraded {
		s.admit.NoteDegraded()
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleQueryStream serves POST /query?stream=1 as Server-Sent Events:
// progress events per adaptive round, then a final result event carrying
// the exact QueryResponse of the non-streaming endpoint. The request
// context is the run's cancellation: a disconnected client aborts the
// query at its next unit of work.
func (s *Server) handleQueryStream(w http.ResponseWriter, r *http.Request, req QueryRequest, class admit.Class) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("server: response writer does not support streaming"))
		return
	}
	stmt, err := sqlish.Parse(req.SQL)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if _, isSelect := stmt.(*sqlish.SelectStmt); !isSelect {
		writeError(w, http.StatusBadRequest, fmt.Errorf("server: stream=1 needs a SELECT statement"))
		return
	}
	if err := s.admit.Acquire(r.Context(), class); err != nil {
		s.admitError(w, err)
		return
	}
	defer s.admit.Release()
	ctx, cancel := s.queryContext(r.Context(), req)
	defer cancel()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	start := time.Now()
	progress := func(u mcdbr.ProgressUpdate) {
		writeSSE(w, fl, "progress", ProgressEvent{
			Round:       u.Round,
			SamplesUsed: u.SamplesUsed,
			Converged:   u.Converged,
			CIs:         summarizeCIs(u.CIs),
		})
	}
	res, cached, err := s.execute(ctx, req, progress)
	if err != nil {
		// Headers are sent; the error travels as an event.
		writeSSE(w, fl, "error", ErrorResponse{Error: err.Error()})
		return
	}
	resp := buildResponse(res)
	resp.PlanCached = cached
	resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	if resp.Degraded {
		s.admit.NoteDegraded()
	}
	writeSSE(w, fl, "result", resp)
}

// writeSSE emits one Server-Sent Event with a JSON data payload.
func writeSSE(w http.ResponseWriter, fl http.Flusher, event string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
	fl.Flush()
}

// execute routes a request: SELECT statements — GROUP BY and
// multi-aggregate included, since ISSUE 5 made aggregation part of the
// single compiled plan — go through Prepare (hitting the plan cache for
// repeated statements) and run under the request context, so a
// disconnected client aborts its query; everything else (CREATE TABLE,
// EXPLAIN) runs through Exec. The statement kind is sniffed with one
// parse up front so non-preparable statements neither inflate the
// plan-cache miss counter nor get parsed twice on the routing decision.
func (s *Server) execute(ctx context.Context, req QueryRequest, progress func(mcdbr.ProgressUpdate)) (*mcdbr.ExecResult, bool, error) {
	tail := s.opts.Tail
	if req.TotalSamples > 0 {
		tail.TotalSamples = req.TotalSamples
	}
	if req.Workers > 0 {
		tail.Parallelism = req.Workers
	}
	stmt, err := sqlish.Parse(req.SQL)
	if err != nil {
		return nil, false, err
	}
	if _, ok := stmt.(*sqlish.SelectStmt); ok {
		pq, err := s.engine.Prepare(req.SQL)
		if err != nil {
			return nil, false, err
		}
		// The adaptive sample budget is clamped to the server cap (unlike
		// fixed "samples", which validateBudgets rejects outright): an
		// adaptive run stopped early at the cap is still a correct partial
		// estimate.
		maxSamples := req.MaxSamples
		if cap := s.opts.MaxSamplesCap; cap > 0 && (maxSamples == 0 || maxSamples > cap) {
			maxSamples = cap
		}
		res, err := pq.RunCtx(ctx, mcdbr.RunOptions{
			Seed:              req.Seed,
			Samples:           req.Samples,
			Workers:           req.Workers,
			Tail:              tail,
			MaxBytes:          req.MaxBytes,
			TargetRelError:    req.TargetRelError,
			Confidence:        req.Confidence,
			MaxSamples:        maxSamples,
			DegradeOnDeadline: !req.NoDegrade,
			Progress:          progress,
		})
		if err != nil {
			return nil, false, err
		}
		return res, pq.CacheHit(), nil
	}
	// Exec has no per-run seed/samples channel; reject the overrides
	// loudly rather than silently computing with engine defaults.
	if req.Seed != 0 || req.Samples != 0 || req.TargetRelError != 0 {
		return nil, false, fmt.Errorf("server: per-request seed/samples need a preparable SELECT statement; this statement executes with engine defaults — drop the overrides to run it")
	}
	res, err := s.engine.ExecWithOptions(req.SQL, tail)
	if err != nil {
		return nil, false, err
	}
	return res, false, nil
}

func summarize(d *mcdbr.Distribution) *DistSummary {
	ecdf := d.ECDF()
	return &DistSummary{
		N:      len(d.Samples),
		Mean:   d.Mean(),
		Std:    d.Std(),
		Min:    ecdf.Min(),
		Max:    ecdf.Max(),
		Q50:    ecdf.Quantile(0.50),
		Q90:    ecdf.Quantile(0.90),
		Q99:    ecdf.Quantile(0.99),
		CVaR95: d.CVaR(0.95),
		CVaR99: d.CVaR(0.99),
	}
}

func summarizeGrouped(gd *mcdbr.GroupedDistribution) *GroupedSummary {
	out := &GroupedSummary{GroupCols: gd.GroupCols, AggCols: gd.AggCols}
	for i := range gd.Groups {
		g := &gd.Groups[i]
		gs := GroupSummary{Inclusion: g.Inclusion}
		for _, v := range g.Key {
			gs.Key = append(gs.Key, v.String())
		}
		for _, d := range g.Dists {
			gs.Dists = append(gs.Dists, summarize(d))
		}
		out.Groups = append(out.Groups, gs)
	}
	return out
}

// jsonNum maps NaN and ±Inf — which encoding/json rejects — to -1, the
// wire format's "undefined" sentinel.
func jsonNum(f float64) float64 {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return -1
	}
	return f
}

func summarizeCIs(cis []mcdbr.AggregateCI) []AggregateCISummary {
	out := make([]AggregateCISummary, len(cis))
	for i, ci := range cis {
		out[i] = AggregateCISummary{
			Group:       ci.Group,
			Agg:         ci.Agg,
			N:           ci.N,
			Mean:        jsonNum(ci.Mean),
			HalfWidth:   jsonNum(ci.HalfWidth),
			RelError:    jsonNum(ci.RelError),
			Converged:   ci.Converged,
			ConvergedAt: ci.ConvergedAt,
		}
	}
	return out
}

func summarizeAdaptive(rep *mcdbr.AdaptiveReport) *AdaptiveSummary {
	return &AdaptiveSummary{
		TargetRelError: rep.TargetRelError,
		Confidence:     rep.Confidence,
		MaxSamples:     rep.MaxSamples,
		SamplesUsed:    rep.SamplesUsed,
		Rounds:         rep.Rounds,
		Converged:      rep.Converged,
		Degraded:       rep.Degraded,
		CIs:            summarizeCIs(rep.CIs),
	}
}

func summarizeTail(t *mcdbr.TailResult) *TailSummary {
	return &TailSummary{
		DistSummary:       *summarize(&t.Distribution),
		QuantileEstimate:  t.QuantileEstimate,
		P:                 t.P,
		Lower:             t.Lower,
		ExpectedShortfall: t.ExpectedShortfall,
		Replenishments:    t.Diag.Replenishments,
	}
}

func buildResponse(res *mcdbr.ExecResult) *QueryResponse {
	resp := &QueryResponse{Kind: res.Kind.String()}
	switch res.Kind {
	case mcdbr.ExecScalar:
		v := res.Scalar
		resp.Scalar = &v
	case mcdbr.ExecTable:
		t := &TableSummary{}
		for _, c := range res.Table.Schema().Columns() {
			t.Columns = append(t.Columns, c.Name)
		}
		for _, r := range res.Table.Rows() {
			row := make([]string, len(r))
			for i, v := range r {
				row[i] = v.String()
			}
			t.Rows = append(t.Rows, row)
		}
		resp.Table = t
	case mcdbr.ExecDistribution:
		resp.Dist = summarize(res.Dist)
	case mcdbr.ExecTail:
		resp.Tail = summarizeTail(res.Tail)
	case mcdbr.ExecGroupedDistribution:
		resp.Grouped = summarizeGrouped(res.Grouped)
		if res.GroupDists != nil {
			resp.GroupDists = make(map[string]*DistSummary, len(res.GroupDists))
			for g, d := range res.GroupDists {
				resp.GroupDists[g] = summarize(d)
			}
		}
	case mcdbr.ExecGroupedTail:
		resp.GroupTails = make(map[string]*TailSummary, len(res.GroupTails))
		for g, t := range res.GroupTails {
			resp.GroupTails[g] = summarizeTail(t)
		}
	case mcdbr.ExecExplained:
		resp.Explain = res.Explain.String()
	}
	if res.Adaptive != nil {
		resp.Adaptive = summarizeAdaptive(res.Adaptive)
		resp.Degraded = res.Adaptive.Degraded
	}
	return resp
}

// ExplainRequest is the body of POST /explain.
type ExplainRequest struct {
	SQL string `json:"sql"`
}

// ExplainResponse is the body of a successful POST /explain.
type ExplainResponse struct {
	Logical   string   `json:"logical"`
	Physical  string   `json:"physical"`
	Rules     []string `json:"rules"`
	FinalPred string   `json:"final_pred,omitempty"`
	Aggregate string   `json:"aggregate"`
	Notes     []string `json:"notes,omitempty"`
	Text      string   `json:"text"`
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	var req ExplainRequest
	if !decodeBody(w, r, &req) {
		return
	}
	x, err := s.engine.Explain(req.SQL)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, ExplainResponse{
		Logical:   x.Logical,
		Physical:  x.Physical,
		Rules:     x.Rules,
		FinalPred: x.FinalPred,
		Aggregate: x.Aggregate,
		Notes:     x.Notes,
		Text:      x.String(),
	})
}

// TablesResponse is the body of GET /tables.
type TablesResponse struct {
	Tables       []string `json:"tables"`
	RandomTables []string `json:"random_tables"`
	VGFunctions  []string `json:"vg_functions"`
}

func (s *Server) handleTables(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("server: /tables needs GET"))
		return
	}
	writeJSON(w, http.StatusOK, TablesResponse{
		Tables:       s.engine.Catalog().Names(),
		RandomTables: s.engine.RandomTableNames(),
		VGFunctions:  s.engine.VGNames(),
	})
}

// HealthResponse is the body of GET /healthz.
type HealthResponse struct {
	Status          string  `json:"status"`
	UptimeSeconds   float64 `json:"uptime_s"`
	Goroutines      int     `json:"goroutines"`
	MaxConcurrent   int     `json:"max_concurrent"`
	ActiveQueries   int     `json:"active_queries"`
	PlanCacheHits   uint64  `json:"plan_cache_hits"`
	PlanCacheMisses uint64  `json:"plan_cache_misses"`
	PlanCacheSize   int     `json:"plan_cache_size"`
	// PrefixCache* report the engine's deterministic-prefix
	// materialization cache (see mcdbr.Engine.PrefixCacheStats).
	PrefixCacheHits   uint64 `json:"prefix_cache_hits"`
	PrefixCacheMisses uint64 `json:"prefix_cache_misses"`
	PrefixCacheSize   int    `json:"prefix_cache_size"`
	// Admission is the admission controller's live view: queue depth,
	// in-flight count, shed/degraded/completed counters, and per-class
	// queue-wait p95s.
	Admission admit.Stats `json:"admission"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	hits, misses, size := s.engine.PlanCacheStats()
	phits, pmisses, psize := s.engine.PrefixCacheStats()
	st := s.admit.Stats()
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:            "ok",
		UptimeSeconds:     time.Since(s.start).Seconds(),
		Goroutines:        runtime.NumGoroutine(),
		MaxConcurrent:     st.MaxConcurrent,
		ActiveQueries:     st.InFlight,
		PlanCacheHits:     hits,
		PlanCacheMisses:   misses,
		PlanCacheSize:     size,
		PrefixCacheHits:   phits,
		PrefixCacheMisses: pmisses,
		PrefixCacheSize:   psize,
		Admission:         st,
	})
}
