package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"time"

	"repro/internal/admit"
	"repro/internal/expr"
	"repro/internal/server"
	"repro/mcdbr"
)

// serve_mix: the engine behind server.New on a real loopback listener.
// Phase A is an open loop on a seeded Poisson schedule at serveRateQPS,
// phase B a closed loop of serveClients clients.
const (
	// serveRateQPS is about a fifth of the closed-loop capacity measured on
	// the commit that defined the benchmark (see README.md): client and
	// server share the two cores, and from 500 qps up latency climbs so
	// steeply with load that it magnifies every wobble of the machine. The
	// rate is fixed here and never calibrated at run time, so a faster
	// server shows as lower latency, not as a different load.
	serveRateQPS = 300.0
	// serveConns bounds open-loop requests in flight: more than the
	// server's two execution slots, so bursts queue in admission.
	serveConns      = 8
	serveClients    = 2
	serveCustomers  = 100
	serveQuickBelow = 10090
)

// serveTail is the server's tail-sampling default: rejection sampling is
// capped for the same reason as in tail_tpch. A request adds its
// total_samples.
var serveTail = mcdbr.TailSampleOptions{MaxTriesPerUpdate: tailMaxTries}

// reqKind is one entry of the traffic mix.
type reqKind struct {
	name     string
	weight   int
	priority string
	sql      string
	total    int // total_samples for the tail kind
	// pool is how many distinct request seeds the kind draws from. The
	// tail kind's cost depends on its seed (coefficient of variation 0.4),
	// so it needs many for op_p90_ms not to follow the luck of the draw.
	pool int
}

var serveKinds = []reqKind{
	{name: "quickstart", weight: 3, priority: "interactive", pool: 16, sql: quickstartSQL(serveQuickBelow, 60)},
	{name: "fig2", weight: 2, priority: "interactive", pool: 16, sql: fig2SQL("nobody", 128)},
	{name: "adaptive", weight: 1, priority: "normal", pool: 16,
		sql: "SELECT SUM(val) AS totalLoss FROM losses\nWITH RESULTDISTRIBUTION MONTECARLO(UNTIL ERROR < 0.02 AT 95%, MAX 20000)"},
	{name: "tail", weight: 1, priority: "batch", total: 100, pool: 256,
		sql: "SELECT SUM(val) AS t FROM losses20\nWITH RESULTDISTRIBUTION MONTECARLO(20) DOMAIN t >= QUANTILE(0.9)"},
}

var serveClasses = []string{"interactive", "normal", "batch"}

// request is one op of serve_mix: which kind, and which seed of its pool.
type request struct{ kind, slot int }

// requestAt derives the i-th request of the seed's list.
func requestAt(seed uint64, i int) request {
	r := mix(mix(seed, saltMix), uint64(int64(i)))
	total := 0
	for _, k := range serveKinds {
		total += k.weight
	}
	pick := int(r % uint64(total))
	kind := 0
	for pick >= serveKinds[kind].weight {
		pick -= serveKinds[kind].weight
		kind++
	}
	return request{kind: kind, slot: int((r >> 32) % uint64(serveKinds[kind].pool))}
}

// poissonSchedule returns due times (offsets from the phase start) of a
// Poisson process at qps for the given duration.
func poissonSchedule(seed uint64, qps float64, d time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(int64(mix(seed, saltSchedule))))
	var out []time.Duration
	var at float64
	for {
		at += rng.ExpFloat64() / qps
		due := time.Duration(at * float64(time.Second))
		if due >= d {
			return out
		}
		out = append(out, due)
	}
}

type serveMix struct {
	seed   uint64
	e      *mcdbr.Engine
	srv    *server.Server
	hs     *http.Server
	done   chan error
	client *http.Client
	url    string
	// bodies and want hold, per kind and pool slot, the request body and
	// the summary the library computes for that statement and seed.
	bodies [][][]byte
	want   [][]summary
	truth  float64 // analytic mean of the quickstart statement
}

// summary is the part of a response that must equal the library result
// bit for bit.
type summary struct {
	n                   int
	mean, std, q50, q99 float64
	theta               float64
}

func summaryOf(res *mcdbr.ExecResult) (summary, error) {
	var d *mcdbr.Distribution
	var s summary
	switch {
	case res.Kind == mcdbr.ExecDistribution:
		d = res.Dist
	case res.Kind == mcdbr.ExecTail:
		d = &res.Tail.Distribution
		s.theta = res.Tail.QuantileEstimate
	case res.Kind == mcdbr.ExecGroupedDistribution && len(res.Grouped.Groups) == 1:
		d = res.Grouped.Groups[0].Dists[0]
	default:
		return s, fmt.Errorf("unexpected result kind %s", res.Kind)
	}
	s.n, s.mean, s.std, s.q50, s.q99 = len(d.Samples), d.Mean(), d.Std(), d.Quantile(0.5), d.Quantile(0.99)
	return s, nil
}

func summaryOfResponse(r *server.QueryResponse) (summary, error) {
	var d *server.DistSummary
	var s summary
	switch {
	case r.Dist != nil:
		d = r.Dist
	case r.Tail != nil:
		d = &r.Tail.DistSummary
		s.theta = r.Tail.QuantileEstimate
	case r.Grouped != nil && len(r.Grouped.Groups) == 1:
		d = r.Grouped.Groups[0].Dists[0]
	default:
		return s, fmt.Errorf("unexpected response kind %s", r.Kind)
	}
	s.n, s.mean, s.std, s.q50, s.q99 = d.N, d.Mean, d.Std, d.Q50, d.Q99
	return s, nil
}

func buildServeMix(seed uint64) (instance, error) {
	e := mcdbr.New(mcdbr.WithSeed(mix(seed, 0)), mcdbr.WithParallelism(1))
	mu, err := defineLosses(e, "losses", serveCustomers, 2, 8, mix(seed, saltTables))
	if err != nil {
		return nil, err
	}
	if _, err := defineLosses(e, "losses20", 20, 2, 8, mix(seed, saltTables+1)); err != nil {
		return nil, err
	}
	if err := defineSalaries(e); err != nil {
		return nil, err
	}
	w := &serveMix{seed: seed, e: e, done: make(chan error, 1)}
	for i := 0; i < serveQuickBelow-10000; i++ {
		w.truth += mu[i]
	}

	// The library result of every (kind, seed) the mix can send; this is
	// also the warm-up that fills the plan cache.
	w.bodies = make([][][]byte, len(serveKinds))
	w.want = make([][]summary, len(serveKinds))
	for k, kind := range serveKinds {
		w.bodies[k] = make([][]byte, kind.pool)
		w.want[k] = make([]summary, kind.pool)
		pq, err := e.Prepare(kind.sql)
		if err != nil {
			return nil, fmt.Errorf("serve_mix %s: %w", kind.name, err)
		}
		for slot := 0; slot < kind.pool; slot++ {
			qseed := mix(seed, saltPool+uint64(k)<<10+uint64(slot))
			tail := serveTail
			tail.TotalSamples = kind.total
			res, err := pq.Run(mcdbr.RunOptions{Seed: qseed, Tail: tail})
			if err != nil {
				return nil, fmt.Errorf("serve_mix %s: %w", kind.name, err)
			}
			if w.want[k][slot], err = summaryOf(res); err != nil {
				return nil, fmt.Errorf("serve_mix %s: %w", kind.name, err)
			}
			w.bodies[k][slot], err = json.Marshal(server.QueryRequest{
				SQL: kind.sql, Seed: qseed, Priority: kind.priority, TotalSamples: kind.total,
			})
			if err != nil {
				return nil, err
			}
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	w.srv = server.New(e, server.Options{MaxConcurrent: 2, Tail: serveTail})
	w.hs = &http.Server{Handler: w.srv.Handler()}
	go func() { w.done <- w.hs.Serve(ln) }()
	w.url = "http://" + ln.Addr().String() + "/query"
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveConns, MaxConnsPerHost: serveConns}}
	for i := -4 * serveConns; i < 0; i++ { // open the connections
		if o := w.op(i, ref{}); o.err != nil {
			_ = w.close()
			return nil, o.err
		}
	}
	return w, nil
}

func (w *serveMix) op(i int, sp ref) outcome {
	rq := requestAt(w.seed, i)
	kind := serveKinds[rq.kind]
	c := sp.child("http.roundtrip")
	start := time.Now()
	resp, err := w.client.Post(w.url, "application/json", bytes.NewReader(w.bodies[rq.kind][rq.slot]))
	if err != nil {
		c.end()
		return fail("serve_mix op %d %s: %w", i, kind.name, err)
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close() // the body is read; nothing left to lose
	took := time.Since(start)
	c.end()
	if err != nil {
		return fail("serve_mix op %d %s: reading the response: %w", i, kind.name, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fail("serve_mix op %d %s: status %d: %s", i, kind.name, resp.StatusCode, bytes.TrimSpace(body))
	}
	var qr server.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		return fail("serve_mix op %d %s: decoding the response: %w", i, kind.name, err)
	}
	service := time.Duration(qr.ElapsedMS * float64(time.Millisecond))
	c.synth("server.service", start.Add((took-service)/2), service)
	c.count("response_bytes", float64(len(body)))
	got, err := summaryOfResponse(&qr)
	if err != nil {
		return fail("serve_mix op %d %s: %w", i, kind.name, err)
	}
	o := outcome{relErr: math.NaN(), class: kind.priority, serverMS: qr.ElapsedMS, respBytes: len(body),
		digest: fold(0, got.mean, got.q99, got.theta)}
	if got != w.want[rq.kind][rq.slot] {
		o.err = fmt.Errorf("serve_mix op %d %s: HTTP summary %+v differs from the library's %+v", i, kind.name, got, w.want[rq.kind][rq.slot])
		return o
	}
	if kind.name == "quickstart" {
		o.relErr = relErr(got.mean, w.truth)
	}
	return o
}

func (w *serveMix) close() error {
	// Client side first: Shutdown waits for connections the server still
	// counts as open.
	w.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := w.hs.Shutdown(ctx)
	if serr := <-w.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

func (w *serveMix) engine() *mcdbr.Engine { return w.e }

func (w *serveMix) admitStats() admit.Stats { return w.srv.AdmitStats() }

func (w *serveMix) probe(p *prober) {
	p.engine(w.e, []kindStmt{
		{"quickstart", func(n int) string { return quickstartSQL(serveQuickBelow, n) }, 60},
		{"fig2", func(n int) string { return fig2SQL("nobody", n) }, 128},
	}, serveKinds[3].sql)
	p.layers(layerSizes{rows: serveCustomers, window: 60, queue: 20, result: 60},
		expr.B(expr.OpLt, expr.C("cid"), expr.I(serveQuickBelow)), lossSchema)
	// What one response costs to encode, and how large it is.
	var bytesTotal, n int
	var sample server.QueryResponse
	for k := range serveKinds {
		resp, err := w.client.Post(w.url, "application/json", bytes.NewReader(w.bodies[k][0]))
		if err != nil {
			continue
		}
		body, _ := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		bytesTotal += len(body)
		n++
		if k == 0 {
			_ = json.Unmarshal(body, &sample)
		}
	}
	if n > 0 {
		p.set("server.response_bytes", "count", float64(bytesTotal)/float64(n))
	}
	p.timed("server.encode_us", "us", 1e6, 2000, func() { _, _ = json.Marshal(&sample) })
}
