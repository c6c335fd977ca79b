package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/expr"
	"repro/internal/workload"
	"repro/mcdbr"
)

func testEngine(t *testing.T) *mcdbr.Engine {
	t.Helper()
	e := mcdbr.New(mcdbr.WithSeed(42), mcdbr.WithParallelism(2))
	e.RegisterTable(workload.LossMeans(30, 2, 8, 5))
	if err := e.DefineRandomTable(mcdbr.RandomTable{
		Name: "losses", ParamTable: "means", VG: "Normal",
		VGParams: []expr.Expr{expr.C("m"), expr.F(1.0)},
		Columns:  []mcdbr.RandomCol{{Name: "cid", FromParam: "cid"}, {Name: "val", VGOut: 0}},
	}); err != nil {
		t.Fatal(err)
	}
	return e
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

const mcSQL = `SELECT SUM(val) AS totalLoss FROM Losses WITH RESULTDISTRIBUTION MONTECARLO(60)`

func TestServerEndpoints(t *testing.T) {
	s := New(testEngine(t), Options{MaxConcurrent: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// healthz
	resp, body := func() (*http.Response, []byte) {
		r, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		var b bytes.Buffer
		b.ReadFrom(r.Body)
		return r, b.Bytes()
	}()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d: %s", resp.StatusCode, body)
	}
	var health HealthResponse
	if err := json.Unmarshal(body, &health); err != nil || health.Status != "ok" {
		t.Fatalf("healthz body %s (err %v)", body, err)
	}
	if health.MaxConcurrent != 4 {
		t.Fatalf("max_concurrent = %d", health.MaxConcurrent)
	}
	if health.Admission.MaxConcurrent != 4 || health.Admission.MaxQueue != 16 {
		t.Fatalf("admission sizing = %+v", health.Admission)
	}
	if len(health.Admission.Classes) != 3 {
		t.Fatalf("admission classes = %+v", health.Admission.Classes)
	}

	// tables
	r2, err := http.Get(ts.URL + "/tables")
	if err != nil {
		t.Fatal(err)
	}
	var tables TablesResponse
	if err := json.NewDecoder(r2.Body).Decode(&tables); err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if len(tables.Tables) == 0 || tables.Tables[0] != "means" {
		t.Fatalf("tables = %+v", tables.Tables)
	}
	if len(tables.RandomTables) != 1 || tables.RandomTables[0] != "losses" {
		t.Fatalf("random tables = %+v", tables.RandomTables)
	}
	if len(tables.VGFunctions) == 0 {
		t.Fatal("no VG functions listed")
	}

	// scalar query
	resp, body = postJSON(t, ts.URL+"/query", QueryRequest{SQL: `SELECT COUNT(*) FROM means`})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scalar query = %d: %s", resp.StatusCode, body)
	}
	var q QueryResponse
	if err := json.Unmarshal(body, &q); err != nil {
		t.Fatal(err)
	}
	if q.Kind != "scalar" || q.Scalar == nil || *q.Scalar != 30 {
		t.Fatalf("scalar response = %s", body)
	}

	// Monte Carlo query: second request must hit the plan cache.
	resp, body = postJSON(t, ts.URL+"/query", QueryRequest{SQL: mcSQL})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mc query = %d: %s", resp.StatusCode, body)
	}
	var q1 QueryResponse
	if err := json.Unmarshal(body, &q1); err != nil {
		t.Fatal(err)
	}
	if q1.Kind != "distribution" || q1.Dist == nil || q1.Dist.N != 60 {
		t.Fatalf("mc response = %s", body)
	}
	if q1.PlanCached {
		t.Fatal("first request reported a cached plan")
	}
	_, body = postJSON(t, ts.URL+"/query", QueryRequest{SQL: mcSQL, Seed: 7})
	var q2 QueryResponse
	if err := json.Unmarshal(body, &q2); err != nil {
		t.Fatal(err)
	}
	if !q2.PlanCached {
		t.Fatalf("second request missed the plan cache: %s", body)
	}
	if q2.Dist.Mean == q1.Dist.Mean {
		t.Fatal("per-request seed had no effect")
	}

	// explain
	resp, body = postJSON(t, ts.URL+"/explain", ExplainRequest{SQL: mcSQL})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain = %d: %s", resp.StatusCode, body)
	}
	var ex ExplainResponse
	if err := json.Unmarshal(body, &ex); err != nil {
		t.Fatal(err)
	}
	if len(ex.Rules) == 0 || !strings.Contains(ex.Physical, "Seed(Normal)") {
		t.Fatalf("explain response = %s", body)
	}

	// bad SQL is a 400 with a JSON error, and the server stays up.
	resp, body = postJSON(t, ts.URL+"/query", QueryRequest{SQL: `SELEC nonsense`})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad sql = %d: %s", resp.StatusCode, body)
	}
	var e ErrorResponse
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Fatalf("error body = %s", body)
	}
	// missing sql
	resp, _ = postJSON(t, ts.URL+"/query", QueryRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing sql = %d", resp.StatusCode)
	}
	// wrong method
	r3, err := http.Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if r3.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /query = %d", r3.StatusCode)
	}

	// healthz again: the admission counters saw the queries above. Every
	// served query was admitted and completed (nothing queued or shed at
	// this concurrency), so the live counters must balance.
	r4, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health = HealthResponse{}
	if err := json.NewDecoder(r4.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	r4.Body.Close()
	ad := health.Admission
	if ad.Admitted < 4 || ad.Completed != ad.Admitted {
		t.Fatalf("admission counters = %+v", ad)
	}
	if ad.InFlight != 0 || ad.QueueDepth != 0 || ad.Shed != 0 || ad.Degraded != 0 || ad.Draining {
		t.Fatalf("admission state = %+v", ad)
	}
	var normal bool
	for _, cs := range ad.Classes {
		if cs.Class == "normal" {
			normal = true
			if cs.Admitted != ad.Admitted {
				t.Fatalf("normal class admitted %d of %d", cs.Admitted, ad.Admitted)
			}
			if cs.WaitP95MS < 0 {
				t.Fatalf("wait p95 = %g", cs.WaitP95MS)
			}
		}
	}
	if !normal {
		t.Fatalf("no normal class in %+v", ad.Classes)
	}
}

// TestServerCreateThenQuery: a CREATE TABLE statement (not preparable)
// falls back to Exec, and the defined table is immediately queryable.
func TestServerCreateThenQuery(t *testing.T) {
	e := mcdbr.New(mcdbr.WithSeed(1))
	e.RegisterTable(workload.LossMeans(10, 2, 8, 3))
	s := New(e, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/query", QueryRequest{SQL: `CREATE TABLE L (CID, v) AS
FOR EACH CID IN means
WITH w AS Normal(VALUES(m, 1.0))
SELECT CID, w.* FROM w`})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create = %d: %s", resp.StatusCode, body)
	}
	var q QueryResponse
	if err := json.Unmarshal(body, &q); err != nil || q.Kind != "created" {
		t.Fatalf("create response = %s", body)
	}
	resp, body = postJSON(t, ts.URL+"/query", QueryRequest{SQL: `SELECT SUM(v) AS x FROM L WITH RESULTDISTRIBUTION MONTECARLO(20)`})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query over created table = %d: %s", resp.StatusCode, body)
	}
}

// TestServerConcurrentQueries fires many simultaneous requests at one
// server (run under -race in CI): every response must be a valid 200 and
// equal-seed responses must agree.
func TestServerConcurrentQueries(t *testing.T) {
	s := New(testEngine(t), Options{MaxConcurrent: 3})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, base := postJSON(t, ts.URL+"/query", QueryRequest{SQL: mcSQL})
	var want QueryResponse
	if err := json.Unmarshal(base, &want); err != nil || want.Dist == nil {
		t.Fatalf("baseline = %s", base)
	}

	const clients = 16
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			b, _ := json.Marshal(QueryRequest{SQL: mcSQL, Workers: 1 + c%3})
			resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(b))
			if err != nil {
				errc <- err
				return
			}
			defer resp.Body.Close()
			var q QueryResponse
			if err := json.NewDecoder(resp.Body).Decode(&q); err != nil {
				errc <- err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errc <- fmt.Errorf("client %d: status %d", c, resp.StatusCode)
				return
			}
			if q.Dist == nil || q.Dist.N != want.Dist.N || q.Dist.Mean != want.Dist.Mean {
				errc <- fmt.Errorf("client %d: diverging result %+v", c, q.Dist)
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if s.MaxConcurrent() != 3 {
		t.Fatalf("MaxConcurrent = %d", s.MaxConcurrent())
	}
}

// TestServeGracefulShutdown: Serve returns nil once its context is
// cancelled and the listener has drained.
func TestServeGracefulShutdown(t *testing.T) {
	s := New(testEngine(t), Options{})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, "127.0.0.1:0", time.Second) }()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not shut down")
	}
}

// TestServerGroupedAndMultiAggregate: GROUP BY and multi-aggregate
// SELECTs run through the prepared path (plan_cached on repeat) and ship
// the ordered grouped JSON view plus the legacy map and CVaR fields.
func TestServerGroupedAndMultiAggregate(t *testing.T) {
	e := testEngine(t)
	s := New(e, Options{MaxConcurrent: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const sql = `SELECT SUM(val) AS x, AVG(val) AS a FROM Losses GROUP BY cid
WITH RESULTDISTRIBUTION MONTECARLO(30)`
	resp, body := postJSON(t, ts.URL+"/query", QueryRequest{SQL: sql})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("grouped query = %d: %s", resp.StatusCode, body)
	}
	var out QueryResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Kind != "grouped_distribution" || out.Grouped == nil {
		t.Fatalf("response = %s", body)
	}
	if len(out.Grouped.Groups) != 30 || len(out.Grouped.AggCols) != 2 {
		t.Fatalf("grouped = %+v", out.Grouped)
	}
	if out.Grouped.AggCols[0] != "x" || out.Grouped.AggCols[1] != "a" {
		t.Fatalf("agg cols = %v", out.Grouped.AggCols)
	}
	for _, g := range out.Grouped.Groups {
		if len(g.Key) != 1 || len(g.Dists) != 2 || g.Inclusion != 1 {
			t.Fatalf("group = %+v", g)
		}
		if g.Dists[0].N != 30 {
			t.Fatalf("group %v n = %d", g.Key, g.Dists[0].N)
		}
		// CVaR95 is a conditional tail mean: at least the 0.9-quantile.
		if g.Dists[0].CVaR95 < g.Dists[0].Q90 {
			t.Fatalf("group %v cvar95 %g < q90 %g", g.Key, g.Dists[0].CVaR95, g.Dists[0].Q90)
		}
	}
	// Second run of the same statement hits the plan cache.
	resp, body = postJSON(t, ts.URL+"/query", QueryRequest{SQL: sql})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat = %d: %s", resp.StatusCode, body)
	}
	out = QueryResponse{}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.PlanCached {
		t.Fatalf("grouped statement did not hit the plan cache: %s", body)
	}
	// Per-request seed/samples now work for GROUP BY too.
	resp, body = postJSON(t, ts.URL+"/query", QueryRequest{SQL: sql, Seed: 7, Samples: 12})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("override = %d: %s", resp.StatusCode, body)
	}
	out = QueryResponse{}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Grouped == nil || out.Grouped.Groups[0].Dists[0].N != 12 {
		t.Fatalf("override response = %s", body)
	}

	// Deterministic grouped aggregate over FTABLE-ish data: ExecTable JSON.
	if _, err := e.Exec(`SELECT SUM(val) AS totalLoss FROM Losses
WITH RESULTDISTRIBUTION MONTECARLO(20) FREQUENCYTABLE totalLoss`); err != nil {
		t.Fatal(err)
	}
	resp, body = postJSON(t, ts.URL+"/query", QueryRequest{SQL: `SELECT COUNT(*) AS n, MIN(totalLoss) AS lo FROM FTABLE`})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("table query = %d: %s", resp.StatusCode, body)
	}
	out = QueryResponse{}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Kind != "table" || out.Table == nil || len(out.Table.Rows) != 1 || len(out.Table.Columns) != 2 {
		t.Fatalf("table response = %s", body)
	}
}

// sseEvent is one parsed Server-Sent Event.
type sseEvent struct {
	name string
	data []byte
}

// postSSE posts a streaming query and parses the event stream.
func postSSE(t *testing.T, url string, body any) []sseEvent {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		var out bytes.Buffer
		_, _ = out.ReadFrom(resp.Body)
		t.Fatalf("content-type = %q (status %d): %s", ct, resp.StatusCode, out.String())
	}
	var raw bytes.Buffer
	if _, err := raw.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	var events []sseEvent
	for _, block := range strings.Split(raw.String(), "\n\n") {
		var ev sseEvent
		for _, line := range strings.Split(block, "\n") {
			if name, ok := strings.CutPrefix(line, "event: "); ok {
				ev.name = name
			} else if data, ok := strings.CutPrefix(line, "data: "); ok {
				ev.data = []byte(data)
			}
		}
		if ev.name != "" {
			events = append(events, ev)
		}
	}
	return events
}

const adaptiveServerSQL = `SELECT SUM(val) AS totalLoss FROM Losses
WITH RESULTDISTRIBUTION MONTECARLO(UNTIL ERROR < 0.005 AT 95%, MAX 16384)`

// TestServerStreamAdaptive: POST /query?stream=1 emits progress events
// with monotonically shrinking half-widths and a final result event
// identical (modulo timing) to the non-streaming response.
func TestServerStreamAdaptive(t *testing.T) {
	s := New(testEngine(t), Options{MaxConcurrent: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	events := postSSE(t, ts.URL+"/query?stream=1", QueryRequest{SQL: adaptiveServerSQL})
	var progress []ProgressEvent
	var final *QueryResponse
	for _, ev := range events {
		switch ev.name {
		case "progress":
			var p ProgressEvent
			if err := json.Unmarshal(ev.data, &p); err != nil {
				t.Fatalf("bad progress event %s: %v", ev.data, err)
			}
			progress = append(progress, p)
		case "result":
			var q QueryResponse
			if err := json.Unmarshal(ev.data, &q); err != nil {
				t.Fatalf("bad result event %s: %v", ev.data, err)
			}
			final = &q
		case "error":
			t.Fatalf("error event: %s", ev.data)
		}
	}
	if len(progress) < 2 {
		t.Fatalf("want >= 2 progress events, got %d", len(progress))
	}
	if final == nil {
		t.Fatal("no result event")
	}
	prevSamples, prevHW := 0, 0.0
	for i, p := range progress {
		if p.SamplesUsed <= prevSamples {
			t.Fatalf("round %d: samples %d after %d", p.Round, p.SamplesUsed, prevSamples)
		}
		hw := p.CIs[0].HalfWidth
		if i > 0 && prevHW > 0 && hw >= prevHW {
			t.Fatalf("round %d: half-width %g did not shrink from %g", p.Round, hw, prevHW)
		}
		prevSamples, prevHW = p.SamplesUsed, hw
	}
	if final.Adaptive == nil || !final.Adaptive.Converged {
		t.Fatalf("final adaptive summary = %+v", final.Adaptive)
	}
	if final.Adaptive.SamplesUsed != progress[len(progress)-1].SamplesUsed {
		t.Fatalf("final used %d samples, last progress said %d", final.Adaptive.SamplesUsed, progress[len(progress)-1].SamplesUsed)
	}

	// The final event matches the non-streaming response for the same seed.
	resp, body := postJSON(t, ts.URL+"/query", QueryRequest{SQL: adaptiveServerSQL})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("non-streaming = %d: %s", resp.StatusCode, body)
	}
	var plain QueryResponse
	if err := json.Unmarshal(body, &plain); err != nil {
		t.Fatal(err)
	}
	if *plain.Dist != *final.Dist {
		t.Fatalf("dist mismatch:\nstream = %+v\nplain  = %+v", *final.Dist, *plain.Dist)
	}
	if plain.Adaptive.SamplesUsed != final.Adaptive.SamplesUsed || plain.Adaptive.Rounds != final.Adaptive.Rounds {
		t.Fatalf("adaptive mismatch:\nstream = %+v\nplain  = %+v", *final.Adaptive, *plain.Adaptive)
	}
}

// TestServerStreamFixedN: stream=1 on a fixed MONTECARLO(n) statement,
// plain or DOMAIN, emits progressive partials and a final result identical
// to the non-streaming run.
func TestServerStreamFixedN(t *testing.T) {
	s := New(testEngine(t), Options{MaxConcurrent: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, req := range []QueryRequest{
		{SQL: `SELECT SUM(val) AS totalLoss FROM Losses WITH RESULTDISTRIBUTION MONTECARLO(300)`},
		{SQL: `SELECT SUM(val) AS totalLoss FROM Losses WITH RESULTDISTRIBUTION MONTECARLO(30)
DOMAIN totalLoss >= QUANTILE(0.9)`, TotalSamples: 100},
	} {
		events := postSSE(t, ts.URL+"/query?stream=1", req)
		var final *QueryResponse
		nProgress := 0
		for _, ev := range events {
			switch ev.name {
			case "progress":
				nProgress++
			case "result":
				var q QueryResponse
				if err := json.Unmarshal(ev.data, &q); err != nil {
					t.Fatal(err)
				}
				final = &q
			case "error":
				t.Fatalf("error event: %s", ev.data)
			}
		}
		if nProgress == 0 || final == nil {
			t.Fatalf("%s: progress = %d, final = %v", req.SQL, nProgress, final)
		}
		resp, body := postJSON(t, ts.URL+"/query", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("non-streaming = %d: %s", resp.StatusCode, body)
		}
		var plain QueryResponse
		if err := json.Unmarshal(body, &plain); err != nil {
			t.Fatal(err)
		}
		if plain.Tail != nil {
			if final.Tail == nil || final.Tail.N != 30 || *plain.Tail != *final.Tail {
				t.Fatalf("tail mismatch:\nstream = %+v\nplain  = %+v", final.Tail, *plain.Tail)
			}
			continue
		}
		if final.Dist == nil || final.Dist.N != 300 {
			t.Fatalf("final dist = %+v", final.Dist)
		}
		if plain.Dist == nil || *plain.Dist != *final.Dist {
			t.Fatalf("dist mismatch:\nstream = %+v\nplain  = %+v", *final.Dist, plain.Dist)
		}
	}
}

// TestServerStreamRejectsNonSelect: CREATE statements cannot stream.
func TestServerStreamRejectsNonSelect(t *testing.T) {
	s := New(testEngine(t), Options{MaxConcurrent: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, body := postJSON(t, ts.URL+"/query?stream=1", QueryRequest{
		SQL: `CREATE TABLE l2(CID, val) AS FOR EACH CID IN means WITH v AS Normal(VALUES(m, 1.0)) SELECT CID, v.* FROM v`,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
}

// TestServerClientDisconnectAborts: cancelling the request context aborts
// the running query server-side and the server keeps serving.
func TestServerClientDisconnectAborts(t *testing.T) {
	s := New(testEngine(t), Options{MaxConcurrent: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	b, _ := json.Marshal(QueryRequest{SQL: `SELECT SUM(val) AS totalLoss FROM Losses WITH RESULTDISTRIBUTION MONTECARLO(2000000)`})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/query", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	done := make(chan struct{})
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		close(done)
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("client did not return after cancel")
	}
	// The (single) query slot must free promptly: a follow-up query succeeds.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, body := postJSON(t, ts.URL+"/query", QueryRequest{SQL: mcSQL})
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server did not recover after disconnect: %d %s", resp.StatusCode, body)
		}
		time.Sleep(100 * time.Millisecond)
	}
}
