package main

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/admit"
)

// config is one run of one workload.
type config struct {
	seed   uint64
	budget time.Duration // how long the run measures
	traced bool
	setups int     // set-ups timed; their median is setup_s
	reps   float64 // scale of probe repetition counts
}

// opRecord is one completed op.
type opRecord struct {
	i      int
	latMS  float64 // open loop: from the time the op was due; else from send
	lateMS float64 // open loop: how late the generator sent it
	out    outcome
}

// closedBase keeps the closed-loop op indexes of a workload that also has
// an open-loop phase apart from that phase's.
const closedBase = 1 << 24

// closedLoop runs ops base, base+1, ... on the given number of clients,
// each sending its next op when the previous one completes. With fixed > 0
// it runs exactly that many ops; otherwise at least atLeast and then until
// the deadline.
func closedLoop(inst instance, clients, base, atLeast, fixed int, deadline time.Time, tr *tracer) []opRecord {
	var (
		next atomic.Int64
		mu   sync.Mutex
		recs []opRecord
		wg   sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if fixed > 0 && i >= fixed {
					return
				}
				if fixed == 0 && i >= atLeast && !time.Now().Before(deadline) {
					return
				}
				sp := tr.root(base+i, "op")
				t0 := time.Now()
				out := inst.op(base+i, sp)
				lat := time.Since(t0)
				sp.end()
				mu.Lock()
				recs = append(recs, opRecord{i: base + i, latMS: lat.Seconds() * 1e3, out: out})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sort.Slice(recs, func(a, b int) bool { return recs[a].i < recs[b].i })
	return recs
}

// openLoop makes op i due at start+sched[i] whether or not earlier ops
// have completed, and runs it on the first free of conns connections.
// Latency counts from the due time, so a stall is charged to every op it
// delays.
func openLoop(inst instance, sched []time.Duration, conns int, tr *tracer) []opRecord {
	recs := make([]opRecord, len(sched))
	start := time.Now()
	due := make(chan int, len(sched)) // holds every send, so the dispatcher never waits on a connection
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range due {
				at := start.Add(sched[i])
				sp := tr.root(i, "op")
				sent := time.Now()
				out := inst.op(i, sp)
				done := time.Now()
				sp.end()
				recs[i] = opRecord{i: i, latMS: done.Sub(at).Seconds() * 1e3, lateMS: sent.Sub(at).Seconds() * 1e3, out: out}
			}
		}()
	}
	// The dispatcher sleeps in the kernel on a thread of its own: the Go
	// runtime's timers wake up to a millisecond late while the process
	// waits on the network, which is as long as a request takes.
	runtime.LockOSThread()
	for i, off := range sched {
		for d := time.Until(start.Add(off)); d > 0; d = time.Until(start.Add(off)) {
			ts := syscall.NsecToTimespec(int64(d))
			_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep is resumed by the loop
		}
		due <- i
	}
	runtime.UnlockOSThread()
	close(due)
	wg.Wait()
	return recs
}

// usage is the process's consumption so far.
type usage struct {
	cpu   time.Duration
	alloc uint64
}

func snapshot() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // RUSAGE_SELF cannot fail
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: ms.TotalAlloc,
	}
}

// rssMB reads the process's resident set size.
func rssMB() float64 {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(raw))
	if len(fields) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(fields[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// watchRSS samples the resident set every 20 ms until stop is called,
// which returns the highest sample. VmHWM would also count the set-ups,
// whose garbage is not the timed part's.
func watchRSS() (stop func() float64) {
	done, out := make(chan struct{}), make(chan float64)
	go func() {
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		peak := rssMB()
		for {
			select {
			case <-tick.C:
				peak = math.Max(peak, rssMB())
			case <-done:
				out <- math.Max(peak, rssMB())
				return
			}
		}
	}()
	return func() float64 {
		close(done)
		return <-out
	}
}

func latencies(recs []opRecord) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = r.latMS
	}
	return out
}

func manifest(def workloadDef, cfg config) map[string]any {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return map[string]any{
		"workload": def.name, "seed": cfg.seed, "seconds": cfg.budget.Seconds(), "traced": cfg.traced,
		"commit": commit, "go": runtime.Version(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"rate_qps": def.openQPS, "clients": def.clients,
	}
}

// runWorkload sets the workload up, runs it untraced or traced, checks
// every op, and returns the metrics.
func runWorkload(def workloadDef, cfg config) (*result, error) {
	wall0 := time.Now()
	var inst instance
	var setups []float64
	for s := 0; s < cfg.setups; s++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if inst, err = def.build(cfg.seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res := &result{Metrics: map[string]metric{}, manifest: manifest(def, cfg)}
	var err error
	if cfg.traced {
		err = runTraced(def, cfg, inst, res)
	} else {
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.manifest["setup_times_s"] = setups
		runUntraced(def, cfg, inst, res)
	}
	if cerr := inst.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0 && len(res.failures) == 0
	res.manifest["wall_s"] = time.Since(wall0).Seconds()
	return res, nil
}

// tally counts the records into the result and keeps the first failures.
func (r *result) tally(recs []opRecord) (ok int) {
	for _, rec := range recs {
		r.Attempted++
		if rec.out.err != nil {
			r.Failed++
			if len(r.failures) < 5 {
				r.failures = append(r.failures, rec.out.err.Error())
			}
			continue
		}
		ok++
	}
	return ok
}

// runUntraced measures the end-to-end metrics.
func runUntraced(def workloadDef, cfg config, inst instance, res *result) {
	debug.FreeOSMemory() // collect and hand back what the set-ups left
	peakRSS := watchRSS()
	u0 := snapshot()
	var open []opRecord
	base, remaining := 0, cfg.budget
	if def.openQPS > 0 {
		// 60% of the run is the open loop that gives the latencies.
		d := cfg.budget * 6 / 10
		open = openLoop(inst, poissonSchedule(cfg.seed, def.openQPS, d), def.openConns, nil)
		base, remaining = closedBase, cfg.budget-d
	}
	t0 := time.Now()
	closed := closedLoop(inst, def.clients, base, def.minOps, 0, t0.Add(remaining), nil)
	closedWall := time.Since(t0).Seconds()
	u1 := snapshot()

	okOpen, okClosed := res.tally(open), res.tally(closed)
	lat := latencies(closed)
	if def.openQPS > 0 {
		lat = latencies(open)
	}
	ops := float64(okOpen + okClosed)
	res.Metrics["op_p50_ms"] = metric{percentile(lat, 0.5), "ms"}
	res.Metrics["op_p90_ms"] = metric{percentile(lat, 0.9), "ms"}
	res.Metrics["ops_per_s"] = metric{float64(okClosed) / closedWall, "1/s"}
	res.Metrics["cpu_ms_per_op"] = metric{(u1.cpu - u0.cpu).Seconds() * 1e3 / ops, "ms"}
	res.Metrics["alloc_mb_per_op"] = metric{float64(u1.alloc-u0.alloc) / (1 << 20) / ops, "MB"}
	res.Metrics["peak_rss_mb"] = metric{peakRSS(), "MB"}
	var win []float64
	for k := 0; k < 6; k++ {
		win = append(win, median(lat[k*len(lat)/6:(k+1)*len(lat)/6]))
	}
	res.manifest["window_p50_ms"] = win
	res.manifest["latency_samples"] = len(lat)
	res.manifest["samples_beyond_p90"] = len(lat) - int(0.9*float64(len(lat))+0.999999)
	res.manifest["open_loop_ops"] = len(open)
	res.manifest["closed_loop_ops"] = len(closed)
}

// runTraced runs the same ops twice — tracing off, then on — checks that
// both passes computed the same things, and fills the per-layer metrics
// from the spans, the program's own counters, and the layer probes.
func runTraced(def workloadDef, cfg config, inst instance, res *result) error {
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{0, m.unit}
	}
	set := func(name string, v float64) {
		m, ok := res.Metrics[name]
		if !ok {
			panic("benchmark: metric " + name + " is not declared in perLayer")
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[name] = metric{v, m.Unit}
	}

	tr := newTracer()
	share := cfg.budget * 3 / 10 // each pass; the probes take the rest
	pass := func(tr *tracer, fixed int) []opRecord {
		if def.openQPS > 0 {
			return openLoop(inst, poissonSchedule(cfg.seed, def.openQPS, share), def.openConns, tr)
		}
		return closedLoop(inst, 1, 0, def.minOps, fixed, time.Now().Add(share), tr)
	}
	plain := pass(nil, 0)
	c0 := readCounters(inst)
	traced := pass(tr, len(plain))
	c1 := readCounters(inst)
	res.tally(plain)
	res.tally(traced)

	// Equal seeds must give equal results and equal looper counts with
	// tracing on and off.
	for i := range plain {
		a, b := plain[i].out, traced[i].out
		if a.err != nil || b.err != nil {
			continue
		}
		if a.digest != b.digest || !sameLooperCounts(a, b) {
			res.failures = append(res.failures, fmt.Sprintf("%s op %d: the traced and the untraced pass disagree", def.name, plain[i].i))
		}
	}

	p := &prober{metrics: map[string]metric{}, root: tr.root(-1, "replay"), seed: cfg.seed, reps: cfg.reps}
	inst.probe(p)
	p.root.end()
	for name, m := range p.metrics {
		set(name, m.Value)
	}

	spans := tr.finish()
	lp, lt := latencies(plain), latencies(traced)
	set("bench.timed_ops", float64(len(traced)))
	set("bench.untraced_p50_ms", median(lp))
	set("bench.traced_p50_ms", median(lt))
	// Paired by op: equal seeds do equal work, so the ops' own spread
	// cancels and what is left is the cost of recording spans.
	var over []float64
	for i := range plain {
		over = append(over, (lt[i]-lp[i])/lp[i])
	}
	set("bench.trace_overhead_share", median(over))
	set("bench.harness_self_ms", median(perOpMS(spans, "op", true)))
	set("plan.cache_hit_ratio", ratio(c1.planHits-c0.planHits, c1.planHits-c0.planHits+c1.planMisses-c0.planMisses))
	set("exec.prefix_hit_ratio", ratio(c1.prefixHits-c0.prefixHits, c1.prefixHits-c0.prefixHits+c1.prefixMisses-c0.prefixMisses))
	set("mcdbr.prepare_ms", median(perOpMS(spans, "mcdbr.prepare", false)))
	set("mcdbr.run_ms", median(perOpMS(spans, "mcdbr.run", false)))
	for _, kind := range []string{"quickstart", "fig2", "having", "detprefix", "scalar"} {
		set("mcdbr.stmt_ms."+kind, median(perOpMS(spans, "stmt."+kind, false)))
	}

	// The audit ops are a fixed prefix of the op list, so these repeat
	// exactly for a seed however many ops the time allowed.
	audit := traced
	if len(audit) > def.minOps {
		audit = audit[:def.minOps]
	}
	var errs []float64
	for _, rec := range audit {
		if !math.IsNaN(rec.out.relErr) {
			errs = append(errs, rec.out.relErr)
		}
	}
	set("check.result_rel_err", median(errs))
	looperMetrics(set, audit, traced, spans)
	if def.openQPS > 0 {
		serverMetrics(set, traced, c0.admit, c1.admit)
	}

	res.manifest["latency_samples"] = len(lt)
	res.manifest["audit_ops"] = len(audit)
	return writeTrace(outDir, def.name, res.manifest, spans)
}

// counters are the totals the program keeps itself.
type counters struct {
	planHits, planMisses, prefixHits, prefixMisses uint64
	admit                                          admit.Stats // serve_mix only
}

func readCounters(inst instance) counters {
	var c counters
	c.planHits, c.planMisses, _ = inst.engine().PlanCacheStats()
	c.prefixHits, c.prefixMisses, _ = inst.engine().PrefixCacheStats()
	if s, ok := inst.(interface{ admitStats() admit.Stats }); ok {
		c.admit = s.admitStats()
	}
	return c
}

// looperMetrics fills gibbs.* from the looper's own reports: exact counts
// over the audit ops, timings over all traced ops. Ops without a report
// leave the metrics at 0.
func looperMetrics(set func(string, float64), audit, traced []opRecord, spans []span) {
	var cand, acc, give, repl, ops float64
	for _, rec := range audit {
		if d := rec.out.diag; d != nil {
			ops++
			repl += float64(d.Replenishments)
			for _, it := range d.Iters {
				cand += float64(it.Candidates)
				acc += float64(it.Accepts)
				give += float64(it.GiveUps)
			}
		}
	}
	if ops == 0 {
		return
	}
	set("gibbs.candidates_per_op", cand/ops)
	set("gibbs.accept_ratio", acc/cand)
	set("gibbs.giveups_per_op", give/ops)
	set("gibbs.replenish_per_op", repl/ops)
	var steps []float64
	var allCand float64
	for _, rec := range traced {
		if rec.out.diag == nil {
			continue
		}
		for _, it := range rec.out.diag.Iters {
			steps = append(steps, it.Duration.Seconds()*1e3)
			allCand += float64(it.Candidates)
		}
	}
	set("gibbs.init_ms", median(perOpMS(spans, "gibbs.init", false)))
	set("gibbs.step_ms", median(steps))
	set("gibbs.us_per_candidate", sum(steps)*1e3/allCand)
	set("gibbs.step_share_of_op", sum(steps)/sum(latencies(traced)))
}

// serverMetrics fills server.*, admit.* and the generator's lateness from
// the traced open loop and the admission controller's totals around it.
func serverMetrics(set func(string, float64), traced []opRecord, before, after admit.Stats) {
	byClass := map[string][]float64{}
	var late []float64
	for _, rec := range traced {
		if rec.out.err == nil {
			// Round trip from send, less the server's own elapsed_ms:
			// decode, admission wait, encode and transport.
			byClass[rec.out.class] = append(byClass[rec.out.class], rec.latMS-rec.lateMS-rec.out.serverMS)
		}
		late = append(late, rec.lateMS)
	}
	for c, class := range serveClasses {
		set("server.overhead_p50_ms."+class, percentile(byClass[class], 0.5))
		set("server.overhead_p90_ms."+class, percentile(byClass[class], 0.9))
		set("admit.wait_p95_ms."+class, after.Classes[c].WaitP95MS)
	}
	set("admit.shed", float64(after.Shed-before.Shed))
	set("admit.timed_out", float64(after.TimedOut-before.TimedOut))
	set("admit.degraded", float64(after.Degraded-before.Degraded))
	set("bench.gen_late_p90_ms", percentile(late, 0.9))
}

func ratio(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// sameLooperCounts reports whether two ops' looper reports carry the same
// exact counts (durations differ, counts must not).
func sameLooperCounts(a, b outcome) bool {
	if (a.diag == nil) != (b.diag == nil) {
		return false
	}
	if a.diag == nil {
		return true
	}
	if a.diag.Replenishments != b.diag.Replenishments || len(a.diag.Iters) != len(b.diag.Iters) {
		return false
	}
	for i, x := range a.diag.Iters {
		y := b.diag.Iters[i]
		if x.Candidates != y.Candidates || x.Accepts != y.Accepts || x.GiveUps != y.GiveUps || x.Replenishments != y.Replenishments {
			return false
		}
	}
	return true
}
