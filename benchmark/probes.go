package main

import (
	"sort"
	"time"

	"repro/internal/expr"
	"repro/internal/pq"
	"repro/internal/prng"
	"repro/internal/seeds"
	"repro/internal/sqlish"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/vg"
	"repro/mcdbr"
)

// Layer probes: each layer's public functions called stand-alone, sized
// like the workload's op, in the traced run only. Their spans hang under
// a "replay" root, apart from the ops.

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type prober struct {
	metrics map[string]metric
	root    ref
	seed    uint64
	// reps scales repetition counts: 1 in a real run, less in the smoke test.
	reps float64
}

func (p *prober) set(name, unit string, v float64) { p.metrics[name] = metric{v, unit} }

func (p *prober) n(reps int) int {
	if n := int(float64(reps) * p.reps); n > 3 {
		return n
	}
	return 3
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// percentile is the nearest-rank q-quantile; it sorts a copy.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// measure calls f reps times under one replay span and returns the
// median seconds per call.
func (p *prober) measure(name string, reps int, f func()) float64 {
	sp := p.root.child("replay." + name)
	reps = p.n(reps)
	ts := make([]float64, reps)
	for i := range ts {
		t0 := time.Now()
		f()
		ts[i] = time.Since(t0).Seconds()
	}
	sp.count("calls", float64(reps))
	sp.end()
	return median(ts)
}

// timed records measure's result times scale as the metric name.
func (p *prober) timed(name, unit string, scale float64, reps int, f func()) {
	p.set(name, unit, p.measure(name, reps, f)*scale)
}

// engine measures parse, plan and run costs of a workload's statements
// on its own engine, after the ops are done. The first kind is the
// workload's primary statement.
func (p *prober) engine(e *mcdbr.Engine, kinds []kindStmt, extra string) {
	texts := []string{extra}
	for _, k := range kinds {
		texts = append(texts, k.sql(k.n))
	}
	// A re-registered table advances the DDL epoch, which empties the plan
	// and prefix caches without touching the statements: the next Prepare
	// of a known text is a miss.
	invalidate := func() {
		e.RegisterTable(storage.NewTable("bench_epoch", types.NewSchema(types.Column{Name: "x", Kind: types.KindInt})))
	}
	sp := p.root.child("replay.plan")
	var parse, cold, hit []float64
	for r := 0; r < p.n(15); r++ {
		for _, sql := range texts {
			invalidate()
			t0 := time.Now()
			_, err := sqlish.Parse(sql)
			t1 := time.Now()
			_, err2 := e.Prepare(sql)
			t2 := time.Now()
			_, err3 := e.Prepare(sql)
			t3 := time.Now()
			if err != nil || err2 != nil || err3 != nil {
				continue
			}
			parse = append(parse, t1.Sub(t0).Seconds()*1e6)
			cold = append(cold, (t2.Sub(t1)-t1.Sub(t0)).Seconds()*1e6)
			hit = append(hit, t3.Sub(t2).Seconds()*1e6)
		}
	}
	sp.end()
	p.set("sqlish.parse_us", "us", median(parse))
	p.set("plan.prepare_cold_us", "us", median(cold))
	p.set("plan.prepare_hit_us", "us", median(hit))

	// One replicate against n: the single-replicate run is the fixed cost
	// (plan run, seed allocation, result assembly), the rest divided by
	// n-1 the inner loop's cost per replicate (vg + expr + aggregation).
	perRep := map[string]float64{}
	for _, k := range kinds {
		q, err := e.Prepare(k.sql(k.n))
		if err != nil {
			continue
		}
		run := func(n, workers int) func() {
			return func() { _, _ = q.Run(mcdbr.RunOptions{Seed: mix(p.seed, 7), Samples: n, Workers: workers}) }
		}
		run(k.n, 1)()
		fixed := p.measure("mcdbr.run."+k.kind+".1", 15, run(1, 1))
		full := p.measure("mcdbr.run."+k.kind+".n", 15, run(k.n, 1))
		perRep[k.kind] = (full - fixed) / float64(k.n-1) * 1e6
		p.set("mcdbr.run_fixed_ms."+k.kind, "ms", fixed*1e3)
		p.set("mcdbr.per_replicate_us."+k.kind, "us", perRep[k.kind])
		if k.kind != kinds[0].kind {
			continue
		}
		// Workers 1 against Workers 2 on the same statement.
		two := p.measure("exec.run.workers2", 15, run(k.n, 2))
		p.set("exec.run_workers1_ms", "ms", full*1e3)
		p.set("exec.run_workers2_ms", "ms", two*1e3)
		p.set("exec.parallel_efficiency", "ratio", full/(2*two))
		// The first Run after an invalidation recomputes the deterministic
		// prefix; re-runs are served from the prefix cache.
		var miss, warm []float64
		for r := 0; r < p.n(9); r++ {
			invalidate()
			if q, err = e.Prepare(k.sql(k.n)); err != nil {
				break
			}
			for j := 0; j < 6; j++ {
				t0 := time.Now()
				_, _ = q.Run(mcdbr.RunOptions{Seed: mix(p.seed, 7), Workers: 1})
				if d := time.Since(t0).Seconds() * 1e3; j == 0 {
					miss = append(miss, d)
				} else {
					warm = append(warm, d)
				}
			}
		}
		p.set("exec.prefix_miss_ms", "ms", median(miss)-median(warm))
	}
	if g, h := perRep["grouped"], perRep["having"]; g > 0 && h > 0 {
		p.set("mcdbr.having_penalty", "ratio", h/g)
	}
}

// layerSizes are the op's dimensions that the stand-alone replays copy.
type layerSizes struct {
	rows   int // uncertain rows, one TS-seed each
	window int // stream values materialized per seed
	queue  int // tuples through the looper's priority queue
	result int // samples in one result distribution
}

const kernelRows = 4096

// layers replays vg, seeds, pq, expr and stats at the op's sizes.
func (p *prober) layers(sz layerSizes, pred expr.Expr, schema *types.Schema) {
	gen, _ := vg.NewRegistry().Lookup("Normal")
	params := []types.Value{types.NewFloat(1), types.NewFloat(1)}
	master := prng.NewStream(mix(p.seed, 11))

	draws := sz.rows * sz.window
	if sampler, err := gen.(vg.Preparer).Prepare(params); err == nil {
		dst := make([]types.Value, 1)
		p.timed("vg.sample_ns", "ns", 1e9/float64(draws), 9, func() {
			var sub prng.Sub
			for i := 0; i < draws; i++ {
				sub = master.SubAt(uint64(i))
				_ = sampler(&sub, dst)
			}
		})
	}

	p.timed("seeds.materialize_ms", "ms", 1e3, 9, func() {
		st := seeds.NewStore()
		for r := 0; r < sz.rows; r++ {
			_ = st.Alloc(master, gen, params).Materialize(0, sz.window, nil)
		}
	})

	spilled := 0
	p.timed("pq.pushpop_ns", "ns", 1e9/float64(sz.queue), 50, func() {
		q := pq.New(0, outDir) // the engine's default in-memory limit
		for i := 0; i < sz.queue; i++ {
			_ = q.Push(pq.Entry{Key: mix(uint64(i), 13) % uint64(sz.rows), Payload: uint64(i)})
		}
		spilled = q.SpilledRuns()
		for q.Len() > 0 {
			_, _ = q.Pop()
		}
		q.Reset()
	})
	p.set("pq.spilled_runs", "count", float64(spilled))

	p.timed("expr.kernel_compile_us", "us", 1e6, 200, func() { _, _ = expr.CompileKernel(pred, schema) })
	if k, err := expr.CompileKernel(pred, schema); err == nil {
		k.Begin(kernelRows)
		for _, c := range k.Cols() {
			for i := 0; i < kernelRows; i++ {
				switch schema.Col(c.Slot()).Kind {
				case types.KindInt:
					c.Set(i, types.NewInt(int64(1990+i%20)))
				default:
					c.Set(i, types.NewFloat(float64(i%7)*0.25))
				}
			}
		}
		sel := make([]int, 0, kernelRows)
		p.timed("expr.kernel_eval_ns_per_row", "ns", 1e9/kernelRows, 200, func() { sel = k.EvalSel(sel[:0]) })
	}

	sample := make([]float64, sz.result)
	r := prng.NewSub(mix(p.seed, 17))
	for i := range sample {
		sample[i] = r.Norm()
	}
	p.timed("stats.summarize_us", "us", 1e6, 200, func() {
		_ = stats.NewECDF(sample).Quantile(0.5)
		_, _ = stats.QuantileCI(sample, 0.99, 0.95)
		_ = stats.Summarize(sample)
	})
}
