// Command benchmark is the one benchmark of this repository: four named
// workloads, end-to-end metrics from an untraced run and per-layer metrics
// from a traced run, as BENCHMARK.json at the repository root declares.
//
//	bash benchmark/run.sh --workload tail_tpch --seed 1 --seconds 24 --trace 0
//	bash benchmark/run.sh --report --repeat 2
//
// README.md in this directory defines the workloads, the metrics and the
// method.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// outDir receives the trace files; run.sh starts the binary in the
// benchmark directory.
var outDir = "out"

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: tail_tpch, mc_grouped, adhoc_cold or serve_mix")
		seed    = flag.Uint64("seed", 1, "seed of every generated input: tables, op seeds, request mix, arrival schedule")
		seconds = flag.Float64("seconds", 24, "how long one run measures")
		trace   = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		report  = flag.Bool("report", false, "run every workload, untraced and traced, each in its own process, and print all metrics")
		repeat  = flag.Int("repeat", 1, "with -report: sets of runs; two or more are compared against the bounds of BENCHMARK.json")
	)
	flag.Parse()
	// The method fixes two processors, whatever the box has.
	runtime.GOMAXPROCS(2)
	if *report {
		os.Exit(runReport(*seed, *seconds, *repeat))
	}
	def, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		os.Exit(2)
	}
	res, err := runWorkload(def, config{seed: *seed, budget: time.Duration(*seconds * float64(time.Second)), traced: *trace != 0, setups: 7, reps: 1})
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", def.name, err)
		os.Exit(1)
	}
	res.print(os.Stdout)
	if !res.Correct {
		os.Exit(1)
	}
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	manifest map[string]any
	failures []string
}

func (r *result) print(w *os.File) {
	man, _ := json.Marshal(r.manifest)
	fmt.Fprintf(w, "manifest %s\n", man)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-34s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "FAILED %s\n", f)
	}
	line, _ := json.Marshal(r)
	fmt.Fprintf(w, "%s\n", line)
}
