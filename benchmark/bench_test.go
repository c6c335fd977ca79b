package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestSpecMatchesBenchmarkJSON holds the code's metric and workload
// tables equal to what BENCHMARK.json declares.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not a valid metric or workload name", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		check(w.name)
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the code has %q: %q", i, b.Workloads[i], w.name, w.why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d defined", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		check(m.name)
		if got := b.EndToEnd[i]; got.Name != m.name || got.Unit != m.unit || got.Better != m.better || got.Bound != m.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the code has %+v", i, got, m)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d defined", len(b.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		check(m.name)
		if got := b.PerLayer[i]; got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the code has %+v", i, got, m)
		}
	}
}

// TestSmoke runs every workload untraced and traced at a scale of a few
// ops and checks that each declared metric comes out once, with its unit,
// and that every op passes its checks.
func TestSmoke(t *testing.T) {
	outDir = t.TempDir()
	for _, def := range workloads {
		def.minOps = 2
		for _, traced := range []bool{false, true} {
			specs := endToEnd
			if traced {
				specs = perLayer
			}
			t0 := time.Now()
			res, err := runWorkload(def, config{seed: 5, budget: 100 * time.Millisecond, traced: traced, setups: 1, reps: 0.01})
			t.Logf("%s traced=%v: %v", def.name, traced, time.Since(t0))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", def.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d %v", def.name, traced, res.Correct, res.Attempted, res.Failed, res.failures)
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s traced=%v: %d metrics printed, %d declared", def.name, traced, len(res.Metrics), len(specs))
			}
			for _, m := range specs {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s traced=%v: metric %s: got %+v (present=%v), want unit %s", def.name, traced, m.name, got, ok, m.unit)
				}
			}
			if traced {
				if _, err := os.Stat(outDir + "/trace-" + def.name + ".json"); err != nil {
					t.Errorf("%s: no trace file: %v", def.name, err)
				}
			}
		}
	}
}

// TestInputsFollowTheSeed: the generated load is a function of the seed
// alone.
func TestInputsFollowTheSeed(t *testing.T) {
	load := func(seed uint64) string {
		var s string
		for i := 0; i < 50; i++ {
			s += fmt.Sprint(requestAt(seed, i), opSeed(seed, i), adhocStmts(i))
		}
		return s + fmt.Sprint(poissonSchedule(seed, serveRateQPS, time.Second))
	}
	if load(7) != load(7) {
		t.Error("two generations of one seed's load differ")
	}
	if load(7) == load(8) {
		t.Error("two seeds generate the same load")
	}
	if a, b := poissonSchedule(7, serveRateQPS, 10*time.Second), poissonSchedule(7, serveRateQPS, 10*time.Second); !reflect.DeepEqual(a, b) || len(a) < 1500 {
		t.Errorf("schedule of %d and %d arrivals at %g qps over 10 s", len(a), len(b), serveRateQPS)
	}
}
