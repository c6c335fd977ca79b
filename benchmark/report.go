package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"
)

// child runs one workload in a process of its own, so that peak RSS, CPU
// and allocation belong to that workload alone, and parses the last line
// of its output.
func child(workload string, seed uint64, seconds float64, trace int) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s: no result line (%v): %w", workload, runErr, err)
	}
	return &res, nil
}

// runReport runs every workload untraced and traced, `repeat` times over,
// prints every metric by name and unit, and — given two or more sets —
// the relative difference between the sets beside each bound. It returns
// the process exit code.
func runReport(seed uint64, seconds float64, repeat int) int {
	start := time.Now()
	failed := false
	// sets[r][workload] holds the end-to-end metrics of set r.
	sets := make([]map[string]map[string]metric, repeat)
	for r := range sets {
		sets[r] = map[string]map[string]metric{}
		for _, w := range workloads {
			for trace := 0; trace <= 1; trace++ {
				res, err := child(w.name, seed, seconds, trace)
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					return 1
				}
				if !res.Correct {
					failed = true
				}
				fmt.Printf("== set %d  %s  trace=%d  correct=%v attempted=%d failed=%d\n", r+1, w.name, trace, res.Correct, res.Attempted, res.Failed)
				specs := endToEnd
				if trace == 1 {
					specs = perLayer
				} else {
					sets[r][w.name] = res.Metrics
				}
				for _, m := range specs {
					fmt.Printf("%-36s %14.6g %s\n", m.name, res.Metrics[m.name].Value, m.unit)
				}
			}
		}
	}
	if repeat > 1 {
		fmt.Printf("== first set against last set: relative change for the worse, beside the bound\n")
		for _, w := range workloads {
			for _, m := range endToEnd {
				a, b := sets[0][w.name][m.name].Value, sets[repeat-1][w.name][m.name].Value
				worse := (b - a) / a
				if m.better == "higher" {
					worse = (a - b) / a
				}
				verdict := "ok"
				if worse > m.bound {
					verdict, failed = "EXCEEDS", true
				}
				fmt.Printf("%-12s %-18s %12.6g -> %12.6g  %+7.3f  bound %.2f  %s\n", w.name, m.name, a, b, worse, m.bound, verdict)
			}
		}
	}
	summary, _ := json.Marshal(map[string]any{
		"seed": seed, "seconds": seconds, "sets": repeat, "go": runtime.Version(), "nproc": runtime.NumCPU(),
		"wall_s": math.Round(time.Since(start).Seconds()), "ok": !failed, "claim": nil,
	})
	fmt.Printf("%s\n", summary)
	if failed {
		return 1
	}
	return 0
}
