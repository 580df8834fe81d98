package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// setStats summarizes one set of runs of one metric.
type setStats struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"` // (q3-q1)/median
	Values []float64 `json:"values"`
}

func (s setStats) String() string {
	return fmt.Sprintf("%.5g [%.5g, %.5g] %.1f%%", s.Median, s.Q1, s.Q3, s.Spread*100)
}

func statsOf(xs []float64) setStats {
	q1, q2, q3 := quartiles(xs)
	return setStats{Median: q2, Q1: q1, Q3: q3, Spread: spread(xs), Values: xs}
}

// checkRow is one (workload, metric) comparison of the two sets.
type checkRow struct {
	Set1  setStats `json:"set1"`
	Set2  setStats `json:"set2"`
	Delta float64  `json:"delta"` // |median2-median1|/median1
	Bound float64  `json:"bound"`
	OK    bool     `json:"ok"`
}

// selfcheckSummary is the last line -selfcheck prints; bench/baseline.json
// is one, indented.
type selfcheckSummary struct {
	Provenance provenance                     `json:"provenance"`
	Runs       int                            `json:"runs_per_set"`
	Seconds    int                            `json:"seconds"`
	Results    map[string]map[string]checkRow `json:"results"`
	// PerLayer holds one traced run (seed 1) per workload.
	PerLayer map[string]map[string]metricValue `json:"per_layer"`
}

// runSelfcheck runs two interleaved sets of k runs of every workload
// (seeds 1..k, alternating which set goes first) as separate
// invocations of this binary, as an outside harness would, and then
// one traced run per workload. A (workload, metric) pair passes when the
// medians differ by at most the metric's bound and, except for setup_s,
// each set's quartile spread is within the bound too. It prints every
// pair and, as its last line, a JSON summary.
func runSelfcheck(ctx context.Context, k, seconds int) (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	vals := [2]map[string]map[string][]float64{{}, {}}
	for i := 1; i <= k; i++ {
		for _, w := range workloads {
			order := []int{0, 1}
			if i%2 == 0 {
				order = []int{1, 0}
			}
			for _, set := range order {
				res, err := subRun(ctx, self, w.name, i, seconds, 0)
				if err != nil {
					return false, err
				}
				if vals[set][w.name] == nil {
					vals[set][w.name] = map[string][]float64{}
				}
				line := fmt.Sprintf("set %d %s seed %d:", set+1, w.name, i)
				for _, d := range endToEnd {
					v := res.Metrics[d.name].Value
					vals[set][w.name][d.name] = append(vals[set][w.name][d.name], v)
					line += fmt.Sprintf(" %s=%.5g", d.name, v)
				}
				fmt.Fprintln(os.Stderr, line)
			}
		}
	}
	sum := selfcheckSummary{Provenance: hostTags(ctx, 1), Runs: k, Seconds: seconds,
		Results: map[string]map[string]checkRow{}, PerLayer: map[string]map[string]metricValue{}}
	for _, w := range workloads {
		res, err := subRun(ctx, self, w.name, 1, seconds, 1)
		if err != nil {
			return false, err
		}
		sum.PerLayer[w.name] = res.Metrics
	}
	ok := true
	fmt.Printf("%-12s %-18s %-36s %-36s %8s %6s\n", "workload", "metric", "set 1: median [q1, q3] spread", "set 2: median [q1, q3] spread", "delta", "bound")
	for _, w := range workloads {
		sum.Results[w.name] = map[string]checkRow{}
		for _, d := range endToEnd {
			a, b := statsOf(vals[0][w.name][d.name]), statsOf(vals[1][w.name][d.name])
			row := checkRow{Set1: a, Set2: b, Bound: d.bound, Delta: math.Abs(b.Median-a.Median) / a.Median}
			row.OK = row.Delta <= d.bound && (d.name == "setup_s" || (a.Spread <= d.bound && b.Spread <= d.bound))
			ok = ok && row.OK
			sum.Results[w.name][d.name] = row
			mark := ""
			if !row.OK {
				mark = "  FAIL"
			}
			fmt.Printf("%-12s %-18s %-36s %-36s %7.2f%% %5.0f%%%s\n",
				w.name, d.name, a, b, row.Delta*100, d.bound*100, mark)
		}
	}
	b, err := json.Marshal(sum)
	if err != nil {
		return false, err
	}
	fmt.Printf("%s\n", b)
	return ok, nil
}

// subRun runs one benchmark run in a fresh invocation and decodes its
// result line. A run with a failed cell exits nonzero, so it is an
// error here.
func subRun(ctx context.Context, self, name string, seed, seconds, trace int) (result, error) {
	var res result
	cmd := exec.CommandContext(ctx, self, "-workload", name, "-seed", strconv.Itoa(seed),
		"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return res, fmt.Errorf("%s seed %d: %w", name, seed, err)
	}
	if err := json.Unmarshal(lastLine(out.Bytes()), &res); err != nil {
		return res, fmt.Errorf("%s seed %d result: %w", name, seed, err)
	}
	return res, nil
}
