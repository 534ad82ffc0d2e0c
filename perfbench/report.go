package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// steadinessReport runs every workload (or only the one named) n times,
// each a child process of this binary with seeds seed, seed+1, …, and prints per metric the
// median, the quartiles, the interquartile range and (max−min) as shares
// of the median. An end-to-end metric is flagged when (max−min)/median
// exceeds its bound in BENCHMARK.json, or its interquartile range exceeds
// a third of the bound.
func steadinessReport(n int, only string, seed int64, seconds, traceMode int) int {
	bounds := readBounds("BENCHMARK.json")
	if only != "" && findWorkload(only) == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", only)
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, wl := range workloads {
		if only != "" && wl.name != only {
			continue
		}
		vals := map[string][]float64{}
		units := map[string]string{}
		for i := 0; i < n; i++ {
			args := []string{"--workload", wl.name, "--seed", strconv.FormatInt(seed+int64(i), 10),
				"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(traceMode)}
			cmd := exec.Command(exe, args...)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			var res result
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			if err == nil {
				err = json.Unmarshal(lines[len(lines)-1], &res)
			}
			if err != nil || !res.Correct {
				fmt.Fprintf(os.Stderr, "perfbench: %s seed %d failed: %v\n", wl.name, seed+int64(i), err)
				return 1
			}
			for name, m := range res.Metrics {
				vals[name] = append(vals[name], m.Value)
				units[name] = m.Unit
			}
			// Times with the stolen CPU time left in, for comparison.
			for _, l := range lines {
				var name, unit string
				var v float64
				if n, _ := fmt.Sscanf(string(l), "raw %s %g %s", &name, &v, &unit); n == 3 {
					vals[name+".raw"] = append(vals[name+".raw"], v)
					units[name+".raw"] = unit
				}
			}
		}
		names := make([]string, 0, len(vals))
		for name := range vals {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Printf("workload %s: %d runs, seeds %d..%d, trace=%d\n", wl.name, n, seed, seed+int64(n)-1, traceMode)
		fmt.Printf("  %-26s %-9s %12s %12s %12s %8s %8s %6s  %s\n", "metric", "unit", "median", "q1", "q3", "iqr/med", "rng/med", "bound", "flag")
		for _, name := range names {
			xs := append([]float64(nil), vals[name]...)
			sort.Float64s(xs)
			med := median(xs)
			q1, q3 := quartiles(xs)
			iqr, rng := ratio(q3-q1, math.Abs(med)), ratio(xs[len(xs)-1]-xs[0], math.Abs(med))
			flag := ""
			switch {
			case xs[0] == xs[len(xs)-1]:
				flag = "exact"
			case bounds[name] > 0 && rng > bounds[name]:
				flag = "SPREAD>BOUND"
			case bounds[name] > 0 && iqr > bounds[name]/3:
				flag = "IQR>BOUND/3"
			}
			bound := ""
			if b, ok := bounds[name]; ok {
				bound = strconv.FormatFloat(b, 'g', 3, 64)
			}
			fmt.Printf("  %-26s %-9s %12.6g %12.6g %12.6g %8.4f %8.4f %6s  %s\n", name, units[name], med, q1, q3, iqr, rng, bound, flag)
		}
	}
	return 0
}

// quartiles returns the first and third quartiles of sorted xs by the
// exclusive method, as Python's statistics.quantiles(xs, n=4) computes
// them.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) < 2 {
		return xs[0], xs[0]
	}
	q := func(i int) float64 {
		m := len(xs) + 1
		j := min(max(i*m/4, 1), len(xs)-1)
		delta := i*m - j*4
		return (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// readBounds returns each end-to-end metric's bound from BENCHMARK.json
// (empty when the file is missing).
func readBounds(path string) map[string]float64 {
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	out := map[string]float64{}
	b, err := os.ReadFile(path)
	if err != nil || json.Unmarshal(b, &spec) != nil {
		return out
	}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}
