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
	"strings"
)

// steadyRuns is the number of runs in each set of --steady mode.
const steadyRuns = 10

// steadiness runs two sets of runs of one workload, seeds 1..steadyRuns
// in each, alternating the sets, and reports for every end-to-end
// metric each set's quartiles and whether the sets agree: each set's
// spread (interquartile range over median) within the metric's bound,
// and the two medians apart by no more than the bound, in either
// direction. The failed share must be the same in both sets.
func steadiness(sp *spec, workload string, seconds float64) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var sets [2][]*result
	for i := 1; i <= steadyRuns; i++ {
		for set := range sets {
			cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.Itoa(i),
				"--seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "--trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("set %d seed %d: %w", set+1, i, err)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			for _, l := range lines[:len(lines)-1] {
				fmt.Printf("set %d seed %d: %s\n", set+1, i, l)
			}
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("set %d seed %d: parsing result: %w", set+1, i, err)
			}
			sets[set] = append(sets[set], &res)
		}
	}

	var buf bytes.Buffer
	ok := true
	fmt.Fprintf(&buf, "%-28s %-44s %-44s %s\n", "metric", "set 1: q1 / median / q3 (spread)", "set 2: q1 / median / q3 (spread)", "agree")
	for _, m := range sp.EndToEnd {
		var q [2][3]float64
		var spread [2]float64
		for s := range sets {
			var vals []float64
			for _, r := range sets[s] {
				vals = append(vals, r.Metrics[m.Name].Value)
			}
			q[s] = quartiles(vals)
			spread[s] = (q[s][2] - q[s][0]) / q[s][1]
		}
		worse := (q[1][1] - q[0][1]) / q[0][1]
		if m.Better == "higher" {
			worse = -worse
		}
		agree := math.Abs(worse) <= m.Bound && spread[0] <= m.Bound && spread[1] <= m.Bound
		ok = ok && agree
		cell := func(s int) string {
			return fmt.Sprintf("%.4g / %.4g / %.4g (%.1f%%)", q[s][0], q[s][1], q[s][2], 100*spread[s])
		}
		fmt.Fprintf(&buf, "%-28s %-44s %-44s %v (bound %.0f%%, set 2 worse by %.1f%%)\n",
			m.Name, cell(0), cell(1), agree, 100*m.Bound, 100*worse)
	}
	var share [2]string
	for s := range sets {
		var att, fail int64
		for _, r := range sets[s] {
			att += r.Attempted
			fail += r.Failed
		}
		share[s] = fmt.Sprintf("%d/%d", fail, att)
	}
	sameShare := true
	for i := range sets[0] {
		a, b := sets[0][i], sets[1][i]
		// The failed share is compared run by run, as exact fractions.
		if a.Failed*b.Attempted != b.Failed*a.Attempted {
			sameShare = false
		}
	}
	ok = ok && sameShare
	fmt.Fprintf(&buf, "failed/attempted: set 1 %s, set 2 %s, same share in every run: %v\n", share[0], share[1], sameShare)
	fmt.Print(buf.String())
	if !ok {
		return fmt.Errorf("%s: the two sets do not agree within the bounds", workload)
	}
	fmt.Printf("%s: steady\n", workload)
	return nil
}

// quartiles returns the first quartile, median and third quartile of xs
// as Python's statistics.quantiles(xs, n=4) computes them (the
// exclusive method).
func quartiles(xs []float64) [3]float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	m := len(d) + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		delta := i*m - j*4
		j = min(max(j, 1), len(d)-1)
		out[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return out
}
