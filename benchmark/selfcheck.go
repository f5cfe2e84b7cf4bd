package main

import (
	"fmt"
	"os"
)

// worseBy is the share of base by which v is worse, given which direction
// is better; negative when v is better.
func worseBy(m metricSpec, base, v float64) float64 {
	if base == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (base - v) / base
	}
	return (v - base) / base
}

// runSelfcheck runs two sets of runs of every selected workload with this
// same binary, alternating the workload order between runs, and fails if
// the two medians of any end-to-end metric differ by more than the
// metric's bound: a benchmark that cannot tell itself from itself cannot
// judge a change. Every run uses another seed. It prints each set's
// quartiles, so that later changes can quote the spread.
func runSelfcheck(names []string, e env, seed uint64, seconds float64, runs int) int {
	printEnvironment(e)
	// values[workload][metric][set] are the runs' readings.
	values := map[string]map[string][2][]float64{}
	for _, n := range names {
		values[n] = map[string][2][]float64{}
	}
	pass := 0
	for set := 0; set < 2; set++ {
		for run := 0; run < runs; run++ {
			order := append([]string(nil), names...)
			if pass%2 == 1 {
				for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
					order[i], order[j] = order[j], order[i]
				}
			}
			for _, n := range order {
				r, err := runWorkload(n, e, seed+uint64(pass), seconds, false, false)
				if err != nil {
					fatalf("%s: %v", n, err)
				}
				if !r.correct() {
					printResult(os.Stdout, r, false)
					return 1
				}
				for _, m := range endToEnd {
					v := values[n][m.Name]
					v[set] = append(v[set], r.metrics[m.Name])
					values[n][m.Name] = v
				}
				fmt.Printf("# set %d run %d seed %d %s done\n", set+1, run+1, seed+uint64(pass), n)
			}
			pass++
		}
	}
	status := 0
	fmt.Printf("\n%-16s %-16s %12s %12s %12s %8s | %12s %8s | %8s %6s\n",
		"workload", "metric", "q1", "median", "q3", "spread", "median 2", "spread 2", "worse", "bound")
	for _, n := range names {
		for _, m := range endToEnd {
			v := values[n][m.Name]
			q1, q2, q3 := quartiles(v[0])
			_, m2, _ := quartiles(v[1])
			w := worseBy(m, q2, m2)
			if back := worseBy(m, m2, q2); back > w {
				w = back // either set may play the parent
			}
			verdict := ""
			if w > m.Bound {
				verdict = "  DISAGREE"
				status = 1
			}
			fmt.Printf("%-16s %-16s %12.4f %12.4f %12.4f %7.1f%% | %12.4f %7.1f%% | %7.1f%% %5.0f%%%s\n",
				n, m.Name, q1, q2, q3, 100*spread(v[0]), m2, 100*spread(v[1]), 100*w, 100*m.Bound, verdict)
		}
	}
	if status != 0 {
		fmt.Println("\nselfcheck FAILED: two sets of runs of the same code disagree by more than a bound")
	} else {
		fmt.Println("\nselfcheck passed: both sets agree within every bound")
	}
	return status
}
