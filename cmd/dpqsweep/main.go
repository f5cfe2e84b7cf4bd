// Command dpqsweep runs the workload sweep matrix: Skeap, Seap and
// KSelect across Zipf skew, hot-host contention, phase-shifting load and
// burst/drain cycles, each cell checked against the analytical twin's
// predicted round/congestion/bit envelopes (Thm 3.2, 4.2, 5.1) and
// replayed against the sequential oracle. In the style of ddtxn's bm.py,
// experiments are selected by name and ad-hoc matrices are cross products
// of `key=v1,v2` axes.
//
// Usage:
//
//	dpqsweep [-exp zipf,contention|all] [-matrix SPEC] [-quick] [-strict]
//	         [-json FILE] [-seed S] [-calibrate] [-list]
//
// Examples:
//
//	dpqsweep -quick                         # CI matrix, verdict summary
//	dpqsweep -exp zipf,burst -json out.json # two experiments, JSON matrix
//	dpqsweep -matrix "proto=seap;n=16,64;dist=zipf;zipfs=0.8,1.6"
//	dpqsweep -quick -strict                 # exit 1 on any DIVERGED cell
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"

	"dpq/internal/sweep"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dpqsweep: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	exp := flag.String("exp", "all", "comma-separated experiment names (see -list), or 'all'")
	matrix := flag.String("matrix", "", "ad-hoc matrix spec: 'proto=skeap,seap;n=16,64;dist=zipf;zipfs=1.6' (overrides -exp)")
	quick := flag.Bool("quick", false, "CI-sized matrix")
	strict := flag.Bool("strict", false, "exit 1 on any DIVERGED cell or conformance failure")
	jsonOut := flag.String("json", "", "write the dpq-sweep/2 result matrix to FILE")
	seed := flag.Uint64("seed", 1, "deterministic workload seed")
	calibrate := flag.Bool("calibrate", false, "refit the twin constants from this run and print them")
	list := flag.Bool("list", false, "list the named experiments and exit")
	flag.Parse()

	opt := sweep.MatrixOptions{Quick: *quick, Seed: *seed}
	all := sweep.DefaultMatrix(opt)

	if *list {
		tw := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
		for _, e := range all {
			fmt.Fprintf(tw, "%s\t%d cells\t%s\n", e.Name, len(e.Cells), e.Desc)
		}
		tw.Flush()
		return
	}

	var exps []sweep.Experiment
	if *matrix != "" {
		e, err := sweep.ParseMatrix(*matrix, opt)
		if err != nil {
			fail("%v", err)
		}
		exps = []sweep.Experiment{e}
	} else if *exp == "all" {
		exps = all
	} else {
		byName := map[string]sweep.Experiment{}
		for _, e := range all {
			byName[e.Name] = e
		}
		for _, name := range strings.Split(*exp, ",") {
			e, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fail("unknown experiment %q (use -list)", name)
			}
			exps = append(exps, e)
		}
	}

	f, err := sweep.Run(exps, nil, opt, os.Stderr)
	if err != nil {
		fail("%v", err)
	}

	if *calibrate {
		var results []sweep.Result
		for _, er := range f.Experiments {
			results = append(results, er.Cells...)
		}
		fitted := sweep.Calibrate(results, sweep.DefaultTwin(), 2)
		for proto, co := range fitted.Coeffs {
			if proto == sweep.KeyRelaxSampleK {
				fmt.Printf("calibrated %-8s mean rank error ≤ %.1f·(n/k)%+.1f\n", proto, co.RankA, co.RankB)
				continue
			}
			fmt.Printf("calibrated %-8s rounds ≤ %.1f·L%+.1f  congestion ≤ %.1f·shape%+.1f  bits ≤ %.1f·shape%+.1f\n",
				proto, co.RoundsA, co.RoundsB, co.CongA, co.CongB, co.BitsA, co.BitsB)
		}
	}

	tw := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "experiment\tcell\trounds/batch\tpredicted\tcongestion\tpredicted\tmaxBits\tpredicted\toracle\tverdict")
	for _, er := range f.Experiments {
		for _, r := range er.Cells {
			oracle := "ok"
			if !r.Conform.OK {
				oracle = "FAIL"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.1f\t%.1f\t%d\t%.1f\t%d\t%.1f\t%s\t%s\n",
				er.Name, r.Cell.Label(),
				r.Measured.RoundsPerBatch, r.Predicted.RoundsPerBatch,
				r.Measured.Congestion, r.Predicted.Congestion,
				r.Measured.MaxMessageBits, r.Predicted.MaxMessageBits,
				oracle, r.Verdict)
		}
	}
	tw.Flush()

	// Relaxed cells are judged on rank error, not the cost envelopes —
	// print their frontier in its own table.
	var haveRelax bool
	for _, er := range f.Experiments {
		for _, r := range er.Cells {
			if r.Measured.RankMax > 0 || r.Measured.RankMean > 0 {
				haveRelax = true
			}
		}
	}
	if haveRelax {
		rt := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
		fmt.Fprintln(rt, "experiment\trelaxed cell\trank mean\tpredicted\trank max\trank p99\temptyMisses\tverdict")
		for _, er := range f.Experiments {
			for _, r := range er.Cells {
				if r.Cell.Relax == "" || r.Cell.Relax == "strict" {
					continue
				}
				pred := "—"
				if r.Predicted.RankMean > 0 {
					pred = fmt.Sprintf("%.1f", r.Predicted.RankMean)
				}
				fmt.Fprintf(rt, "%s\t%s\t%.2f\t%s\t%d\t%d\t%d\t%s\n",
					er.Name, r.Cell.Label(), r.Measured.RankMean, pred,
					r.Measured.RankMax, r.Measured.RankP99, r.Measured.EmptyMisses, r.Verdict)
			}
		}
		rt.Flush()
	}

	fmt.Printf("sweep: %d cells, %d diverged, %d conformance failures\n",
		f.Cells, f.Diverged, f.ConformFailures)

	if *jsonOut != "" {
		out, err := os.Create(*jsonOut)
		if err != nil {
			fail("%v", err)
		}
		if err := f.Encode(out); err != nil {
			fail("%v", err)
		}
		out.Close()
	}
	if *strict && !f.Clean() {
		fail("strict mode: matrix not clean")
	}
}
