package harness

import (
	"fmt"

	"dpq/internal/sweep"
)

// The sweep experiments E26/E27: the workload-sweep matrix of
// internal/sweep rendered as EXPERIMENTS.md tables. Unlike E1–E24, every
// row carries the analytical twin's predicted envelope next to the
// measurement and a PASS/DIVERGED verdict — the tables are checked
// assertions, not just recordings.

// sweepOptions maps the harness sizes onto the sweep matrix scale.
func sweepOptions(sz Sizes) sweep.MatrixOptions {
	// Quick() runs 3 repeats, Full() 5 — reuse that as the scale switch
	// so benchall -quick gets the CI matrix.
	return sweep.MatrixOptions{Quick: sz.Repeats < 5, Seed: 1}
}

// runSweepExperiments executes the named sweep experiments and returns
// the result file.
func runSweepExperiments(sz Sizes, names ...string) (*sweep.File, error) {
	opt := sweepOptions(sz)
	byName := map[string]sweep.Experiment{}
	for _, e := range sweep.DefaultMatrix(opt) {
		byName[e.Name] = e
	}
	var exps []sweep.Experiment
	for _, n := range names {
		exps = append(exps, byName[n])
	}
	return sweep.Run(exps, nil, opt, nil)
}

// verdictCell renders a cell's verdict for the table, folding oracle
// failures in (a cell that diverged *and* broke the oracle shows both).
func verdictCell(r sweep.Result) string {
	v := r.Verdict
	if !r.Conform.OK {
		v += "+ORACLE-FAIL"
	}
	return v
}

// SweepEnvelopes: E26 — Zipf skew and hot-host contention against the
// twin's Thm 3.2/4.2/5.1 envelopes.
func SweepEnvelopes(sz Sizes) Table {
	t := Table{
		ID:     "E26",
		Title:  "Sweep: cost envelopes under Zipf skew and hot-host contention",
		Claim:  "rounds, congestion and message bits stay inside the analytical twin's fitted O(log n)/Õ(Λ) envelopes (Thm 3.2, 4.2, 5.1) for every skew and contention setting",
		Header: []string{"cell", "rounds/batch", "≤ pred", "congestion", "≤ pred", "max bits", "≤ pred", "verdict"},
	}
	f, err := runSweepExperiments(sz, "zipf", "contention")
	if err != nil {
		t.Notef("sweep failed: %v", err)
		return t
	}
	diverged := 0
	for _, er := range f.Experiments {
		for _, r := range er.Cells {
			t.AddRow(r.Cell.Label(),
				r.Measured.RoundsPerBatch, r.Predicted.RoundsPerBatch,
				r.Measured.Congestion, r.Predicted.Congestion,
				r.Measured.MaxMessageBits, r.Predicted.MaxMessageBits,
				verdictCell(r))
			if r.Verdict != sweep.VerdictPass {
				diverged++
			}
		}
	}
	t.Notef("twin constants are fitted (dpqsweep -calibrate, ~2x headroom); the shapes are the theorems'. %d/%d cells diverged.", diverged, f.Cells)
	t.Notef("Seap's max message stays Λ-independent under every skew (Lemma 5.5) while Skeap's grows with Λ — the E10 contrast, now checked per cell.")
	return t
}

// RelaxFrontier: E28 — the relaxed-DeleteMin throughput-vs-rank-error
// frontier. The "relax" sweep experiment runs each (n, workload) profile
// strict and under SampleK(k=2,4)/BatchLocal(batch=8); this table puts
// the measured ops/s next to the rank-error histogram, so the trade the
// relaxation buys is a number, not a slogan.
func RelaxFrontier(sz Sizes) Table {
	t := Table{
		ID:     "E28",
		Title:  "Relaxed DeleteMin: throughput vs rank-error frontier",
		Claim:  "SampleK and BatchLocal serve deletes without the strict protocols' coordination (higher ops/s than the strict baseline on the same workload) at a measured, bounded rank error; SampleK's mean stays inside the power-of-choice envelope RankA·(n/k)+RankB",
		Header: []string{"cell", "ops/s", "vs strict", "rank mean", "≤ pred", "rank max", "rank p99", "verdict"},
	}
	f, err := runSweepExperiments(sz, "relax")
	if err != nil {
		t.Notef("sweep failed: %v", err)
		return t
	}
	// Strict baselines, keyed by workload profile.
	type profile struct {
		n             int
		dist, pattern string
	}
	baseline := map[profile]float64{}
	for _, er := range f.Experiments {
		for _, r := range er.Cells {
			if r.Cell.Relax == "" || r.Cell.Relax == "strict" {
				key := profile{r.Cell.N, string(r.Cell.Dist), string(r.Cell.Pattern)}
				baseline[key] = float64(r.Measured.Ops) / (float64(r.Measured.WallNs) / 1e9)
			}
		}
	}
	diverged, slower := 0, 0
	for _, er := range f.Experiments {
		for _, r := range er.Cells {
			opsPerSec := float64(r.Measured.Ops) / (float64(r.Measured.WallNs) / 1e9)
			if r.Cell.Relax == "" || r.Cell.Relax == "strict" {
				t.AddRow(r.Cell.Label(), fmt.Sprintf("%.0f", opsPerSec), "baseline",
					r.Measured.RankMean, "—", r.Measured.RankMax, r.Measured.RankP99, verdictCell(r))
				continue
			}
			speedup := 0.0
			if base := baseline[profile{r.Cell.N, string(r.Cell.Dist), string(r.Cell.Pattern)}]; base > 0 {
				speedup = opsPerSec / base
			}
			if speedup < 1 {
				slower++
			}
			pred := "—"
			if r.Predicted.RankMean > 0 {
				pred = fmt.Sprintf("%.1f", r.Predicted.RankMean)
			}
			t.AddRow(r.Cell.Label(), fmt.Sprintf("%.0f", opsPerSec), fmt.Sprintf("%.1fx", speedup),
				fmt.Sprintf("%.2f", r.Measured.RankMean), pred,
				r.Measured.RankMax, r.Measured.RankP99, verdictCell(r))
			if r.Verdict != sweep.VerdictPass {
				diverged++
			}
		}
	}
	t.Notef("rank error of a delivery = how many smaller live elements the sequential oracle held when it was served (0 = exact); measured by replaying the trace in serialization order against internal/seqheap's order-statistic treap.")
	t.Notef("SampleK envelope: mean ≤ RankA·(n/k)+RankB with the committed twin constants; the intercept absorbs pipelining (up to MaxInFlight concurrent deletes per host race for the same minima). BatchLocal is measured, not bounded — its error scales with the prefetch batch, not n.")
	t.Notef("%d relaxed cells diverged from the rank envelope; %d were slower than their strict baseline.", diverged, slower)
	return t
}

// SweepConformance: E27 — burst/drain and phase-shifting load with the
// oracle replay.
func SweepConformance(sz Sizes) Table {
	t := Table{
		ID:     "E27",
		Title:  "Sweep: burst/drain and phase-shift conformance",
		Claim:  "sequential consistency (Skeap) and serializability (Seap) survive burst/drain cycles and phase-shifting load (Def. 1.1/1.2 via the seqheap oracle)",
		Header: []string{"cell", "ops", "rounds/batch", "≤ pred", "oracle", "verdict"},
	}
	f, err := runSweepExperiments(sz, "phase", "burst")
	if err != nil {
		t.Notef("sweep failed: %v", err)
		return t
	}
	oracleFails := 0
	for _, er := range f.Experiments {
		for _, r := range er.Cells {
			oracle := "ok"
			if !r.Conform.OK {
				oracle = fmt.Sprintf("FAIL (%d violations)", r.Conform.Violations)
				oracleFails++
			}
			t.AddRow(r.Cell.Label(), r.Measured.Ops,
				r.Measured.RoundsPerBatch, r.Predicted.RoundsPerBatch,
				oracle, r.Verdict)
		}
	}
	t.Notef("oracle = full semantics battery replayed against internal/seqheap per cell; %d/%d cells failed.", oracleFails, f.Cells)
	return t
}
