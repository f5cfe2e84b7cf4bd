// Sweep soak: the skewed and phase-shifting workload profiles of
// internal/sweep run on the round engine, with the sequential oracle
// replayed on every run.
package integration

import (
	"fmt"
	"testing"

	"dpq/internal/sweep"
)

// soakProfiles are the workload shapes the sweep matrix adds on top of
// the steady/uniform soaks above.
func sweepSoakCells() []sweep.Cell {
	base := sweep.Cell{
		Proto: sweep.ProtoSkeap, N: 12, Rate: 2, InsertFrac: 0.65,
		Dist: "uniform", Pattern: "steady", BurstLen: 3, Rounds: 10,
	}
	var cells []sweep.Cell
	for _, p := range []struct {
		name           string
		dist, pattern  string
		zipfS, hotFrac float64
	}{
		{"zipf-heavy", "zipf", "steady", 1.6, 0},
		{"burstdrain", "zipf", "burstdrain", 1.2, 0},
		{"phaseshift", "uniform", "phaseshift", 0, 0},
		{"hotspot", "zipf", "hotspot", 1.2, 0.25},
	} {
		c := base
		c.Dist, c.Pattern, c.ZipfS, c.HotFrac = p.dist, p.pattern, p.zipfS, p.hotFrac
		cells = append(cells, c)
	}
	return cells
}

// TestSweepProfileSoak: each profile × protocol × seed must drain and pass
// the oracle.
func TestSweepProfileSoak(t *testing.T) {
	seeds := []uint64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, cell := range sweepSoakCells() {
		for _, proto := range []string{sweep.ProtoSkeap, sweep.ProtoSeap} {
			c := cell
			c.Proto = proto
			if proto == sweep.ProtoSeap {
				c.Bound = 4096
			}
			for _, seed := range seeds {
				c.Seed = seed
				t.Run(fmt.Sprintf("%s/%s/seed%d", proto, c.Pattern, seed), func(t *testing.T) {
					r, err := sweep.RunCell(c, sweep.DefaultTwin())
					if err != nil {
						t.Fatal(err)
					}
					if !r.Conform.OK {
						t.Fatalf("run violates semantics: %s", r.Conform.Detail)
					}
					if r.Measured.Ops == 0 || r.Measured.Messages == 0 {
						t.Fatalf("run did no work: %+v", r.Measured)
					}
				})
			}
		}
	}
}
