package main

import (
	"runtime"
	"testing"

	"dpq/internal/obs"
	"dpq/internal/relax"
	"dpq/internal/sim"
	"dpq/internal/skeap"
)

// TestWorkersFlagConvention pins what -workers means on the way into
// sim.Spec: 0 is one worker per core, 1 is serial, n is n.
func TestWorkersFlagConvention(t *testing.T) {
	sess, err := (&obs.Flags{}).Start()
	if err != nil {
		t.Fatal(err)
	}
	be := relax.WrapSkeap(skeap.New(skeap.Config{N: 2, P: 2, Seed: 1}))
	for flagValue, want := range map[int]int{0: runtime.GOMAXPROCS(0), 1: 1, 3: 3} {
		if got := syncEngine(be.Spec(sim.KindSync), flagValue, sess).Workers(); got != want {
			t.Errorf("-workers %d: engine steps with %d workers, want %d", flagValue, got, want)
		}
	}
}
