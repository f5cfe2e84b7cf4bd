package integration

import (
	"fmt"
	"testing"

	"dpq/internal/hashutil"
	"dpq/internal/prio"
	"dpq/internal/seap"
	"dpq/internal/semantics"
	"dpq/internal/sim"
	"dpq/internal/skeap"
)

// The soak matrix: both protocols on the asynchronous engine, behind
// reliable transports, across many seeds and escalating fault profiles.
// Every run must complete, conserve data and pass the full semantics
// battery — this is the PR's standing guarantee that fault injection
// never costs correctness, only retransmissions.
var soakProfiles = []string{"lossless", "drop5", "drop20dup"}

const soakSeeds = 20

func soakSeedCount(t *testing.T) uint64 {
	if testing.Short() {
		return 4
	}
	return soakSeeds
}

// faultSoakTarget abstracts the two protocols for the soak driver.
type faultSoakTarget interface {
	InjectDelete(host int) *semantics.Op
	Done() bool
	Trace() *semantics.Trace
	StoreSizes() []int
}

// runFaultSoak drives one seeded faulty run to a conserved drained state
// and returns the engine for fault/metric inspection.
func runFaultSoak(t *testing.T, h faultSoakTarget, eng *sim.AsyncEngine, budget int) {
	t.Helper()
	stored := func() int {
		total := 0
		for _, s := range h.StoreSizes() {
			total += s
		}
		return total
	}
	expected := func() int {
		ins, dels := 0, 0
		for _, op := range h.Trace().Ops() {
			if !op.Done {
				continue
			}
			if op.Kind == semantics.Insert {
				ins++
			} else if !op.Result.Nil() {
				dels++
			}
		}
		return ins - dels
	}
	// Ops complete before their final DHT Puts land, so drain to the
	// conserved state, not just Done (see cmd/churnsim for the argument
	// why expected() is final once Done() holds).
	drained := func() bool { return h.Done() && stored() == expected() }
	if !eng.RunUntil(drained, budget) {
		t.Fatalf("soak run incomplete: %d/%d ops, stored %d, expected %d (faults %v)",
			h.Trace().DoneCount(), h.Trace().Len(), stored(), expected(), eng.Faults())
	}
	if stored() != expected() {
		t.Fatalf("data not conserved: stored %d, expected %d", stored(), expected())
	}
}

// skeapSoakCell builds one cell of the matrix: a 4-host Skeap with its
// seeded batch injected, on a faulty asynchronous engine behind reliable
// transports.
func skeapSoakCell(t *testing.T, profile string, seed uint64) (*skeap.Heap, *sim.AsyncEngine) {
	t.Helper()
	prof, err := sim.ParseFaultProfile(profile, 10_000+seed)
	if err != nil {
		t.Fatal(err)
	}
	h := skeap.New(skeap.Config{N: 4, P: 3, Seed: 20_000 + seed})
	rnd := hashutil.NewRand(30_000 + seed)
	id := prio.ElemID(1)
	for i := 0; i < 16; i++ {
		if rnd.Bool(0.6) {
			h.InjectInsert(rnd.Intn(4), id, rnd.Intn(3), "")
			id++
		} else {
			h.InjectDelete(rnd.Intn(4))
		}
	}
	eng, _ := h.NewFaultyAsyncEngine(3.0, sim.NewFaultPlan(prof))
	return h, eng
}

// seapSoakCell is the 3-host Seap counterpart.
func seapSoakCell(t *testing.T, profile string, seed uint64) (*seap.Heap, *sim.AsyncEngine) {
	t.Helper()
	prof, err := sim.ParseFaultProfile(profile, 40_000+seed)
	if err != nil {
		t.Fatal(err)
	}
	h := seap.New(seap.Config{N: 3, PrioBound: 200, Seed: 50_000 + seed})
	rnd := hashutil.NewRand(60_000 + seed)
	id := prio.ElemID(1)
	for i := 0; i < 12; i++ {
		if rnd.Bool(0.6) {
			h.InjectInsert(rnd.Intn(3), id, rnd.Uint64n(200)+1, "")
			id++
		} else {
			h.InjectDelete(rnd.Intn(3))
		}
	}
	eng, _ := h.NewFaultyAsyncEngine(3.0, sim.NewFaultPlan(prof))
	return h, eng
}

func TestFaultSoakSkeap(t *testing.T) {
	seeds := soakSeedCount(t)
	for _, profile := range soakProfiles {
		for seed := uint64(0); seed < seeds; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", profile, seed), func(t *testing.T) {
				t.Parallel()
				h, eng := skeapSoakCell(t, profile, seed)
				runFaultSoak(t, h, eng, 10_000_000)
				if rep := semantics.CheckAll(h.Trace(), semantics.FIFO); !rep.Ok() {
					t.Fatalf("semantics violated (faults %v):\n%s", eng.Faults(), rep.Error())
				}
			})
		}
	}
}

func TestFaultSoakSeap(t *testing.T) {
	seeds := soakSeedCount(t)
	for _, profile := range soakProfiles {
		for seed := uint64(0); seed < seeds; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", profile, seed), func(t *testing.T) {
				t.Parallel()
				h, eng := seapSoakCell(t, profile, seed)
				runFaultSoak(t, h, eng, 15_000_000)
				if rep := semantics.CheckSerializable(h.Trace(), semantics.ByID); !rep.Ok() {
					t.Fatalf("semantics violated (faults %v):\n%s", eng.Faults(), rep.Error())
				}
			})
		}
	}
}
