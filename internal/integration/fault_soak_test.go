package integration

import (
	"fmt"
	"testing"

	"dpq/internal/hashutil"
	"dpq/internal/prio"
	"dpq/internal/relax"
	"dpq/internal/seap"
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

// runFaultSoak drives one seeded faulty run to a conserved drained state:
// operations complete before their final DHT Puts land, so Done alone is
// not the end (see semantics.Trace.Drained for the argument).
func runFaultSoak(t *testing.T, be relax.Backend, eng *sim.AsyncEngine, budget int) {
	t.Helper()
	stored := func() int {
		total := 0
		for _, s := range be.(relax.Membership).StoreSizes() {
			total += s
		}
		return total
	}
	tr := be.Trace()
	if !eng.RunUntil(func() bool { return tr.Drained(stored) }, budget) {
		t.Fatalf("soak run incomplete: %d/%d ops, stored %d, expected %d (faults %v)",
			tr.DoneCount(), tr.Len(), stored(), tr.Stored(), eng.Faults())
	}
}

// soakCell builds one cell of the matrix — a 4-host Skeap or a 3-host Seap
// with its seeded batch injected — on a faulty asynchronous engine behind
// reliable transports.
func soakCell(t *testing.T, proto, profile string, seed uint64) (relax.Backend, *sim.AsyncEngine) {
	t.Helper()
	var (
		be          relax.Backend
		hosts, ops  int
		bound, base uint64
	)
	if proto == "skeap" {
		hosts, ops, bound, base = 4, 16, 3, 10_000
		be = relax.WrapSkeap(skeap.New(skeap.Config{N: hosts, P: int(bound), Seed: base + 10_000 + seed}))
	} else {
		hosts, ops, bound, base = 3, 12, 200, 40_000
		be = relax.WrapSeap(seap.New(seap.Config{N: hosts, PrioBound: bound, Seed: base + 10_000 + seed}))
	}
	prof, err := sim.ParseFaultProfile(profile, base+seed)
	if err != nil {
		t.Fatal(err)
	}
	rnd := hashutil.NewRand(base + 20_000 + seed)
	id := prio.ElemID(1)
	for i := 0; i < ops; i++ {
		if rnd.Bool(0.6) {
			be.InjectInsert(rnd.Intn(hosts), id, rnd.Uint64n(bound)+1, "")
			id++
		} else {
			be.InjectDelete(rnd.Intn(hosts))
		}
	}
	eng, _ := sim.BuildFaulty(be.Spec(sim.KindAsync), 3.0, sim.NewFaultPlan(prof))
	return be, eng
}

// TestFaultSoak: every cell must complete, conserve data and pass its
// protocol's full semantics battery.
func TestFaultSoak(t *testing.T) {
	seeds := soakSeedCount(t)
	for _, proto := range []string{"skeap", "seap"} {
		for _, profile := range soakProfiles {
			for seed := uint64(0); seed < seeds; seed++ {
				t.Run(fmt.Sprintf("%s/%s/seed%d", proto, profile, seed), func(t *testing.T) {
					t.Parallel()
					be, eng := soakCell(t, proto, profile, seed)
					runFaultSoak(t, be, eng, 15_000_000)
					if rep := be.Check(); !rep.Ok() {
						t.Fatalf("semantics violated (faults %v):\n%s", eng.Faults(), rep.Error())
					}
				})
			}
		}
	}
}

// TestDoneCountMatchesScanAfterResets: Trace.DoneCount is a counter kept by
// Complete, not a scan of the trace. Iteration resets re-buffer and
// re-execute operations mid-flight; whatever that does to an operation, it
// must be counted done exactly once.
func TestDoneCountMatchesScanAfterResets(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		be, eng := soakCell(t, "skeap", "drop5", seed)
		for i := 0; i < 3; i++ {
			eng.RunUntil(func() bool { return false }, 300)
			be.(interface{ InjectReset() }).InjectReset()
		}
		tr := be.Trace()
		if !eng.RunUntil(be.Done, 15_000_000) {
			t.Fatalf("seed %d: run incomplete after resets: %d/%d ops", seed, tr.DoneCount(), tr.Len())
		}
		scan := 0
		for _, op := range tr.Ops() {
			if op.Done {
				scan++
			}
		}
		if tr.DoneCount() != scan || scan != tr.Len() {
			t.Fatalf("seed %d: DoneCount %d, scan %d, Len %d", seed, tr.DoneCount(), scan, tr.Len())
		}
		if be.(interface{ Resets() int64 }).Resets() == 0 {
			t.Fatalf("seed %d: no reset was applied", seed)
		}
	}
}
