package integration

import (
	"testing"

	"dpq/internal/hashutil"
	"dpq/internal/kselect"
	"dpq/internal/ldb"
	"dpq/internal/mathx"
	"dpq/internal/prio"
	"dpq/internal/relax"
	"dpq/internal/sim"
)

// Budgets: the rounds, messages and congestion of one KSelect and of one
// Seap and one Skeap batch, as a table of n → bound at fixed seeds, so a constant
// that regresses fails on any hardware (the pattern of ldb's
// TestRouteHopBudget). Each bound is at most 1.1× the largest value the
// seeds read when it was set. The runs are the ones `dpqsim kselect -n N
// -m M -seed S` and `dpqsim phases -proto seap|skeap -n N -ops 1 -seed S`
// make.

var budgetSeeds = []uint64{1, 2, 3}

// budget bounds one protocol run at one n.
type budget struct {
	n                  int
	rounds, msgs, cong int64
}

// checkBudget runs the seeds at c.n and fails when the largest reading of a
// metric exceeds its bound.
func checkBudget(t *testing.T, name string, c budget, run func(n int, seed uint64) *sim.Metrics) {
	t.Helper()
	var rounds, msgs, cong int64
	for _, seed := range budgetSeeds {
		m := run(c.n, seed)
		rounds, msgs, cong = max(rounds, int64(m.Rounds)), max(msgs, m.Messages), max(cong, int64(m.Congestion))
	}
	t.Logf("%s n=%d: max over seeds %d rounds, %d messages, congestion %d", name, c.n, rounds, msgs, cong)
	if rounds > c.rounds || msgs > c.msgs || cong > c.cong {
		t.Errorf("%s n=%d: %d rounds, %d messages, congestion %d exceed the budget of %d, %d, %d",
			name, c.n, rounds, msgs, cong, c.rounds, c.msgs, c.cong)
	}
}

// TestKSelectBudget: one selection of rank m/2 among m = 16n uniform
// elements (4n at n = 2 048, as the sim-batch benchmark runs it).
func TestKSelectBudget(t *testing.T) {
	for _, c := range []budget{
		{8, 503, 2849, 22},
		{64, 1373, 21000, 24},
		{512, 2140, 104400, 18},
		{2048, 2009, 340100, 29},
	} {
		checkBudget(t, "kselect", c, func(n int, seed uint64) *sim.Metrics {
			m := 16 * n
			if n == 2048 {
				m = 4 * n
			}
			ov := ldb.New(n, hashutil.New(seed))
			sel := kselect.New(ov, hashutil.New(seed+1))
			sel.LoadUniform(m, uint64(m)*4, seed+2)
			eng := sel.NewSyncEngine(seed + 3)
			sel.Start(eng.Context(sel.Anchor()), int64(m/2))
			if !eng.RunUntil(sel.Done, 50000*(mathx.Log2Ceil(n)+3)) {
				t.Fatalf("kselect n=%d seed %d: selection did not finish", n, seed)
			}
			return eng.Metrics()
		})
	}
}

// TestKSelectSmallTreeBudget pins KSelect at n = 8 over 20 seeds, where a
// sample of ≈ 5.7 candidates and δ clamped to 1 make windows fail or span
// the sample: the mean rounds and the total retries (failed rank checks,
// empty samples, full-window resamples) of `dpqsim kselect -n 8 -m 128`,
// seeds 1–20, at most 1.1× their readings when the bound was set (446.85
// and 23; 450.95 and 23 before the instances skipped the subtrees without
// candidates, 455.35 and 23 before a full-window sample was abandoned
// unsorted, 679.25 and 26 before a phase-2 iteration took three tree
// instances).
func TestKSelectSmallTreeBudget(t *testing.T) {
	const n, m, seeds = 8, 128, 20
	var rounds, retries int
	for seed := uint64(1); seed <= seeds; seed++ {
		ov := ldb.New(n, hashutil.New(seed))
		sel := kselect.New(ov, hashutil.New(seed+1))
		sel.LoadUniform(m, m*4, seed+2)
		eng := sel.NewSyncEngine(seed + 3)
		sel.Start(eng.Context(sel.Anchor()), m/2)
		if !eng.RunUntil(sel.Done, 50000*(mathx.Log2Ceil(n)+3)) {
			t.Fatalf("kselect n=%d seed %d: selection did not finish", n, seed)
		}
		rounds += eng.Metrics().Rounds
		retries += sel.Result().Retries
	}
	mean := float64(rounds) / seeds
	t.Logf("kselect n=%d m=%d, seeds 1–%d: %.2f mean rounds, %d retries", n, m, seeds, mean, retries)
	if mean > 491 || retries > 25 {
		t.Errorf("kselect n=%d: %.2f mean rounds and %d retries exceed the budget of 491 and 25", n, mean, retries)
	}
}

// TestSeapBatchBudget: one Seap batch with one operation per host.
func TestSeapBatchBudget(t *testing.T) {
	for _, c := range []budget{
		{8, 156, 421, 7},
		{64, 541, 7964, 13},
		{512, 1329, 68000, 16},
		{2048, 1741, 295500, 19},
	} {
		checkBudget(t, "seap", c, oneBatch(t, "seap"))
	}
}

// TestSkeapBatchBudget: one Skeap batch with one operation per host, up to
// the n = 4 096 the sim-batch benchmark runs.
func TestSkeapBatchBudget(t *testing.T) {
	for _, c := range []budget{
		{8, 34, 88, 3},
		{64, 89, 965, 5},
		{512, 167, 9394, 7},
		{4096, 264, 89400, 12},
	} {
		checkBudget(t, "skeap", c, oneBatch(t, "skeap"))
	}
}

// oneBatch runs one batch of proto in which every host buffers one
// operation, an insert with probability 0.6, else a DeleteMin.
func oneBatch(t *testing.T, proto string) func(n int, seed uint64) *sim.Metrics {
	return func(n int, seed uint64) *sim.Metrics {
		be, bound, err := relax.NewStrict(proto, n, 4, 1<<20, seed)
		if err != nil {
			t.Fatal(err)
		}
		be.SetAutoRepeat(false)
		rnd := hashutil.NewRand(seed + 1)
		id := prio.ElemID(1)
		for host := 0; host < n; host++ {
			if rnd.Bool(0.6) {
				be.InjectInsert(host, id, rnd.Uint64()%bound+1, "")
				id++
			} else {
				be.InjectDelete(host)
			}
		}
		eng := sim.Build(be.Spec(sim.KindSync)).(*sim.SyncEngine)
		be.StartBatch(eng.Context(be.Overlay().Anchor))
		if !eng.RunQuiescent(be.Done, 100000*(mathx.Log2Ceil(n)+3)) {
			t.Fatalf("%s n=%d seed %d: batch did not complete", proto, n, seed)
		}
		return eng.Metrics()
	}
}
