package relax

import (
	"reflect"
	"testing"

	"dpq/internal/hashutil"
	"dpq/internal/mathx"
	"dpq/internal/obs"
	"dpq/internal/prio"
	"dpq/internal/semantics"
	"dpq/internal/sim"
)

func maxRounds(n int) int { return 500 * (mathx.Log2Ceil(n) + 3) }

func runSync(t *testing.T, h *Heap, eng *sim.SyncEngine) {
	t.Helper()
	if !eng.RunUntil(h.Done, maxRounds(h.cfg.N)) {
		t.Fatalf("relaxed heap stuck: %d/%d ops done after %d rounds",
			h.trace.DoneCount(), h.trace.Len(), eng.Metrics().Rounds)
	}
}

// injectMixed injects a seeded random mix of inserts and deletes at every
// host and returns the number of inserts.
func injectMixed(h *Heap, n, opsPerHost int, seed uint64) int {
	rnd := hashutil.NewRand(seed)
	id := prio.ElemID(1)
	inserts := 0
	for host := 0; host < n; host++ {
		for i := 0; i < opsPerHost; i++ {
			if rnd.Bool(0.6) {
				h.InjectInsert(host, id, rnd.Uint64n(1000)+1, "")
				id++
				inserts++
			} else {
				h.InjectDelete(host)
			}
		}
	}
	return inserts
}

func modes() []Config {
	return []Config{
		{Mode: SampleK, K: 2},
		{Mode: SampleK, K: 4},
		{Mode: BatchLocal, Batch: 4},
	}
}

// TestRelaxedValidity: both modes must keep the relaxed-matching
// guarantee — every delivered element was inserted earlier in value
// order, unchanged, exactly once — on a mixed workload.
func TestRelaxedValidity(t *testing.T) {
	for _, cfg := range modes() {
		cfg.N, cfg.Seed = 8, 11
		h := New(cfg)
		inserts := injectMixed(h, cfg.N, 6, 99)
		runSync(t, h, h.NewSyncEngine())
		if rep := semantics.CheckRelaxedValidity(h.Trace()); !rep.Ok() {
			t.Fatalf("%v: relaxed validity violated:\n%s", cfg.Mode, rep.Error())
		}
		st := obs.TraceRankError(h.Trace())
		if st.Max >= inserts {
			t.Fatalf("%v: rank error %d impossible with %d inserts", cfg.Mode, st.Max, inserts)
		}
	}
}

// TestDrainReturnsEverything: after all inserts settle, enough deletes
// must return every element exactly once and then ⊥.
func TestDrainReturnsEverything(t *testing.T) {
	for _, cfg := range modes() {
		cfg.N, cfg.Seed = 6, 3
		h := New(cfg)
		eng := h.NewSyncEngine()
		const m = 30
		for i := 0; i < m; i++ {
			h.InjectInsert(i%cfg.N, prio.ElemID(i+1), uint64(1+(i*7)%50), "")
		}
		runSync(t, h, eng)
		for i := 0; i < m+cfg.N; i++ {
			h.InjectDelete(i % cfg.N)
		}
		runSync(t, h, eng)
		got := map[prio.ElemID]bool{}
		bottoms := 0
		for _, op := range h.Trace().Ops() {
			if op.Kind != semantics.DeleteMin {
				continue
			}
			if op.Result.Nil() {
				bottoms++
				continue
			}
			if got[op.Result.ID] {
				t.Fatalf("%v: element %d delivered twice", cfg.Mode, op.Result.ID)
			}
			got[op.Result.ID] = true
		}
		if len(got) != m || bottoms != cfg.N {
			t.Fatalf("%v: drained %d elements (+%d ⊥), want %d (+%d ⊥)",
				cfg.Mode, len(got), bottoms, m, cfg.N)
		}
		if rep := semantics.CheckRelaxedValidity(h.Trace()); !rep.Ok() {
			t.Fatalf("%v: relaxed validity violated:\n%s", cfg.Mode, rep.Error())
		}
	}
}

// TestEmptyHeapDeleteReturnsBottom: deletes against a never-filled
// structure must all come back ⊥, in both modes (this exercises the
// SampleK full-sweep escalation and the BatchLocal survey).
func TestEmptyHeapDeleteReturnsBottom(t *testing.T) {
	for _, cfg := range modes() {
		cfg.N, cfg.Seed = 5, 7
		h := New(cfg)
		for host := 0; host < cfg.N; host++ {
			h.InjectDelete(host)
		}
		runSync(t, h, h.NewSyncEngine())
		for _, op := range h.Trace().Ops() {
			if !op.Result.Nil() {
				t.Fatalf("%v: delete on empty heap returned %v", cfg.Mode, op.Result)
			}
		}
		st := obs.TraceRankError(h.Trace())
		if st.Empty != cfg.N || st.EmptyMisses != 0 {
			t.Fatalf("%v: want %d true-empty ⊥, got %+v", cfg.Mode, cfg.N, st)
		}
	}
}

// TestSingleHostServesLocally: with n=1 both modes degenerate to the
// sequential heap — zero rank error and no messages needed beyond none.
func TestSingleHostServesLocally(t *testing.T) {
	for _, cfg := range modes() {
		cfg.N, cfg.Seed = 1, 5
		h := New(cfg)
		eng := h.NewSyncEngine()
		h.InjectInsert(0, 1, 10, "a")
		h.InjectInsert(0, 2, 5, "b")
		runSync(t, h, eng)
		h.InjectDelete(0)
		h.InjectDelete(0)
		h.InjectDelete(0)
		runSync(t, h, eng)
		st := obs.TraceRankError(h.Trace())
		if st.Max != 0 || st.Deletes != 2 || st.Empty != 1 {
			t.Fatalf("%v: single-host run not exact: %+v", cfg.Mode, st)
		}
	}
}

// TestInsertSerializesBeforeDelivery: the Lamport stamping must place
// every element's Insert before the DeleteMin returning it in value
// order — that is what makes the rank replay well defined.
func TestInsertSerializesBeforeDelivery(t *testing.T) {
	for _, cfg := range modes() {
		cfg.N, cfg.Seed = 8, 13
		h := New(cfg)
		injectMixed(h, cfg.N, 8, 17)
		runSync(t, h, h.NewSyncEngine())
		insVal := map[prio.ElemID]int64{}
		for _, op := range h.Trace().Ops() {
			if op.Kind == semantics.Insert {
				insVal[op.Elem.ID] = op.Value
			}
		}
		for _, op := range h.Trace().Ops() {
			if op.Kind != semantics.DeleteMin || op.Result.Nil() {
				continue
			}
			iv, ok := insVal[op.Result.ID]
			if !ok || iv >= op.Value {
				t.Fatalf("%v: element %d delivered (value %d) not after its insert (value %d)",
					cfg.Mode, op.Result.ID, op.Value, iv)
			}
		}
	}
}

// TestSameSeedDeterminism: identical configuration and injection must
// reproduce identical rank stats and engine metrics run over run.
func TestSameSeedDeterminism(t *testing.T) {
	for _, cfg := range modes() {
		cfg.N, cfg.Seed = 8, 21
		run := func() (obs.RankStats, sim.Metrics) {
			h := New(cfg)
			injectMixed(h, cfg.N, 6, 31)
			eng := h.NewSyncEngine()
			runSync(t, h, eng)
			return obs.TraceRankError(h.Trace()), *eng.Metrics()
		}
		st1, m1 := run()
		st2, m2 := run()
		if st1 != st2 {
			t.Fatalf("%v: rank stats differ across identical runs: %+v vs %+v", cfg.Mode, st1, st2)
		}
		if !reflect.DeepEqual(m1, m2) {
			t.Fatalf("%v: metrics differ across identical runs:\n%+v\n%+v", cfg.Mode, m1, m2)
		}
	}
}

// TestAsyncEngineValidity: the Lamport stamping must keep relaxed
// validity (and the insert-before-delivery floor) under adversarial
// asynchronous delivery too.
func TestAsyncEngineValidity(t *testing.T) {
	for _, cfg := range modes() {
		cfg.N, cfg.Seed = 8, 29
		h := New(cfg)
		injectMixed(h, cfg.N, 6, 43)
		spec := h.Spec(sim.KindAsync)
		spec.MaxDelay = 3.0
		eng := sim.Build(spec)
		if !eng.RunUntil(h.Done, 200000) {
			t.Fatalf("%v: async run stuck", cfg.Mode)
		}
		if rep := semantics.CheckRelaxedValidity(h.Trace()); !rep.Ok() {
			t.Fatalf("%v: relaxed validity violated under async delivery:\n%s", cfg.Mode, rep.Error())
		}
	}
}

// TestSampleKRankErrorTracksK: for *sequential* deletes (one in flight,
// one issuing host — the regime the power-of-choice analysis describes)
// the mean rank error must not grow with k, and a full sweep (k = n) must
// be exact. Pipelined deletes are deliberately excluded: concurrent
// full-sweep requesters all pick the same victim host and drain it deep
// (the thundering-herd effect), so monotonicity in k only holds without
// contention.
func TestSampleKRankErrorTracksK(t *testing.T) {
	mean := func(k int) float64 {
		h := New(Config{N: 8, Seed: 2, Mode: SampleK, K: k, MaxInFlight: 1})
		eng := h.NewSyncEngine()
		const m = 400
		for i := 0; i < m; i++ {
			h.InjectInsert(i%8, prio.ElemID(i+1), uint64(1+(i*13)%997), "")
		}
		runSync(t, h, eng)
		for i := 0; i < m; i++ {
			h.InjectDelete(0)
		}
		runSync(t, h, eng)
		return obs.TraceRankError(h.Trace()).Mean
	}
	m2, m8 := mean(2), mean(8)
	if m8 > m2 {
		t.Fatalf("mean rank error grew with k: k=2 → %.2f, k=8 (full sweep) → %.2f", m2, m8)
	}
	if m8 != 0 {
		t.Fatalf("sequential full-sweep deletes must be exact, got mean rank error %.2f", m8)
	}
}

// TestOptionsValidate pins the Validate contract: cross-mode knobs are
// configuration errors, not silent no-ops.
func TestOptionsValidate(t *testing.T) {
	valid := []Options{
		{},
		{Mode: SampleK}, {Mode: SampleK, K: 4},
		{Mode: BatchLocal}, {Mode: BatchLocal, Batch: 16},
	}
	for _, o := range valid {
		if err := o.Validate(); err != nil {
			t.Errorf("%v: unexpected error %v", o, err)
		}
	}
	invalid := []Options{
		{K: 2},
		{Batch: 8},
		{Mode: SampleK, Batch: 8},
		{Mode: SampleK, K: -1},
		{Mode: BatchLocal, K: 2},
		{Mode: BatchLocal, Batch: -3},
		{Mode: Mode(99)},
	}
	for _, o := range invalid {
		if err := o.Validate(); err == nil {
			t.Errorf("%+v: expected a validation error", o)
		}
	}
}

// TestParseModeRoundTrip pins mode names used by flags and sweep cells.
func TestParseModeRoundTrip(t *testing.T) {
	for _, m := range []Mode{Strict, SampleK, BatchLocal} {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Fatalf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if m, err := ParseMode(""); err != nil || m != Strict {
		t.Fatalf("empty mode must parse as strict")
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Fatal("bogus mode must not parse")
	}
}

// TestNewStrict checks the protocol names NewStrict accepts, the bound
// each returns, and the error for any other name.
func TestNewStrict(t *testing.T) {
	for _, c := range []struct {
		proto string
		want  uint64
	}{{"skeap", 3}, {"seap", 500}} {
		be, bound, err := NewStrict(c.proto, 4, 3, 500, 1)
		if err != nil || be == nil || bound != c.want {
			t.Fatalf("NewStrict(%q) = %v, %d, %v; want a backend with bound %d", c.proto, be, bound, err, c.want)
		}
	}
	if _, _, err := NewStrict("kselect", 4, 3, 500, 1); err == nil {
		t.Fatal("NewStrict accepted an unknown protocol")
	}
}
