package kselect

import (
	"regexp"
	"strings"
	"testing"

	"dpq/internal/aggtree"
	"dpq/internal/hashutil"
	"dpq/internal/ldb"
	"dpq/internal/prio"
	"dpq/internal/sim"
)

// waveLetters names the tree instances the anchor starts, one letter per
// tag; any other tag reads '?'.
var waveLetters = map[aggtree.Tag]byte{
	tagWindow: 'W', tagPrune: 'P', tagSample: 'S', tagBoundary: 'B', tagRank: 'R',
}

// anchorWaves runs one selection of rank k among m uniform elements on n
// processes and returns the instances the anchor started, in order, as
// letters (one per instance, whatever its fan-out), and the result. shrink,
// when non-zero, replaces δ right after the start, forcing failed rank
// checks.
func anchorWaves(t *testing.T, n, m int, k int64, seed uint64, shrink float64) (string, Result, []prio.Element) {
	t.Helper()
	ov := ldb.New(n, hashutil.New(seed))
	sel := New(ov, hashutil.New(seed+1))
	elems := sel.LoadUniform(m, uint64(4*m), seed+2)
	eng := sel.NewSyncEngine(seed + 3)
	var waves strings.Builder
	seen := map[uint64]bool{}
	eng.SetObserver(func(d sim.Delivery) {
		st, ok := d.Msg.(*aggtree.StartMsg)
		if !ok || d.From != ov.Anchor || seen[st.Seq] {
			return
		}
		seen[st.Seq] = true
		c, ok := waveLetters[st.Tag]
		if !ok {
			c = '?'
		}
		waves.WriteByte(c)
	})
	sel.Start(eng.Context(sel.Anchor()), k)
	if shrink != 0 {
		sel.delta, sel.window = shrink, shrink
	}
	if !eng.RunUntil(sel.Done, 500000) {
		t.Fatalf("n=%d m=%d seed %d: selection did not finish", n, m, seed)
	}
	return waves.String(), sel.Result(), elems
}

// TestSelectionWaves: a phase-2 iteration is one sample (whose done
// convergecast brings the window's boundaries) and one rank check; the
// prune rides the next sample's start and the answer the last done
// convergecast. Phase 1 (window, prune) runs only when m > n^{3/2}. The
// boundary instance is only the fallback after a failed rank check, and a
// forced failure takes it and still selects rank k.
func TestSelectionWaves(t *testing.T) {
	const n = 64
	phase1 := regexp.MustCompile(`^(WP)*`)
	// A sample is followed by its rank check, by a rank check and the
	// boundary fallback after each failed one, or — an empty sample or a
	// window spanning it — directly by the next sample; phase 3's exact
	// sample ends the selection.
	iteration := regexp.MustCompile(`^(S(R(BR)*)?)*S$`)
	for _, m := range []int{4 * n, 16 * n, n * n} {
		for _, seed := range []uint64{1, 2, 3} {
			waves, res, _ := anchorWaves(t, n, m, int64(m/2), seed, 0)
			t.Logf("m=%d seed %d: %d phase-2 iterations, %d retries: %s", m, seed, res.Phase2Iters, res.Retries, waves)
			p1 := phase1.FindString(waves)
			if needed := float64(m)*float64(m) > n*n*n; needed != (p1 != "") {
				t.Errorf("m=%d seed %d: phase 1 ran %d iterations, want them only when m > n^{3/2} (anchor started %s)", m, seed, len(p1)/2, waves)
			}
			rest := waves[len(p1):]
			if !iteration.MatchString(rest) {
				t.Errorf("m=%d seed %d: anchor started %s, want (WP)* then (S(R(BR)*)?)*S", m, seed, waves)
				continue
			}
			if res.Retries == 0 {
				if want := strings.Repeat("SR", res.Phase2Iters) + "S"; rest != want {
					t.Errorf("m=%d seed %d: without retries the anchor started %s after phase 1, want %s", m, seed, rest, want)
				}
			}
		}
	}

	// A window of δ = 0.05 is one or two samples wide: its rank check
	// fails, and the retries must fetch the widened window's boundaries.
	fallbacks := 0
	for _, seed := range []uint64{1, 2, 3} {
		m := 16 * n
		k := int64(m / 3)
		waves, res, elems := anchorWaves(t, n, m, k, seed, 0.05)
		t.Logf("forced δ seed %d: %d retries: %s", seed, res.Retries, waves)
		fallbacks += strings.Count(waves, "RB")
		if strings.Count(waves, "B") != strings.Count(waves, "RB") {
			t.Errorf("seed %d: a boundary instance not right after a rank check: %s", seed, waves)
		}
		if want := expected(elems, k); res.Elem != want {
			t.Errorf("seed %d: forced failures selected %v, want %v", seed, res.Elem, want)
		}
	}
	if fallbacks == 0 {
		t.Error("δ = 0.05 failed no rank check: the boundary fallback went untested")
	}
}

// TestAbandonedSamplesEnd: a sample the anchor abandons, an empty draw or
// one the δ window spans, ends with a scatter that every node ignores. A
// node holds a sample instance's tree state from its start to its scatter,
// or, when its subtree drew nothing, until it sends its up; so every node
// that received a sample's start must receive its down or send an empty
// draw up. A Seap heap reuses its selector every cycle, where kept states
// would pile up. n = 8 with m = 128 abandons samples over these seeds.
func TestAbandonedSamplesEnd(t *testing.T) {
	const n, m, k = 8, 128, 64
	abandoned := 0
	for seed := uint64(1); seed <= 400; seed++ {
		ov := ldb.New(n, hashutil.New(seed))
		sel := New(ov, hashutil.New(seed+1))
		elems := sel.LoadUniform(m, 4*m, seed+2)
		eng := sel.NewSyncEngine(seed + 3)
		open := map[uint64]int{}  // sample instance → starts minus downs delivered
		gone := map[uint64]bool{} // abandoned sample instances
		eng.SetObserver(func(d sim.Delivery) {
			switch msg := d.Msg.(type) {
			case *aggtree.StartMsg:
				if msg.Tag == tagSample {
					open[msg.Seq]++
				}
			case *aggtree.UpMsg:
				if msg.Tag == tagSample && msg.V.(aggtree.Int2Val).A == 0 {
					open[msg.Seq]--
				}
			case *aggtree.DownMsg:
				if msg.Tag == tagSample {
					open[msg.Seq]--
					if msg.V.(*posShare).NPrime == 0 {
						gone[msg.Seq] = true
					}
				}
			}
		})
		sel.Start(eng.Context(sel.Anchor()), k)
		if !eng.RunUntil(func() bool { return sel.Done() && !eng.Pending() }, 500000) {
			t.Fatalf("seed %d: selection did not finish", seed)
		}
		if want := expected(elems, k); sel.Result().Elem != want {
			t.Fatalf("seed %d: selected %v, want %v", seed, sel.Result().Elem, want)
		}
		abandoned += len(gone)
		for seq, c := range open {
			if c != 0 {
				t.Errorf("seed %d: sample instance %d: %d nodes began it and neither got its scatter nor sent an empty draw up", seed, seq, c)
			}
		}
	}
	t.Logf("%d samples abandoned", abandoned)
	if abandoned == 0 {
		t.Error("no sample was abandoned: the test covers nothing")
	}
}
