package dpq

import (
	"strings"
	"testing"

	"dpq/internal/relax"
)

// TestRelaxedPQEndToEnd: a relaxed PQ must drive through the facade like
// a strict one — Drain, Results, Verify (relaxed validity), RankError —
// for both protocols, both modes, and every engine kind.
func TestRelaxedPQEndToEnd(t *testing.T) {
	for _, proto := range []Protocol{Skeap, Seap} {
		for _, rx := range []relax.Options{
			{Mode: relax.SampleK, K: 2},
			{Mode: relax.BatchLocal, Batch: 4},
		} {
			for _, kind := range []EngineKind{EngineSync, EngineAsync} {
				pq, err := New(proto, Options{Nodes: 4, Seed: 5, Engine: kind, Relaxation: rx})
				if err != nil {
					t.Fatalf("%v/%v/%v: %v", proto, rx, kind, err)
				}
				if !pq.Relaxed() {
					t.Fatalf("%v/%v/%v: PQ not relaxed", proto, rx, kind)
				}
				maxP := uint64(4)
				if proto == Seap {
					maxP = 1000
				}
				for host := 0; host < 4; host++ {
					pq.At(host).Insert(uint64(host)%maxP+1, "a").Insert((uint64(host)*3)%maxP+1, "b")
				}
				for host := 0; host < 4; host++ {
					pq.At(host).DeleteMin().DeleteMin()
				}
				ds, err := pq.Drain()
				if err != nil {
					t.Fatalf("%v/%v/%v: drain: %v", proto, rx, kind, err)
				}
				found := 0
				for _, d := range ds {
					if d.Found {
						found++
						if d.Priority < 1 || d.Priority > maxP {
							t.Fatalf("%v/%v/%v: delivered priority %d out of [1,%d]", proto, rx, kind, d.Priority, maxP)
						}
					}
				}
				if found != 8 {
					t.Fatalf("%v/%v/%v: %d/8 deletes delivered", proto, rx, kind, found)
				}
				if err := pq.Verify(); err != nil {
					t.Fatalf("%v/%v/%v: verify: %v", proto, rx, kind, err)
				}
				st := pq.RankError()
				if st.Deletes != 8 {
					t.Fatalf("%v/%v/%v: rank stats %+v", proto, rx, kind, st)
				}
			}
		}
	}
}

// TestStrictPQReportsZeroRankError: the observer doubles as a strictness
// proof for unrelaxed runs.
func TestStrictPQReportsZeroRankError(t *testing.T) {
	pq, err := New(Seap, Options{Nodes: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		pq.At(i%4).Insert(uint64(i*31%97+1), "")
	}
	for i := 0; i < 8; i++ {
		pq.At(i % 4).DeleteMin()
	}
	if _, err := pq.Drain(); err != nil {
		t.Fatal(err)
	}
	st := pq.RankError()
	if st.Max != 0 || st.Mean != 0 || st.Deletes != 8 {
		t.Fatalf("strict run must have zero rank error, got %+v", st)
	}
	if pq.Relaxed() {
		t.Fatal("strict PQ must not report Relaxed")
	}
}

// TestRelaxationOptionValidation: invalid combinations must be rejected
// at New, with messages that name the offending knob.
func TestRelaxationOptionValidation(t *testing.T) {
	cases := []struct {
		proto Protocol
		opts  Options
		want  string
	}{
		{Seap, Options{Nodes: 4, Relaxation: relax.Options{K: 2}}, "relaxation mode"},
		{Seap, Options{Nodes: 4, Relaxation: relax.Options{Mode: relax.SampleK, Batch: 8}}, "BatchLocal-only"},
		{Skeap, Options{Nodes: 4, MaxHeap: true, Relaxation: relax.Options{Mode: relax.SampleK}}, "MaxHeap"},
		{Seap, Options{Nodes: 4, SeqConsistent: true, Relaxation: relax.Options{Mode: relax.BatchLocal}}, "SeqConsistent"},
	}
	for _, c := range cases {
		_, err := New(c.proto, c.opts)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%+v: got error %v, want mention of %q", c.opts.Relaxation, err, c.want)
		}
	}
}
