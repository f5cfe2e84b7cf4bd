package harness

import (
	"dpq/internal/hashutil"
	"dpq/internal/kselect"
	"dpq/internal/ldb"
	"dpq/internal/obs"
	"dpq/internal/prio"
	"dpq/internal/skeap"
)

// Per-phase cost breakdowns (E23, E24): the obs collector attributes every
// delivered message to the protocol phase the anchor was in, exposing where
// the rounds, messages and congestion of a run actually go.

func phaseTable(t *Table, phases []obs.PhaseStats) {
	var totalMsgs int64
	for _, p := range phases {
		totalMsgs += p.Messages
	}
	for _, p := range phases {
		share := 0.0
		if totalMsgs > 0 {
			share = 100 * float64(p.Messages) / float64(totalMsgs)
		}
		t.AddRow(p.Name, p.ActiveRounds, p.Messages, p.Bits, p.Congestion, share)
	}
}

// SkeapPhaseBreakdown: where a DeleteMin-heavy Skeap iteration spends its
// rounds and messages — gather (phase 1), scatter (phases 2–3), DHT
// (phase 4).
func SkeapPhaseBreakdown(sz Sizes) Table {
	t := Table{
		ID:     "E23",
		Title:  "Skeap: per-phase cost of one DeleteMin batch",
		Claim:  "phases 1–3 are one O(log n)-round gather–scatter; phase 4 adds the O(log n)-hop DHT accesses (§3.2, Cor. 3.6)",
		Header: []string{"phase", "active rounds", "messages", "bits", "congestion", "msg share (%)"},
	}
	n := sz.NSweep[len(sz.NSweep)-1]
	seed := uint64(n) * 13
	h := skeap.New(skeap.Config{N: n, P: 4, Seed: seed})
	h.SetAutoRepeat(false)
	eng := h.NewSyncEngine()
	anchor := eng.Context(h.Overlay().Anchor)

	// Fill the heap with an unobserved insert batch, so the measured
	// iteration is pure DeleteMin traffic.
	rnd := hashutil.NewRand(seed + 1)
	for host := 0; host < n; host++ {
		h.InjectInsert(host, prio.ElemID(host+1), rnd.Intn(4), "")
	}
	h.StartIteration(anchor)
	eng.RunUntil(h.Done, maxRounds(n))

	col := obs.NewCollector()
	eng.SetObserver(col.Observer())
	h.SetObs(col)
	for host := 0; host < n; host++ {
		h.InjectDelete(host)
	}
	h.StartIteration(anchor)
	eng.RunUntil(h.Done, maxRounds(n))

	phaseTable(&t, col.Phases())
	t.Notef("n=%d, one DeleteMin per process; the insert batch that filled the heap is not counted.", n)
	t.Notef("the timeline is global: it enters skeap:dht when the first node (the anchor) issues its DHT ops, so scatter-down traffic that overlaps phase 4 is attributed to skeap:dht.")
	return t
}

// KSelectPhaseBreakdown: per-phase cost of one standalone selection.
func KSelectPhaseBreakdown(sz Sizes) Table {
	t := Table{
		ID:     "E24",
		Title:  "KSelect: per-phase cost of one selection",
		Claim:  "phase 1 (run only when m > n^{3/2}) prunes to O(n^{3/2} log n) candidates, phase 2 to O(√n), phase 3 sorts the rest — O(log n) rounds in total (Thm 4.2)",
		Header: []string{"phase", "active rounds", "messages", "bits", "congestion", "msg share (%)"},
	}
	n := sz.NSweep[len(sz.NSweep)-1]
	m := 8 * n
	seed := uint64(n) * 17
	ov := ldb.New(n, hashutil.New(seed))
	sel := kselect.New(ov, hashutil.New(seed+1))
	sel.LoadUniform(m, uint64(m)*4, seed+2)
	eng := sel.NewSyncEngine(seed + 3)
	col := obs.NewCollector()
	eng.SetObserver(col.Observer())
	sel.SetObs(col)
	sel.Start(eng.Context(sel.Anchor()), int64(m/2))
	eng.RunUntil(sel.Done, maxRounds(n))

	phaseTable(&t, col.Phases())
	t.Notef("n=%d, m=%d, k=m/2; phases named after Algorithm 2's structure (window/prune/sort/boundary/rank); m ≤ n^{3/2} skips phase 1, the boundaries and the answer ride each sort's done convergecast, and a boundary instance runs only after a failed rank check.", n, m)
	return t
}
