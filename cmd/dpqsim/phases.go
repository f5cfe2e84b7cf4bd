package main

import (
	"flag"
	"fmt"
	"os"

	"dpq/internal/hashutil"
	"dpq/internal/mathx"
	"dpq/internal/obs"
	"dpq/internal/prio"
	"dpq/internal/relax"
	"dpq/internal/sim"
)

// phasesMain renders the message anatomy of one protocol batch: for every
// round it counts delivered messages by type, making the paper's phases
// visible — Skeap's aggregate→assign→decompose→DHT pipeline (§3.2) and
// Seap's insert/select/extract/fetch cycle (§5).
func phasesMain() {
	proto := flag.String("proto", "skeap", "protocol to trace: skeap or seap")
	n := flag.Int("n", 16, "number of processes")
	ops := flag.Int("ops", 3, "operations buffered per process")
	seed := flag.Uint64("seed", 1, "simulation seed")
	of := obs.AddFlags()
	parse()

	sess := start(of)
	be, bound, err := relax.NewStrict(*proto, *n, 4, 1<<20, *seed)
	if err != nil {
		fail(2, "-proto: %v", err)
	}
	be.SetAutoRepeat(false)
	be.SetObs(sess.Collector())

	// Buffer ops per node with a deterministic mix.
	rnd := hashutil.NewRand(*seed + 1)
	id := prio.ElemID(1)
	for host := 0; host < *n; host++ {
		for i := 0; i < *ops; i++ {
			if rnd.Bool(0.6) {
				be.InjectInsert(host, id, rnd.Uint64()%bound+1, "")
				id++
			} else {
				be.InjectDelete(host)
			}
		}
	}

	tl := NewTimeline()
	spec := be.Spec(sim.KindSync)
	spec.Observer = obs.Multi(tl.Observer(), sess.Observer())
	eng := sim.Build(spec).(*sim.SyncEngine)
	be.StartBatch(eng.Context(be.Overlay().Anchor))
	if !eng.RunQuiescent(be.Done, 100000*(mathx.Log2Ceil(*n)+3)) {
		fail(1, "batch did not complete")
	}
	finish(sess, eng)

	fmt.Printf("%s batch anatomy: n=%d, %d ops/node, %d rounds\n\n", *proto, *n, *ops, eng.Metrics().Rounds)
	tl.Render(os.Stdout)
}
