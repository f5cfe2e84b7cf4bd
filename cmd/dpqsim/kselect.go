package main

import (
	"flag"
	"fmt"
	"sort"

	"dpq/internal/hashutil"
	"dpq/internal/kselect"
	"dpq/internal/ldb"
	"dpq/internal/mathx"
	"dpq/internal/obs"
	"dpq/internal/sim"
)

// kselectMain runs the standalone KSelect protocol and verifies the result
// against a local sort.
func kselectMain() {
	n := flag.Int("n", 64, "number of processes")
	m := flag.Int("m", 4096, "number of elements (poly(n))")
	k := flag.Int64("k", 0, "target rank (default m/2)")
	seed := flag.Uint64("seed", 1, "simulation seed")
	of := obs.AddFlags()
	parse()
	if *k == 0 {
		*k = int64(*m / 2)
	}

	sess := start(of)
	ov := ldb.New(*n, hashutil.New(*seed))
	sel := kselect.New(ov, hashutil.New(*seed+1))
	elems := sel.LoadUniform(*m, uint64(*m)*4, *seed+2)
	eng := syncEngine(sel.Spec(sim.KindSync, *seed+3), sess)
	sel.SetObs(sess.Collector())
	sel.Start(eng.Context(sel.Anchor()), *k)
	if !eng.RunUntil(sel.Done, 50000*(mathx.Log2Ceil(*n)+3)) {
		fail(1, "selection did not terminate")
	}
	finish(sess, eng)

	res := sel.Result()
	met := eng.Metrics()
	fmt.Printf("KSelect  n=%d m=%d k=%d\n", *n, *m, *k)
	fmt.Printf("  result            %v\n", res.Elem)
	fmt.Printf("  rounds            %d\n", met.Rounds)
	fmt.Printf("  messages          %d (max %d bits, congestion %d)\n", met.Messages, met.MaxMessageBit, met.Congestion)
	if res.Phase1Skipped {
		fmt.Printf("  candidates        phase 1 skipped (m ≤ n^{3/2}), %d at phase 3 (Lemma 4.7)\n", res.CandidatesAtP3)
	} else {
		fmt.Printf("  candidates        %d after phase 1, %d at phase 3 (Lemmas 4.4/4.7)\n",
			res.CandidatesAfterP1, res.CandidatesAtP3)
	}
	fmt.Printf("  phase-2 iters     %d (retries %d)\n", res.Phase2Iters, res.Retries)
	mean, max := sel.HolderStats()
	fmt.Printf("  tree holders/node %.2f mean, %d max (Lemma 4.5)\n", mean, max)

	sort.Slice(elems, func(i, j int) bool { return elems[i].Less(elems[j]) })
	if want := elems[*k-1]; res.Elem != want {
		fail(1, "WRONG — local sort says %v", want)
	}
	fmt.Println("  verification      matches the local sort ✓")
}
