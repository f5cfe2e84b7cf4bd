package main

import (
	"flag"
	"fmt"
	"os"

	"dpq/internal/mathx"
	"dpq/internal/obs"
	"dpq/internal/relax"
	"dpq/internal/seap"
	"dpq/internal/semantics"
	"dpq/internal/sim"
	"dpq/internal/skeap"
	"dpq/internal/workload"
)

// heapFlags are the flags the skeap and seap modes share: a workload
// injected for a horizon of rounds, then drained.
type heapFlags struct {
	n, lambda, rounds *int
	mix               *float64
	seed              *uint64
	verbose           *bool
	record, replay    *string
	obs               *obs.Flags
}

func addHeapFlags() *heapFlags {
	return &heapFlags{
		n:       flag.Int("n", 64, "number of processes"),
		lambda:  flag.Int("lambda", 4, "injection rate λ per node per round"),
		rounds:  flag.Int("rounds", 50, "injection horizon in rounds"),
		mix:     flag.Float64("mix", 0.6, "fraction of inserts"),
		seed:    flag.Uint64("seed", 1, "simulation seed"),
		verbose: flag.Bool("v", false, "print every DeleteMin outcome"),
		record:  flag.String("record", "", "write the generated workload to FILE"),
		replay:  flag.String("replay", "", "replay a recorded workload from FILE (overrides generation)"),
		obs:     obs.AddFlags(),
	}
}

func skeapMain() {
	f := addHeapFlags()
	p := flag.Int("p", 4, "number of priorities |𝒫| (constant)")
	maxHeap := flag.Bool("maxheap", false, "invert the delete preference (DeleteMax, §1.2)")
	lifo := flag.Bool("lifo", false, "pop the newest element per priority (stack variant)")
	parse()

	be := relax.WrapSkeap(skeap.New(skeap.Config{N: *f.n, P: *p, Seed: *f.seed, MaxHeap: *maxHeap, LIFO: *lifo}))
	m := f.run(be, uint64(*p), 100000)
	fmt.Printf("Skeap  n=%d |𝒫|=%d Λ=%d horizon=%d\n", *f.n, *p, *f.lambda, *f.rounds)
	fmt.Printf("  operations     %d (%d iterations)\n", be.Trace().Len(), be.Batches())
	guarantee := "sequentially consistent + heap consistent ✓"
	switch {
	case *lifo:
		guarantee = "locally consistent ✓ (stack order; see dpq.CheckStack)"
	case *maxHeap:
		guarantee += " (max-heap)"
	}
	f.report(be, m, guarantee)
}

func seapMain() {
	f := addHeapFlags()
	prios := flag.Uint64("prios", 1<<20, "priority universe size |𝒫| (poly(n))")
	seqCons := flag.Bool("seqconsistent", false, "run the §6 sequentially consistent variant (one op per node per phase)")
	parse()

	be := relax.WrapSeap(seap.New(seap.Config{N: *f.n, PrioBound: *prios, Seed: *f.seed, SeqConsistent: *seqCons}))
	m := f.run(be, *prios, 200000)
	fmt.Printf("Seap   n=%d |𝒫|=%d Λ=%d horizon=%d\n", *f.n, *prios, *f.lambda, *f.rounds)
	fmt.Printf("  operations     %d (%d cycles, %d elements left)\n", be.Trace().Len(), be.Batches(), be.Trace().Stored())
	guarantee := "serializable + heap consistent ✓"
	if *seqCons {
		guarantee = "sequentially consistent + heap consistent ✓ (§6 variant)"
	}
	f.report(be, m, guarantee)
}

// run injects the workload into be, one generated round per engine round,
// drains it within budget·(log n + 3) rounds and returns the run's cost.
func (f *heapFlags) run(be relax.Backend, bound uint64, budget int) *sim.Metrics {
	sess := start(f.obs)
	eng := syncEngine(be.Spec(sim.KindSync), sess)
	be.SetObs(sess.Collector())
	stream := f.workload(workload.Config{
		N: *f.n, Rate: *f.lambda, InsertFrac: *f.mix,
		Dist: workload.Uniform, Bound: bound, Seed: *f.seed + 1,
	})
	for _, ops := range stream {
		for _, op := range ops {
			if op.Kind == workload.OpInsert {
				be.InjectInsert(op.Host, op.ID, op.Prio, "")
			} else {
				be.InjectDelete(op.Host)
			}
		}
		eng.Step()
	}
	if !eng.RunUntil(be.Done, budget*(mathx.Log2Ceil(*f.n)+3)) {
		fail(1, "protocol did not drain the workload")
	}
	finish(sess, eng)
	return eng.Metrics()
}

// report prints the cost lines and the verdict of be's own check.
func (f *heapFlags) report(be relax.Backend, m *sim.Metrics, guarantee string) {
	fmt.Printf("  rounds         %d\n", m.Rounds)
	fmt.Printf("  messages       %d (max %d bits, congestion %d)\n", m.Messages, m.MaxMessageBit, m.Congestion)
	if *f.verbose {
		for _, op := range be.Trace().Ops() {
			if op.Kind == semantics.DeleteMin {
				fmt.Printf("  node %2d DeleteMin → %v\n", op.Node, op.Result)
			}
		}
	}
	if rep := be.Check(); !rep.Ok() {
		fmt.Printf("  semantics      VIOLATED:\n%s", rep.Error())
		os.Exit(1)
	}
	fmt.Printf("  semantics      %s\n", guarantee)
}

// workload returns the per-round operation stream: replayed from a
// recording with -replay, otherwise generated (and recorded with -record).
func (f *heapFlags) workload(cfg workload.Config) [][]workload.Op {
	if *f.replay != "" {
		file, err := os.Open(*f.replay)
		if err != nil {
			fail(1, "replay: %v", err)
		}
		defer file.Close()
		stream, err := workload.ReadRounds(file)
		if err != nil {
			fail(1, "replay: %v", err)
		}
		return stream
	}
	gen := workload.New(cfg)
	stream := make([][]workload.Op, *f.rounds)
	for r := range stream {
		stream[r] = gen.Round()
	}
	if *f.record != "" {
		file, err := os.Create(*f.record)
		if err != nil {
			fail(1, "record: %v", err)
		}
		err = workload.WriteRounds(file, stream)
		if cerr := file.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fail(1, "record: %v", err)
		}
	}
	return stream
}
