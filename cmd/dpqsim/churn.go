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

// churnMain exercises membership churn (§1.4(4)) on a live heap: waves of
// operations interleaved with joins and leaves, with data conservation and
// semantics verified after every wave.
//
// With -faults the simulation switches to the asynchronous engine behind
// the fault-injection layer: messages are dropped, duplicated and delayed
// and nodes crash-recover according to the chosen profile, while every
// virtual node runs behind a sim.ReliableTransport. Membership stays fixed
// in this mode (joins/leaves need the synchronous engine); crashes take
// their place. -trace-out records the injected fault schedule, -trace-in
// replays a recorded schedule bit-identically.
func churnMain() {
	proto := flag.String("proto", "skeap", "protocol: skeap or seap")
	n := flag.Int("n", 8, "initial number of processes")
	waves := flag.Int("waves", 6, "operation waves")
	ops := flag.Int("ops", 20, "operations per wave")
	seed := flag.Uint64("seed", 1, "simulation seed")
	faults := flag.String("faults", "", "fault profile (lossless|drop5|drop20dup or drop=0.2,dup=0.1,...); enables async fault mode")
	faultSeed := flag.Uint64("fault-seed", 0, "fault plan seed (0 = derive from -seed)")
	traceOut := flag.String("trace-out", "", "write the injected fault trace to this file")
	traceIn := flag.String("trace-in", "", "replay a recorded fault trace instead of sampling faults")
	of := obs.AddFlags()
	parse()

	if *traceIn != "" && (*faults != "" || *faultSeed != 0) {
		fail(2, "-trace-in replays a recorded fault schedule and cannot be combined with -faults or -fault-seed (the replayed trace already fixes every fault decision)")
	}
	sess := start(of)
	be, bound, err := relax.NewStrict(*proto, *n, 4, 1<<16, *seed)
	if err != nil {
		fail(2, "-proto: %v", err)
	}
	be.SetObs(sess.Collector())
	c := churn{
		be: be, mem: be.(relax.Membership), sess: sess,
		rnd:   hashutil.NewRand(*seed + 100),
		bound: bound, nextID: 1, waves: *waves, ops: *ops,
	}
	if *faults == "" && *traceIn == "" {
		c.membership(*n)
		return
	}
	if *faultSeed == 0 {
		*faultSeed = *seed
	}
	c.faults(*n, faultPlan(*traceIn, *faults, *faultSeed), *traceOut)
}

// churn is the state the two wave loops share.
type churn struct {
	be     relax.Backend
	mem    relax.Membership // be again: joins, leaves and what the stores hold
	sess   *obs.Session
	rnd    *hashutil.Rand
	bound  uint64
	nextID prio.ElemID
	waves  int
	ops    int
}

// inject issues one wave: a 65/35 insert/delete mix at hosts drawn by pick.
func (c *churn) inject(pick func() int) {
	for i := 0; i < c.ops; i++ {
		if c.rnd.Bool(0.65) {
			c.be.InjectInsert(pick(), c.nextID, c.rnd.Uint64n(c.bound)+1, "")
			c.nextID++
		} else {
			c.be.InjectDelete(pick())
		}
	}
}

func (c *churn) stored() int {
	total := 0
	for _, s := range c.mem.StoreSizes() {
		total += s
	}
	return total
}

func (c *churn) check(wave int) {
	if rep := c.be.Check(); !rep.Ok() {
		fail(1, "semantics violated after wave %d:\n%v", wave, rep.Error())
	}
}

// membership runs the join/leave mode on the synchronous engine: each wave
// is drained one driver-started batch at a time, so the heap is quiescent
// when the membership changes.
func (c *churn) membership(n int) {
	be := c.be
	be.SetAutoRepeat(false)
	spec := be.Spec(sim.KindSync)
	spec.Observer = c.sess.Observer()
	eng := sim.Build(spec).(*sim.SyncEngine)
	budget := 30000 * (mathx.Log2Ceil(n) + 4)
	drain := func() bool {
		for i := 0; i < 80; i++ {
			if be.Done() && !eng.Pending() {
				return true
			}
			be.StartBatch(eng.Context(be.Overlay().Anchor))
			if !eng.RunQuiescent(be.Done, budget) {
				return false
			}
		}
		return be.Done()
	}
	pickHost := func() int {
		for {
			host := c.rnd.Intn(len(c.mem.StoreSizes()))
			if be.Overlay().ActiveHost(host) {
				return host
			}
		}
	}

	for wave := 0; wave < c.waves; wave++ {
		c.inject(pickHost)
		if !drain() {
			fail(1, "wave did not drain")
		}
		stored := c.stored()
		switch wave % 3 {
		case 0:
			victim := pickHost()
			c.mem.RemoveHost(eng, victim)
			fmt.Printf("wave %d: drained; host %d left, %d/%d elements migrated\n",
				wave, victim, c.mem.MigratedLastChange(), stored)
		case 1:
			newHost := c.mem.AddHost(eng, uint64(10000+wave))
			fmt.Printf("wave %d: drained; host %d joined, %d/%d elements migrated\n",
				wave, newHost, c.mem.MigratedLastChange(), stored)
		default:
			fmt.Printf("wave %d: drained; membership unchanged (%d elements stored)\n", wave, stored)
		}
		c.check(wave)
	}
	finish(c.sess, eng)
	fmt.Printf("churn complete: %d waves, %d operations, semantics verified after every wave ✓\n",
		c.waves, be.Trace().Len())
}

// faultPlan replays the schedule recorded in traceIn, or samples one from
// the named profile.
func faultPlan(traceIn, profile string, seed uint64) *sim.FaultPlan {
	if traceIn == "" {
		prof, err := sim.ParseFaultProfile(profile, seed)
		if err != nil {
			fail(2, "%v", err)
		}
		return sim.NewFaultPlan(prof)
	}
	f, err := os.Open(traceIn)
	if err != nil {
		fail(2, "%v", err)
	}
	defer f.Close()
	tr, err := sim.DecodeFaultTrace(f)
	if err != nil {
		fail(2, "bad fault trace: %v", err)
	}
	return sim.ReplayFaultPlan(tr)
}

// faults runs the fault-injection mode: waves of operations on the
// asynchronous engine under plan, every node behind a reliable transport,
// each wave run until the trace says it is drained (see
// semantics.Trace.Drained) and then checked.
func (c *churn) faults(n int, plan *sim.FaultPlan, traceOut string) {
	eng, transports := sim.BuildFaulty(c.be.Spec(sim.KindAsync), 3.0, plan)
	eng.SetObserver(c.sess.Observer())
	tr := c.be.Trace()
	const budget = 30_000_000

	for wave := 0; wave < c.waves; wave++ {
		c.inject(func() int { return c.rnd.Intn(n) })
		if !eng.RunUntil(func() bool { return tr.Drained(c.stored) }, budget) {
			fail(1, "wave %d did not drain under faults [%v] (stored %d, expected %d)",
				wave, plan, c.stored(), tr.Stored())
		}
		c.check(wave)
		fmt.Printf("wave %d: drained under faults (%d elements stored, conservation ok)\n", wave, c.stored())
	}

	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			fail(2, "%v", err)
		}
		err = plan.Trace().Encode(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fail(2, "writing trace: %v", err)
		}
	}

	finish(c.sess, eng)
	stats := sim.SumTransportStats(transports)
	fmt.Printf("faults injected: %v\n", plan)
	fmt.Printf("transport: sent=%d retries=%d dups-suppressed=%d\n", stats.Sent, stats.Retries, stats.Duplicates)
	fmt.Printf("engine: %v\n", eng.Metrics())
	fmt.Printf("fault soak complete: %d waves, %d operations, semantics + conservation verified after every wave ✓\n",
		c.waves, tr.Len())
}
