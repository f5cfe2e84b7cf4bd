// Command dpqbench is the reproducible engine micro-benchmark: for each
// protocol (skeap, seap, kselect) and process count it drives one
// operation batch to completion on the serial round engine and on the
// worker-pool engine, and reports rounds/sec, ns per node activation and
// heap allocations per round. The parallel engine is trace-identical to
// the serial one, so the two rows of a pair execute the same rounds and
// messages — any wall-clock difference is pure engine overhead or
// speedup.
//
// Results are written as `dpq-bench/1` JSON (committed as BENCH_5.json
// and, for the GOMAXPROCS=4 serial-vs-parallel pairing, BENCH_6.json;
// BENCH_9.json adds the -relax dimension: the seap workload served by
// the relaxation engine, strict vs SampleK(k=2,4) vs BatchLocal;
// BENCH_10.json adds the -scale dimension: large-n skeap with a bounded
// workload, tracking memory bytes/node — the quantity that decides how
// big a simulation fits in a memory budget).
// With -baseline the run compares itself against a previous result file
// and fails when any matching case allocates >2x per round or loses more
// than 25% rounds/sec — the CI bench-smoke job uses this to keep the hot
// paths allocation-free. The rounds/sec gate compares wall clock, so it
// only means something when baseline and run share hardware; disable it
// with -speedtol 0 when comparing across hosts.
//
// Usage:
//
//	dpqbench [-quick] [-json FILE] [-baseline FILE] [-speedtol F]
//	         [-workers N] [-seed S]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"dpq/internal/hashutil"
	"dpq/internal/kselect"
	"dpq/internal/ldb"
	"dpq/internal/mathx"
	"dpq/internal/prio"
	"dpq/internal/relax"
	"dpq/internal/seap"
	"dpq/internal/sim"
	"dpq/internal/skeap"
)

// Case is one (protocol, n, engine) measurement.
type Case struct {
	Proto           string  `json:"proto"`
	N               int     `json:"n"`
	Engine          string  `json:"engine"` // "serial" or "parallel"
	Workers         int     `json:"workers"`
	Rounds          int     `json:"rounds"`
	Messages        int64   `json:"messages"`
	Activations     int64   `json:"activations"` // rounds × virtual nodes
	WallNs          int64   `json:"wallNs"`
	RoundsPerSec    float64 `json:"roundsPerSec"`
	NsPerActivation float64 `json:"nsPerActivation"`
	AllocsPerRound  float64 `json:"allocsPerRound"`
	AllocKBPerRound float64 `json:"allocKBPerRound"`
	// Memory footprint per virtual node after the run (GC'd): the engine's
	// own buffers, and the whole process heap. The -scale cases exist to
	// track these; -baseline gates on the heap number.
	EngineBytesPerNode float64 `json:"engineBytesPerNode,omitempty"`
	HeapBytesPerNode   float64 `json:"heapBytesPerNode,omitempty"`
}

// File is the dpq-bench/1 result schema.
type File struct {
	Schema     string `json:"schema"`
	GoVersion  string `json:"goVersion"`
	GoMaxProcs int    `json:"goMaxProcs"`
	Quick      bool   `json:"quick"`
	Seed       uint64 `json:"seed"`
	Cases      []Case `json:"cases"`
}

const schema = "dpq-bench/1"

func maxRounds(n int) int { return 20000 * (mathx.Log2Ceil(n) + 3) }

// batch describes one prepared run: start kicks the protocol off, done
// reports completion, virt is the virtual node count for the activation
// metric.
type batch struct {
	eng   *sim.SyncEngine
	start func()
	done  func() bool
	virt  int
}

// prepHeap buffers ops operations in be — a seeded 60/40 insert/delete mix
// over the priorities [1, bound], the i-th at hostOf(i) — and prepares one
// driver-started batch on a round engine with the given pool size.
func prepHeap(be relax.Backend, bound uint64, ops, workers int, seed uint64, hostOf func(i int, rnd *hashutil.Rand) int) batch {
	be.SetAutoRepeat(false)
	rnd := hashutil.NewRand(seed + 1)
	id := prio.ElemID(1)
	for i := 0; i < ops; i++ {
		host := hostOf(i, rnd)
		if rnd.Bool(0.6) {
			be.InjectInsert(host, id, rnd.Uint64n(bound)+1, "")
			id++
		} else {
			be.InjectDelete(host)
		}
	}
	spec := be.Spec(sim.KindSync)
	spec.Workers = workers
	eng := sim.Build(spec).(*sim.SyncEngine)
	return batch{
		eng:   eng,
		start: func() { be.StartBatch(eng.Context(be.Overlay().Anchor)) },
		done:  be.Done,
		virt:  be.Overlay().NumVirtual(),
	}
}

// prepPerNode is the standard workload: opsPerNode operations at every
// host in turn. The relax rows run the seap workload (same op mix, same
// priority universe) so they are directly comparable to the seap row of
// the same n.
func prepPerNode(proto string, n, opsPerNode, workers int, seed uint64) batch {
	bound := uint64(n) * uint64(n) * 16
	rx := func(mode relax.Mode, k, batchSz int) relax.Backend {
		return relax.New(relax.Config{N: n, Seed: seed, Mode: mode, K: k, Batch: batchSz, PrioBound: bound})
	}
	var be relax.Backend
	switch proto {
	case "skeap":
		bound = 4
		be = relax.WrapSkeap(skeap.New(skeap.Config{N: n, P: 4, Seed: seed}))
	case "seap":
		be = relax.WrapSeap(seap.New(seap.Config{N: n, PrioBound: bound, Seed: seed}))
	case "relax-samplek2":
		be = rx(relax.SampleK, 2, 0)
	case "relax-samplek4":
		be = rx(relax.SampleK, 4, 0)
	case "relax-batchlocal":
		be = rx(relax.BatchLocal, 0, 8)
	}
	return prepHeap(be, bound, n*opsPerNode, workers, seed, func(i int, _ *hashutil.Rand) int { return i / opsPerNode })
}

// prepSkeapScale is the -scale workload: a bounded total operation count
// (independent of n) on a large skeap, so the case measures the engine's
// per-node costs — construction, activation sweeps, arena recycling,
// bytes/node — rather than workload volume. Mirrors harness experiment
// E29.
func prepSkeapScale(n, totalOps, workers int, seed uint64) batch {
	be := relax.WrapSkeap(skeap.New(skeap.Config{N: n, P: 8, Seed: seed}))
	return prepHeap(be, 8, totalOps, workers, seed, func(_ int, rnd *hashutil.Rand) int { return rnd.Intn(n) })
}

func prepKSelect(n, workers int, seed uint64) batch {
	ov := ldb.New(n, hashutil.New(seed))
	sel := kselect.New(ov, hashutil.New(seed+1))
	m := 4 * n
	sel.LoadUniform(m, uint64(m)*4, seed+2)
	eng := sel.NewSyncEngine(seed + 3)
	eng.SetParallel(workers)
	return batch{
		eng:   eng,
		start: func() { sel.Start(eng.Context(sel.Anchor()), int64(2*n)) },
		done:  sel.Done,
		virt:  ov.NumVirtual(),
	}
}

// run executes one prepared batch and converts the measurement to a Case.
func run(proto, engine string, n int, b batch) Case {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	startT := time.Now()
	b.start()
	if !b.eng.RunUntil(b.done, maxRounds(n)) {
		fmt.Fprintf(os.Stderr, "dpqbench: %s n=%d (%s) did not complete\n", proto, n, engine)
		os.Exit(1)
	}
	wall := time.Since(startT)
	runtime.ReadMemStats(&after)

	met := b.eng.Metrics()
	c := Case{
		Proto:       proto,
		N:           n,
		Engine:      engine,
		Workers:     b.eng.Workers(),
		Rounds:      met.Rounds,
		Messages:    met.Messages,
		Activations: int64(met.Rounds) * int64(b.virt),
		WallNs:      wall.Nanoseconds(),
	}
	if wall > 0 {
		c.RoundsPerSec = float64(c.Rounds) / wall.Seconds()
	}
	if c.Activations > 0 {
		c.NsPerActivation = float64(c.WallNs) / float64(c.Activations)
	}
	if c.Rounds > 0 {
		c.AllocsPerRound = float64(after.Mallocs-before.Mallocs) / float64(c.Rounds)
		c.AllocKBPerRound = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(c.Rounds)
	}
	ms := b.eng.MemStats(true)
	c.EngineBytesPerNode = ms.EngineBytesPerNode()
	c.HeapBytesPerNode = ms.HeapBytesPerNode()
	return c
}

// checkBaseline compares this run against a previous result file; it
// returns the number of regressions across matching cases. A case
// regresses when it allocates more than 2x per round, or — with
// speedTol > 0 — when its rounds/sec drop by more than speedTol (the
// wall-clock gate; meaningless across different hardware, so 0 disables
// it).
func checkBaseline(path string, cur []Case, speedTol float64) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dpqbench: baseline: %v\n", err)
		return 1
	}
	var base File
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "dpqbench: baseline: %v\n", err)
		return 1
	}
	if base.Schema != schema {
		fmt.Fprintf(os.Stderr, "dpqbench: baseline schema %q, want %q\n", base.Schema, schema)
		return 1
	}
	type key struct {
		proto, engine string
		n             int
	}
	ref := map[key]Case{}
	for _, c := range base.Cases {
		ref[key{c.Proto, c.Engine, c.N}] = c
	}
	bad, matched := 0, 0
	for _, c := range cur {
		b, ok := ref[key{c.Proto, c.Engine, c.N}]
		if !ok {
			continue
		}
		matched++
		if b.AllocsPerRound > 0 && c.AllocsPerRound > 2*b.AllocsPerRound {
			fmt.Fprintf(os.Stderr, "dpqbench: REGRESSION %s n=%d (%s): %.0f allocs/round, baseline %.0f (>2x)\n",
				c.Proto, c.N, c.Engine, c.AllocsPerRound, b.AllocsPerRound)
			bad++
		}
		if speedTol > 0 && b.RoundsPerSec > 0 && c.RoundsPerSec < (1-speedTol)*b.RoundsPerSec {
			fmt.Fprintf(os.Stderr, "dpqbench: REGRESSION %s n=%d (%s): %.0f rounds/s, baseline %.0f (>%d%% drop)\n",
				c.Proto, c.N, c.Engine, c.RoundsPerSec, b.RoundsPerSec, int(speedTol*100))
			bad++
		}
		// The bytes/node gate is hardware-independent (unlike rounds/s):
		// 1.5x headroom absorbs allocator and Go-version noise while
		// catching any real per-node state regression.
		if b.HeapBytesPerNode > 0 && c.HeapBytesPerNode > 1.5*b.HeapBytesPerNode {
			fmt.Fprintf(os.Stderr, "dpqbench: REGRESSION %s n=%d (%s): %.0f heap B/node, baseline %.0f (>1.5x)\n",
				c.Proto, c.N, c.Engine, c.HeapBytesPerNode, b.HeapBytesPerNode)
			bad++
		}
	}
	if matched == 0 {
		fmt.Fprintln(os.Stderr, "dpqbench: baseline has no cases matching this run")
		return 1
	}
	fmt.Fprintf(os.Stderr, "dpqbench: baseline check: %d cases compared, %d regressions\n", matched, bad)
	return bad
}

func main() {
	quick := flag.Bool("quick", false, "CI preset: n=256 only, lighter load")
	jsonOut := flag.String("json", "", "write dpq-bench/1 JSON to FILE (default stdout)")
	baseline := flag.String("baseline", "", "compare against a previous result FILE; fail on >2x allocs/round or >speedtol rounds/s regressions")
	speedTol := flag.Float64("speedtol", 0.25, "fractional rounds/s drop tolerated by -baseline (0 disables the wall-clock gate)")
	workers := flag.Int("workers", 0, "worker pool size for the parallel cases (0 = GOMAXPROCS)")
	seed := flag.Uint64("seed", 1, "deterministic workload seed")
	relaxDim := flag.Bool("relax", false, "add relaxed-DeleteMin cases (the seap workload served by SampleK k=2,4 and BatchLocal) next to the strict protocols")
	scaleDim := flag.Bool("scale", false, "add large-n skeap cases with a bounded workload (n=65536; n=1048576 too without -quick), tracking bytes/node")
	flag.Parse()

	sizes := []int{256, 1024, 4096}
	opsPerNode := 2
	if *quick {
		sizes = []int{256}
	}

	out := File{
		Schema:     schema,
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Quick:      *quick,
		Seed:       *seed,
	}
	// The parallel rows must actually exercise the worker-pool path, so
	// resolve the worker count here and floor it at 2 (SetParallel would
	// resolve 0 to GOMAXPROCS, which is 1 on single-core machines and
	// would silently fall back to the serial path).
	parW := *workers
	if parW == 0 {
		parW = runtime.GOMAXPROCS(0)
	}
	if parW < 2 {
		parW = 2
	}
	engines := []struct {
		label string
		w     int
	}{{"serial", 1}, {"parallel", parW}}
	protos := []string{"skeap", "seap", "kselect"}
	if *relaxDim {
		protos = append(protos, "relax-samplek2", "relax-samplek4", "relax-batchlocal")
	}
	for _, n := range sizes {
		for _, e := range engines {
			for _, proto := range protos {
				fmt.Fprintf(os.Stderr, "dpqbench: %s n=%d workers=%d\n", proto, n, e.w)
				var b batch
				if proto == "kselect" {
					b = prepKSelect(n, e.w, *seed)
				} else {
					b = prepPerNode(proto, n, opsPerNode, e.w, *seed)
				}
				out.Cases = append(out.Cases, run(proto, e.label, n, b))
			}
		}
	}
	if *scaleDim {
		scaleSizes := []int{65536}
		if !*quick {
			scaleSizes = append(scaleSizes, 1048576)
		}
		const scaleOps = 4096
		for _, n := range scaleSizes {
			fmt.Fprintf(os.Stderr, "dpqbench: skeap-scale n=%d workers=%d\n", n, parW)
			b := prepSkeapScale(n, scaleOps, parW, *seed)
			out.Cases = append(out.Cases, run("skeap-scale", "parallel", n, b))
		}
	}

	enc, err := json.MarshalIndent(&out, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "dpqbench:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *jsonOut == "" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(*jsonOut, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "dpqbench:", err)
		os.Exit(1)
	}

	for _, c := range out.Cases {
		fmt.Fprintf(os.Stderr, "  %-8s n=%-7d %-8s rounds=%-6d %9.0f rounds/s %7.0f ns/activation %8.1f allocs/round %6.0f heapB/node\n",
			c.Proto, c.N, c.Engine, c.Rounds, c.RoundsPerSec, c.NsPerActivation, c.AllocsPerRound, c.HeapBytesPerNode)
	}

	if *baseline != "" {
		if checkBaseline(*baseline, out.Cases, *speedTol) > 0 {
			os.Exit(1)
		}
	}
}
