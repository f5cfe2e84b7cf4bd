// Package-level benchmarks: one per experiment of DESIGN.md's index
// (E-F2, E1–E21). Each benchmark runs the protocol workload b.N times and
// reports the paper's quantities (rounds, congestion, message bits,
// candidate counts …) via b.ReportMetric, so `go test -bench=. -benchmem`
// regenerates every figure-equivalent series at benchmark scale;
// cmd/benchall produces the full-size tables.
package dpq

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"dpq/internal/baseline"
	"dpq/internal/concurrentpq"
	"dpq/internal/hashutil"
	"dpq/internal/kselect"
	"dpq/internal/ldb"
	"dpq/internal/mathx"
	"dpq/internal/prio"
	"dpq/internal/quantile"
	"dpq/internal/seap"
	"dpq/internal/semantics"
	"dpq/internal/sim"
	"dpq/internal/skeap"
	"dpq/internal/workload"
)

func benchMaxRounds(n int) int { return 20000 * (mathx.Log2Ceil(n) + 3) }

// BenchmarkTreeHeight (E-F2): LDB construction and tree height, Cor. A.4.
func BenchmarkTreeHeight(b *testing.B) {
	for _, n := range []int{16, 64, 256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			h := 0
			for i := 0; i < b.N; i++ {
				ov := ldb.New(n, hashutil.New(uint64(n+i)))
				h = ov.TreeHeight()
			}
			b.ReportMetric(float64(h), "height")
		})
	}
}

func runSkeapBatch(b *testing.B, n, opsPerNode int, seed uint64) *sim.Metrics {
	b.Helper()
	h := skeap.New(skeap.Config{N: n, P: 4, Seed: seed})
	h.SetAutoRepeat(false)
	rnd := hashutil.NewRand(seed + 1)
	id := prio.ElemID(1)
	for host := 0; host < n; host++ {
		for i := 0; i < opsPerNode; i++ {
			if rnd.Bool(0.6) {
				h.InjectInsert(host, id, rnd.Intn(4), "")
				id++
			} else {
				h.InjectDelete(host)
			}
		}
	}
	eng := h.NewSyncEngine()
	h.StartIteration(eng.Context(h.Overlay().Anchor))
	if !eng.RunUntil(h.Done, benchMaxRounds(n)) {
		b.Fatal("skeap batch incomplete")
	}
	return eng.Metrics()
}

// BenchmarkSkeapRoundsVsN (E1): Corollary 3.6 — O(log n) rounds per batch.
func BenchmarkSkeapRoundsVsN(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var m *sim.Metrics
			for i := 0; i < b.N; i++ {
				m = runSkeapBatch(b, n, 2, uint64(n+i))
			}
			b.ReportMetric(float64(m.Rounds), "rounds")
			b.ReportMetric(float64(m.Rounds)/float64(mathx.Log2Ceil(n)), "rounds/log2n")
		})
	}
}

func steadySkeapBench(b *testing.B, n, lambda int, seed uint64) *sim.Metrics {
	b.Helper()
	h := skeap.New(skeap.Config{N: n, P: 4, Seed: seed})
	eng := h.NewSyncEngine()
	gen := workload.New(workload.Config{N: n, Rate: lambda, InsertFrac: 0.6, Dist: workload.Uniform, Bound: 4, Seed: seed + 1})
	for r := 0; r < 30; r++ {
		for _, op := range gen.Round() {
			if op.Kind == workload.OpInsert {
				h.InjectInsert(op.Host, op.ID, int(op.Prio-1), "")
			} else {
				h.InjectDelete(op.Host)
			}
		}
		eng.Step()
	}
	if !eng.RunUntil(h.Done, benchMaxRounds(n)) {
		b.Fatal("skeap steady run incomplete")
	}
	return eng.Metrics()
}

// BenchmarkSkeapCongestionVsLambda (E2): Lemma 3.7 — congestion Õ(Λ).
func BenchmarkSkeapCongestionVsLambda(b *testing.B) {
	for _, lam := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("lambda=%d", lam), func(b *testing.B) {
			var m *sim.Metrics
			for i := 0; i < b.N; i++ {
				m = steadySkeapBench(b, 32, lam, uint64(lam*100+i))
			}
			b.ReportMetric(float64(m.Congestion), "congestion")
			b.ReportMetric(float64(m.Congestion)/float64(lam), "congestion/lambda")
		})
	}
}

// BenchmarkSkeapMessageBits (E3): Lemma 3.8 — O(Λ log² n)-bit messages.
func BenchmarkSkeapMessageBits(b *testing.B) {
	for _, lam := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("lambda=%d", lam), func(b *testing.B) {
			var m *sim.Metrics
			for i := 0; i < b.N; i++ {
				m = steadySkeapBench(b, 32, lam, uint64(lam*200+i))
			}
			b.ReportMetric(float64(m.MaxMessageBit), "maxbits")
		})
	}
}

func runKSelectBench(b *testing.B, n, m int, k int64, seed uint64) (kselect.Result, *sim.Metrics, *kselect.Selector) {
	b.Helper()
	ov := ldb.New(n, hashutil.New(seed))
	sel := kselect.New(ov, hashutil.New(seed+1))
	sel.LoadUniform(m, uint64(m)*4, seed+2)
	eng := sel.NewSyncEngine(seed + 3)
	sel.Start(eng.Context(sel.Anchor()), k)
	if !eng.RunUntil(sel.Done, benchMaxRounds(n)) {
		b.Fatal("kselect incomplete")
	}
	return sel.Result(), eng.Metrics(), sel
}

// BenchmarkKSelectRoundsVsN (E4): Theorem 4.2 — O(log n) rounds.
func BenchmarkKSelectRoundsVsN(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var met *sim.Metrics
			for i := 0; i < b.N; i++ {
				_, met, _ = runKSelectBench(b, n, 16*n, int64(4*n), uint64(n+i))
			}
			b.ReportMetric(float64(met.Rounds), "rounds")
			b.ReportMetric(float64(met.Rounds)/float64(mathx.Log2Ceil(n)), "rounds/log2n")
		})
	}
}

// BenchmarkKSelectReduction (E5): Lemmas 4.4/4.7 — candidate shrinkage.
func BenchmarkKSelectReduction(b *testing.B) {
	for _, n := range []int{32, 64, 128} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var res kselect.Result
			m := n * n
			for i := 0; i < b.N; i++ {
				res, _, _ = runKSelectBench(b, n, m, int64(m/2), uint64(n*3+i))
			}
			b.ReportMetric(float64(res.CandidatesAfterP1), "cand-p1")
			b.ReportMetric(float64(res.CandidatesAtP3), "cand-p3")
			b.ReportMetric(float64(res.Retries), "retries")
		})
	}
}

// BenchmarkKSelectTreeParticipation (E6): Lemma 4.5 — Θ(1) memberships.
func BenchmarkKSelectTreeParticipation(b *testing.B) {
	for _, n := range []int{32, 128} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var mean float64
			var rounds int
			for i := 0; i < b.N; i++ {
				_, _, sel := runKSelectBench(b, n, 16*n, int64(8*n), uint64(n*5+i))
				mean, _ = sel.HolderStats()
				rounds = sel.SortingRounds()
			}
			if rounds > 0 {
				b.ReportMetric(mean/float64(rounds), "holders/node/round")
			}
		})
	}
}

// BenchmarkKSelectCongestion (E7): Theorem 4.2 — congestion Õ(1).
func BenchmarkKSelectCongestion(b *testing.B) {
	for _, n := range []int{32, 128} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var met *sim.Metrics
			for i := 0; i < b.N; i++ {
				_, met, _ = runKSelectBench(b, n, 16*n, int64(4*n), uint64(n*7+i))
			}
			b.ReportMetric(float64(met.Congestion), "congestion")
			b.ReportMetric(float64(met.MaxMessageBit), "maxbits")
		})
	}
}

func runSeapCycle(b *testing.B, n, opsPerNode int, seed uint64) *sim.Metrics {
	b.Helper()
	h := seap.New(seap.Config{N: n, PrioBound: 1 << 20, Seed: seed})
	h.SetAutoRepeat(false)
	rnd := hashutil.NewRand(seed + 1)
	id := prio.ElemID(1)
	for host := 0; host < n; host++ {
		for i := 0; i < opsPerNode; i++ {
			if rnd.Bool(0.6) {
				h.InjectInsert(host, id, rnd.Uint64n(1<<20)+1, "")
				id++
			} else {
				h.InjectDelete(host)
			}
		}
	}
	eng := h.NewSyncEngine()
	h.StartCycle(eng.Context(h.Overlay().Anchor))
	if !eng.RunUntil(h.Done, benchMaxRounds(n)) {
		b.Fatal("seap cycle incomplete")
	}
	return eng.Metrics()
}

// BenchmarkSeapRoundsVsN (E8): Lemma 5.3 — O(log n) rounds per cycle.
func BenchmarkSeapRoundsVsN(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var m *sim.Metrics
			for i := 0; i < b.N; i++ {
				m = runSeapCycle(b, n, 2, uint64(n*11+i))
			}
			b.ReportMetric(float64(m.Rounds), "rounds")
			b.ReportMetric(float64(m.Rounds)/float64(mathx.Log2Ceil(n)), "rounds/log2n")
		})
	}
}

func steadySeapBench(b *testing.B, n, lambda int, seed uint64) *sim.Metrics {
	b.Helper()
	h := seap.New(seap.Config{N: n, PrioBound: 1 << 20, Seed: seed})
	eng := h.NewSyncEngine()
	gen := workload.New(workload.Config{N: n, Rate: lambda, InsertFrac: 0.6, Dist: workload.Uniform, Bound: 1 << 20, Seed: seed + 1})
	for r := 0; r < 30; r++ {
		for _, op := range gen.Round() {
			if op.Kind == workload.OpInsert {
				h.InjectInsert(op.Host, op.ID, op.Prio, "")
			} else {
				h.InjectDelete(op.Host)
			}
		}
		eng.Step()
	}
	if !eng.RunUntil(h.Done, benchMaxRounds(n)) {
		b.Fatal("seap steady run incomplete")
	}
	return eng.Metrics()
}

// BenchmarkSeapCongestionVsLambda (E9): Lemma 5.4 — congestion Õ(Λ).
func BenchmarkSeapCongestionVsLambda(b *testing.B) {
	for _, lam := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("lambda=%d", lam), func(b *testing.B) {
			var m *sim.Metrics
			for i := 0; i < b.N; i++ {
				m = steadySeapBench(b, 16, lam, uint64(lam*300+i))
			}
			b.ReportMetric(float64(m.Congestion), "congestion")
			b.ReportMetric(float64(m.Congestion)/float64(lam), "congestion/lambda")
		})
	}
}

// BenchmarkSeapVsSkeapMessageBits (E10): Lemma 5.5 vs 3.8 — the headline
// message-size separation.
func BenchmarkSeapVsSkeapMessageBits(b *testing.B) {
	for _, lam := range []int{1, 16} {
		b.Run(fmt.Sprintf("lambda=%d", lam), func(b *testing.B) {
			var sk, se *sim.Metrics
			for i := 0; i < b.N; i++ {
				sk = steadySkeapBench(b, 16, lam, uint64(lam*400+i))
				se = steadySeapBench(b, 16, lam, uint64(lam*500+i))
			}
			b.ReportMetric(float64(sk.MaxMessageBit), "skeap-maxbits")
			b.ReportMetric(float64(se.MaxMessageBit), "seap-maxbits")
			b.ReportMetric(float64(sk.MaxMessageBit)/float64(se.MaxMessageBit), "ratio")
		})
	}
}

// BenchmarkDHTHops (E11): Lemma 2.2(iii) — O(log n) rounds per operation.
func BenchmarkDHTHops(b *testing.B) {
	for _, n := range []int{16, 64, 256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rounds := 0
			for i := 0; i < b.N; i++ {
				h := skeap.New(skeap.Config{N: n, P: 1, Seed: uint64(n*13 + i)})
				h.SetAutoRepeat(false)
				h.InjectInsert(n/2, 1, 0, "")
				eng := h.NewSyncEngine()
				h.StartIteration(eng.Context(h.Overlay().Anchor))
				eng.RunQuiescent(h.Done, benchMaxRounds(n))
				rounds = eng.Metrics().Rounds
			}
			b.ReportMetric(float64(rounds), "rounds")
			b.ReportMetric(float64(rounds)/float64(mathx.Log2Ceil(n)), "rounds/log2n")
		})
	}
}

// BenchmarkFairness (E12): Lemma 2.2(iv) — uniform element distribution.
func BenchmarkFairness(b *testing.B) {
	n := 32
	m := 64 * n
	var maxOverMean float64
	for i := 0; i < b.N; i++ {
		h := skeap.New(skeap.Config{N: n, P: 4, Seed: uint64(51 + i)})
		rnd := hashutil.NewRand(uint64(52 + i))
		for j := 0; j < m; j++ {
			h.InjectInsert(rnd.Intn(n), prio.ElemID(j+1), rnd.Intn(4), "")
		}
		eng := h.NewSyncEngine()
		eng.RunUntil(func() bool {
			t := 0
			for _, s := range h.StoreSizes() {
				t += s
			}
			return t == m
		}, benchMaxRounds(n))
		max := 0
		for _, s := range h.StoreSizes() {
			if s > max {
				max = s
			}
		}
		maxOverMean = float64(max) / (float64(m) / float64(n))
	}
	b.ReportMetric(maxOverMean, "max/mean-load")
}

// BenchmarkJoinLeave (E13): §1.4(4) — O(log n) restoration.
func BenchmarkJoinLeave(b *testing.B) {
	for _, n := range []int{32, 128, 512} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rounds := 0
			for i := 0; i < b.N; i++ {
				ov := ldb.New(n, hashutil.New(uint64(n*17+i)))
				joins := make([]uint64, n/4+1)
				for j := range joins {
					joins[j] = uint64(90000 + n + j)
				}
				res := ldb.RunBatch(ov, joins, []int{1, 5 % n}, uint64(n*19+i))
				if !ov.IsTree() {
					b.Fatal("restoration broke the tree")
				}
				rounds = res.Rounds
			}
			b.ReportMetric(float64(rounds), "rounds")
		})
	}
}

// BenchmarkSemanticsValidation (E14): Lemmas 3.5/5.2 under adversarial
// asynchrony.
func BenchmarkSemanticsValidation(b *testing.B) {
	pass, total := 0, 0
	for i := 0; i < b.N; i++ {
		for s := 0; s < 3; s++ {
			h := skeap.New(skeap.Config{N: 5, P: 3, Seed: uint64(1000 + i*10 + s)})
			rnd := hashutil.NewRand(uint64(2000 + i*10 + s))
			id := prio.ElemID(1)
			for j := 0; j < 30; j++ {
				if rnd.Bool(0.6) {
					h.InjectInsert(rnd.Intn(5), id, rnd.Intn(3), "")
					id++
				} else {
					h.InjectDelete(rnd.Intn(5))
				}
			}
			spec := h.Spec(sim.KindAsync)
			spec.MaxDelay = 3.0
			eng := sim.Build(spec)
			total++
			if eng.RunUntil(h.Done, 3_000_000) && semantics.CheckAll(h.Trace(), semantics.FIFO).Ok() {
				pass++
			}
		}
	}
	if pass != total {
		b.Fatalf("semantics violations: %d/%d passed", pass, total)
	}
	b.ReportMetric(float64(pass)/float64(total), "pass-rate")
}

// BenchmarkThroughputVsBaselines (E15): batching vs the Θ(nΛ) coordinator.
func BenchmarkThroughputVsBaselines(b *testing.B) {
	for _, n := range []int{16, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var skC, ceC int
			for i := 0; i < b.N; i++ {
				sk := steadySkeapBench(b, n, 8, uint64(n*23+i))
				skC = sk.Congestion
				c := baseline.NewCentral(n)
				gen := workload.New(workload.Config{N: n, Rate: 8, InsertFrac: 0.6, Dist: workload.Uniform, Bound: 1 << 16, Seed: uint64(n*29 + i)})
				eng := c.NewSyncEngine(uint64(n*31 + i))
				for r := 0; r < 30; r++ {
					for _, op := range gen.Round() {
						if op.Kind == workload.OpInsert {
							c.InjectInsert(op.Host, op.ID, op.Prio, "")
						} else {
							c.InjectDelete(op.Host)
						}
					}
					eng.Step()
				}
				eng.RunUntil(c.Done, 100000)
				ceC = eng.Metrics().Congestion
			}
			b.ReportMetric(float64(skC), "skeap-congestion")
			b.ReportMetric(float64(ceC), "central-congestion")
			b.ReportMetric(float64(ceC)/float64(skC), "ratio")
		})
	}
}

// BenchmarkKSelectVsBaselines (E16): selection cost comparison.
func BenchmarkKSelectVsBaselines(b *testing.B) {
	n := 64
	m := 16 * n
	k := int64(m / 2)
	b.Run("KSelect", func(b *testing.B) {
		var met *sim.Metrics
		for i := 0; i < b.N; i++ {
			_, met, _ = runKSelectBench(b, n, m, k, uint64(37+i))
		}
		b.ReportMetric(float64(met.Rounds), "rounds")
		b.ReportMetric(float64(met.MaxMessageBit), "maxbits")
	})
	for _, mode := range []struct {
		name string
		mode baseline.Mode
	}{{"GatherAll", baseline.GatherAll}, {"BinarySearch", baseline.BinarySearch}} {
		b.Run(mode.name, func(b *testing.B) {
			var met *sim.Metrics
			for i := 0; i < b.N; i++ {
				ov := ldb.New(n, hashutil.New(uint64(41+i)))
				s := baseline.NewSelector(ov, mode.mode)
				rnd := hashutil.NewRand(uint64(43 + i))
				for j := 0; j < m; j++ {
					s.Load(sim.NodeID(rnd.Intn(ov.NumVirtual())),
						prio.Element{ID: prio.ElemID(j + 1), Prio: prio.Priority(rnd.Uint64n(uint64(m)*4) + 1)})
				}
				eng := s.NewSyncEngine(uint64(47 + i))
				s.Start(eng.Context(s.Anchor()), k)
				if !eng.RunUntil(s.Done, benchMaxRounds(n)) {
					b.Fatal("baseline selection incomplete")
				}
				met = eng.Metrics()
			}
			b.ReportMetric(float64(met.Rounds), "rounds")
			b.ReportMetric(float64(met.MaxMessageBit), "maxbits")
		})
	}
}

// BenchmarkBatchingAblation (E17): MaxBatch=1 vs unlimited batching.
func BenchmarkBatchingAblation(b *testing.B) {
	n := 16
	drain := func(maxBatch int, seed uint64) int {
		h := skeap.New(skeap.Config{N: n, P: 4, Seed: seed, MaxBatch: maxBatch})
		gen := workload.New(workload.Config{N: n, Rate: 8, InsertFrac: 0.7, Dist: workload.Uniform, Bound: 4, Seed: seed + 1})
		for r := 0; r < 15; r++ {
			for _, op := range gen.Round() {
				if op.Kind == workload.OpInsert {
					h.InjectInsert(op.Host, op.ID, int(op.Prio-1), "")
				} else {
					h.InjectDelete(op.Host)
				}
			}
		}
		eng := h.NewSyncEngine()
		if !eng.RunUntil(h.Done, 40*benchMaxRounds(n)) {
			b.Fatal("drain incomplete")
		}
		return eng.Metrics().Rounds
	}
	var batched, unbatched int
	for i := 0; i < b.N; i++ {
		batched = drain(0, uint64(61+i))
		unbatched = drain(1, uint64(67+i))
	}
	b.ReportMetric(float64(batched), "rounds-batched")
	b.ReportMetric(float64(unbatched), "rounds-maxbatch1")
	b.ReportMetric(float64(unbatched)/float64(batched), "slowdown")
}

// BenchmarkEndToEndSort exercises the full public API the way the distsort
// example does, as a throughput reference.
func BenchmarkEndToEndSort(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pq, err := New(Seap, Options{Nodes: 8, Seed: uint64(71 + i)})
		if err != nil {
			b.Fatal(err)
		}
		rnd := hashutil.NewRand(uint64(73 + i))
		var vals []uint64
		for j := 0; j < 64; j++ {
			v := rnd.Uint64n(1<<20) + 1
			vals = append(vals, v)
			pq.At(j % 8).Insert(v, "")
		}
		if _, err := pq.Drain(); err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 64; j++ {
			pq.At(j % 8).DeleteMin()
		}
		if _, err := pq.Drain(); err != nil {
			b.Fatal(err)
		}
		sort.Slice(vals, func(x, y int) bool { return vals[x] < vals[y] })
		res := pq.Results()
		for j, d := range res {
			if d.Priority != vals[j] {
				b.Fatalf("sort mismatch at %d", j)
			}
		}
	}
}

// BenchmarkSharedMemoryContention (E19): the [SL00]-style comparator's
// head contention per delete, by worker count.
func BenchmarkSharedMemoryContention(b *testing.B) {
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var perDelete float64
			for i := 0; i < b.N; i++ {
				const perWorker = 300
				q := concurrentpq.New(uint64(workers*1000 + i))
				for j := 0; j < workers*perWorker; j++ {
					q.Insert(prio.Element{ID: prio.ElemID(j + 1), Prio: prio.Priority(j)})
				}
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for j := 0; j < perWorker; j++ {
							q.DeleteMinAs(int64(w + 1))
						}
					}(w)
				}
				wg.Wait()
				perDelete = float64(q.ForeignSkips()+q.Retries()) / float64(workers*perWorker)
			}
			b.ReportMetric(perDelete, "contended-hops/delete")
		})
	}
}

// BenchmarkApproxQuantile (E21): the one-phase sketch against KSelect.
func BenchmarkApproxQuantile(b *testing.B) {
	const n, m = 32, 2048
	for _, k := range []int{64, 1024} {
		b.Run(fmt.Sprintf("sketch-k=%d", k), func(b *testing.B) {
			var met *sim.Metrics
			for i := 0; i < b.N; i++ {
				ov := ldb.New(n, hashutil.New(uint64(400+i)))
				est := quantile.New(ov, hashutil.New(uint64(401+i)), k)
				rnd := hashutil.NewRand(uint64(402 + i))
				for j := 0; j < m; j++ {
					est.Load(sim.NodeID(rnd.Intn(ov.NumVirtual())),
						prio.Element{ID: prio.ElemID(j + 1), Prio: prio.Priority(rnd.Uint64n(1 << 20))})
				}
				eng := est.NewSyncEngine(uint64(403 + i))
				est.Start(eng.Context(est.Anchor()), 0.5)
				if !eng.RunUntil(est.Done, benchMaxRounds(n)) {
					b.Fatal("sketch stuck")
				}
				met = eng.Metrics()
			}
			b.ReportMetric(float64(met.Rounds), "rounds")
			b.ReportMetric(float64(met.MaxMessageBit), "maxbits")
		})
	}
	b.Run("kselect-exact", func(b *testing.B) {
		var met *sim.Metrics
		for i := 0; i < b.N; i++ {
			_, met, _ = runKSelectBench(b, n, m, m/2, uint64(410+i))
		}
		b.ReportMetric(float64(met.Rounds), "rounds")
		b.ReportMetric(float64(met.MaxMessageBit), "maxbits")
	})
}
