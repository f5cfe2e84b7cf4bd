package harness

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"dpq/internal/hashutil"
	"dpq/internal/kselect"
	"dpq/internal/ldb"
	"dpq/internal/mathx"
	"dpq/internal/prio"
	"dpq/internal/relax"
	"dpq/internal/seap"
	"dpq/internal/sim"
	"dpq/internal/skeap"
	"dpq/internal/workload"
)

func maxRounds(n int) int { return 20000 * (mathx.Log2Ceil(n) + 3) }

// TreeHeight measures the aggregation tree height (Corollary A.4) and the
// two-children bound (Lemma 2.2(i)).
func TreeHeight(sz Sizes) Table {
	t := Table{
		ID:     "E-F2",
		Title:  "LDB aggregation-tree structure",
		Claim:  "height O(log n) w.h.p.; ≤ 2 children per node (Lemma 2.2(i), Cor. A.4); Figure 2's parent rules",
		Header: []string{"n", "virtual nodes", "height (mean)", "height (max)", "height/log2(n)"},
	}
	var xs, ys []float64
	for _, n := range sz.NSweep {
		var hs []float64
		for r := 0; r < sz.Repeats; r++ {
			ov := ldb.New(n, hashutil.New(uint64(n*1000+r)))
			hs = append(hs, float64(ov.TreeHeight()))
		}
		mean := mathx.Mean(hs)
		t.AddRow(n, 3*n, mean, mathx.Max(hs), mean/math.Log2(float64(n)+1))
		xs = append(xs, float64(n))
		ys = append(ys, mean)
	}
	fit := mathx.FitLogN(xs, ys)
	t.Notef("least-squares fit: height ≈ %.2f·log₂(n) + %.2f (R²=%.3f) — logarithmic as claimed.", fit.A, fit.B, fit.R2)
	return t
}

// mustStrict is relax.NewStrict for the experiment tables, which name
// protocols by literal: an unknown name is a bug.
func mustStrict(proto string, n, p int, bound, seed uint64) (relax.Backend, uint64) {
	be, b, err := relax.NewStrict(proto, n, p, bound, seed)
	if err != nil {
		panic("harness: " + err.Error())
	}
	return be, b
}

// runBatch starts exactly one batch (a Skeap iteration, a Seap
// insert+delete cycle) over what is buffered in be, runs it to completion
// on the round engine and returns its cost.
func runBatch(be relax.Backend, n int) sim.Metrics {
	be.SetAutoRepeat(false)
	eng := sim.Build(be.Spec(sim.KindSync))
	be.StartBatch(eng.Context(be.Overlay().Anchor))
	if !eng.RunUntil(be.Done, maxRounds(n)) {
		panic(fmt.Sprintf("harness: batch (n=%d) did not complete", n))
	}
	return *eng.Metrics()
}

// batchRounds measures the rounds of one batch covering opsPerNode
// buffered operations at every node (Skeap: 4 classes, Seap: 16n²
// priorities).
func batchRounds(proto string, n, opsPerNode int, seed uint64) int {
	be, bound := mustStrict(proto, n, 4, uint64(n)*uint64(n)*16, seed)
	rnd := hashutil.NewRand(seed + 1)
	id := prio.ElemID(1)
	for host := 0; host < n; host++ {
		for i := 0; i < opsPerNode; i++ {
			if rnd.Bool(0.6) {
				be.InjectInsert(host, id, rnd.Uint64n(bound)+1, "")
				id++
			} else {
				be.InjectDelete(host)
			}
		}
	}
	m := runBatch(be, n)
	return m.Rounds
}

// SkeapRounds: Corollary 3.6 — one batch in O(log n) rounds.
func SkeapRounds(sz Sizes) Table {
	t := Table{
		ID:     "E1",
		Title:  "Skeap: rounds per batch vs n",
		Claim:  "a batch of buffered requests is processed in O(log n) rounds w.h.p. (Cor. 3.6, Thm 3.2(3))",
		Header: []string{"n", "rounds (Λ=1)", "rounds (Λ=4)", "rounds/log2(n)"},
	}
	var xs, ys []float64
	for _, n := range sz.NSweep {
		var r1s, r4s []float64
		for r := 0; r < sz.Repeats; r++ {
			r1 := batchRounds("skeap", n, 1, uint64(n+r*7919))
			r4 := batchRounds("skeap", n, 4, uint64(n+r*7919)+7)
			r1s = append(r1s, float64(r1))
			r4s = append(r4s, float64(r4))
		}
		t.AddRow(n, mathx.Mean(r1s), mathx.Mean(r4s), mathx.Mean(r1s)/math.Log2(float64(n)+1))
		xs = append(xs, float64(n))
		ys = append(ys, mathx.Mean(r1s))
	}
	fit := mathx.FitLogN(xs, ys)
	t.Notef("fit: rounds ≈ %.2f·log₂(n) + %.2f (R²=%.3f); growth exponent %.2f (≪ 1 ⇒ sub-polynomial).",
		fit.A, fit.B, fit.R2, mathx.GrowthExponent(xs, ys))
	return t
}

// steady runs Skeap (4 priority classes) or Seap (2^20 priorities) under
// steady injection for a fixed horizon, then drains it.
func steady(proto string, n, lambda, horizon int, seed uint64) *sim.Metrics {
	be, bound := mustStrict(proto, n, 4, 1<<20, seed)
	eng := sim.Build(be.Spec(sim.KindSync)).(*sim.SyncEngine)
	gen := workload.New(workload.Config{N: n, Rate: lambda, InsertFrac: 0.6, Dist: workload.Uniform, Bound: bound, Seed: seed + 1})
	for r := 0; r < horizon; r++ {
		for _, op := range gen.Round() {
			if op.Kind == workload.OpInsert {
				be.InjectInsert(op.Host, op.ID, op.Prio, "")
			} else {
				be.InjectDelete(op.Host)
			}
		}
		eng.Step()
	}
	eng.RunUntil(be.Done, maxRounds(n))
	return eng.Metrics()
}

// SkeapCongestion: Lemma 3.7 — congestion Õ(Λ).
func SkeapCongestion(sz Sizes) Table {
	t := Table{
		ID:     "E2",
		Title:  "Skeap: congestion vs injection rate Λ",
		Claim:  "congestion Õ(Λ) (Lemma 3.7, Thm 3.2(4))",
		Header: []string{"Λ", "congestion", "congestion/Λ"},
	}
	n := 64
	var xs, ys []float64
	for _, lam := range sz.LambdaSweep {
		m := steady("skeap", n, lam, 60, uint64(lam)*31)
		t.AddRow(lam, m.Congestion, float64(m.Congestion)/float64(lam))
		xs = append(xs, float64(lam))
		ys = append(ys, float64(m.Congestion))
	}
	fit := mathx.FitLinear(xs, ys)
	t.Notef("fit: congestion ≈ %.2f·Λ + %.2f (R²=%.3f) — linear in Λ with polylog constants, as claimed.", fit.A, fit.B, fit.R2)
	return t
}

// SkeapMessageBits: Lemma 3.8 — messages O(Λ log² n) bits.
func SkeapMessageBits(sz Sizes) Table {
	t := Table{
		ID:     "E3",
		Title:  "Skeap: maximum message size vs Λ and n",
		Claim:  "messages of at most O(Λ·log² n) bits (Lemma 3.8, Thm 3.2(5))",
		Header: []string{"n", "Λ", "max message (bits)", "bits/(Λ·log²n)"},
	}
	for _, n := range []int{64} {
		for _, lam := range sz.LambdaSweep {
			m := steady("skeap", n, lam, 40, uint64(n*lam))
			denom := float64(lam) * math.Pow(math.Log2(float64(n)), 2)
			t.AddRow(n, lam, m.MaxMessageBit, float64(m.MaxMessageBit)/denom)
		}
	}
	t.Notef("the batch payload grows with Λ (contrast with Seap in E10).")
	return t
}

// runKSelect runs one standalone selection and returns diagnostics.
func runKSelect(n, m int, k int64, seed uint64) (kselect.Result, *sim.Metrics) {
	ov := ldb.New(n, hashutil.New(seed))
	sel := kselect.New(ov, hashutil.New(seed+1))
	sel.LoadUniform(m, uint64(m)*4, seed+2)
	eng := sel.NewSyncEngine(seed + 3)
	sel.Start(eng.Context(sel.Anchor()), k)
	eng.RunUntil(sel.Done, maxRounds(n))
	return sel.Result(), eng.Metrics()
}

// KSelectRounds: Theorem 4.2 — O(log n) rounds.
func KSelectRounds(sz Sizes) Table {
	t := Table{
		ID:     "E4",
		Title:  "KSelect: rounds vs n",
		Claim:  "k-selection over m = poly(n) elements in O(log n) rounds w.h.p. (Thm 4.2)",
		Header: []string{"n", "m", "rounds (mean)", "rounds (max)", "rounds/log2(n)", "messages (mean)"},
	}
	var xs, ys []float64
	for _, n := range sz.NSweep {
		m := 16 * n
		var rs, msgs []float64
		for r := 0; r < sz.Repeats; r++ {
			_, met := runKSelect(n, m, int64(m/2), uint64(n+r*15485863)*3)
			rs = append(rs, float64(met.Rounds))
			msgs = append(msgs, float64(met.Messages))
		}
		t.AddRow(n, m, mathx.Mean(rs), mathx.Max(rs), mathx.Mean(rs)/math.Log2(float64(n)+1), mathx.Mean(msgs))
		xs = append(xs, float64(n))
		ys = append(ys, mathx.Mean(rs))
	}
	t.Notef("growth exponent %.2f — far below linear; constants are dominated by the 6 tree waves per phase-2 iteration (sample start, up and down; the done convergecast; rank start and up) and the sort between them.",
		mathx.GrowthExponent(xs, ys))
	return t
}

// KSelectReduction: Lemmas 4.4/4.7 — candidate-set shrinkage.
func KSelectReduction(sz Sizes) Table {
	t := Table{
		ID:     "E5",
		Title:  "KSelect: candidate reduction per phase",
		Claim:  "phase 1 leaves O(n^{3/2}·log n) candidates (Lemma 4.4); phase 2 leaves O(√n) (Lemma 4.7); window failures (Lemma 4.6) are rare",
		Header: []string{"n", "m", "after phase 1", "at phase 3", "p2 iters", "retries"},
	}
	for _, n := range sz.NSweep {
		m := n * n
		if m > 1<<18 {
			m = 1 << 18
		}
		res, _ := runKSelect(n, m, int64(m/2), uint64(n)*5)
		t.AddRow(n, m, res.CandidatesAfterP1, res.CandidatesAtP3, res.Phase2Iters, res.Retries)
	}
	t.Notef("phase-1 pruning strengthens with n (the Chernoff ε = √(c·log n·2n/k) needs k ≫ n·log n); phase 2 converges to ≈√n before the exact phase.")
	return t
}

// KSelectParticipation: Lemma 4.5 — Θ(1) tree memberships per node.
func KSelectParticipation(sz Sizes) Table {
	t := Table{
		ID:     "E6",
		Title:  "KSelect: distribution-tree participation per node",
		Claim:  "each node belongs to Θ(1) sorting trees in expectation (Lemma 4.5)",
		Header: []string{"n", "sorting rounds", "holders/node/round (mean)", "max holders/node (total)"},
	}
	for _, n := range sz.NSweep {
		m := 16 * n
		ov := ldb.New(n, hashutil.New(uint64(n)*7))
		sel := kselect.New(ov, hashutil.New(uint64(n)*7+1))
		sel.LoadUniform(m, uint64(m)*4, uint64(n)*7+2)
		eng := sel.NewSyncEngine(uint64(n)*7 + 3)
		sel.Start(eng.Context(sel.Anchor()), int64(m/2))
		eng.RunUntil(sel.Done, maxRounds(n))
		mean, max := sel.HolderStats()
		rounds := sel.SortingRounds()
		perRound := mean
		if rounds > 0 {
			perRound = mean / float64(rounds)
		}
		t.AddRow(n, rounds, perRound, max)
	}
	t.Notef("per-round participation stays constant as n grows — no sorting bottleneck.")
	return t
}

// KSelectCongestion: Theorem 4.2 — congestion Õ(1), O(log n)-bit messages.
func KSelectCongestion(sz Sizes) Table {
	t := Table{
		ID:     "E7",
		Title:  "KSelect: congestion and message size vs n",
		Claim:  "congestion Õ(1) and O(log n)-bit messages (Thm 4.2)",
		Header: []string{"n", "congestion", "max message (bits)"},
	}
	var xs, ys []float64
	for _, n := range sz.NSweep {
		_, met := runKSelect(n, 16*n, int64(4*n), uint64(n)*9)
		t.AddRow(n, met.Congestion, met.MaxMessageBit)
		xs = append(xs, float64(n))
		ys = append(ys, float64(met.Congestion))
	}
	t.Notef("congestion growth exponent %.2f (polylog); message size flat — every KSelect message is a constant number of words.",
		mathx.GrowthExponent(xs, ys))
	return t
}

// SeapRounds: Lemma 5.3 — both phases in O(log n) rounds.
func SeapRounds(sz Sizes) Table {
	t := Table{
		ID:     "E8",
		Title:  "Seap: rounds per cycle vs n",
		Claim:  "the Insert and DeleteMin phases finish after O(log n) rounds w.h.p. (Lemma 5.3, Thm 5.1(3))",
		Header: []string{"n", "rounds (Λ=1)", "rounds (Λ=4)", "rounds/log2(n)"},
	}
	var xs, ys []float64
	for _, n := range sz.NSweep {
		var r1s, r4s []float64
		for r := 0; r < sz.Repeats; r++ {
			r1 := batchRounds("seap", n, 1, uint64(n+r*104729)*11)
			r4 := batchRounds("seap", n, 4, uint64(n+r*104729)*11+5)
			r1s = append(r1s, float64(r1))
			r4s = append(r4s, float64(r4))
		}
		t.AddRow(n, mathx.Mean(r1s), mathx.Mean(r4s), mathx.Mean(r1s)/math.Log2(float64(n)+1))
		xs = append(xs, float64(n))
		ys = append(ys, mathx.Mean(r1s))
	}
	t.Notef("growth exponent %.2f — logarithmic shape; the KSelect sub-protocol dominates the constants.",
		mathx.GrowthExponent(xs, ys))
	return t
}

// SeapCongestion: Lemma 5.4 — congestion Õ(Λ).
func SeapCongestion(sz Sizes) Table {
	t := Table{
		ID:     "E9",
		Title:  "Seap: congestion vs injection rate Λ",
		Claim:  "congestion Õ(Λ) (Lemma 5.4, Thm 5.1(4))",
		Header: []string{"Λ", "congestion", "congestion/Λ"},
	}
	n := 32
	var xs, ys []float64
	for _, lam := range sz.LambdaSweep {
		m := steady("seap", n, lam, 60, uint64(lam)*37)
		t.AddRow(lam, m.Congestion, float64(m.Congestion)/float64(lam))
		xs = append(xs, float64(lam))
		ys = append(ys, float64(m.Congestion))
	}
	fit := mathx.FitLinear(xs, ys)
	t.Notef("fit: congestion ≈ %.2f·Λ + %.2f (R²=%.3f).", fit.A, fit.B, fit.R2)
	return t
}

// SeapVsSkeapBits: Lemma 5.5 vs Lemma 3.8 — the headline improvement.
func SeapVsSkeapBits(sz Sizes) Table {
	t := Table{
		ID:     "E10",
		Title:  "Message size: Seap (O(log n)) vs Skeap (O(Λ·log² n))",
		Claim:  "Seap's messages are O(log n) bits independently of the injection rate — 'a huge improvement over Skeap' (§1.4(3), Lemma 5.5)",
		Header: []string{"Λ", "Skeap max bits", "Seap max bits", "ratio"},
	}
	n := 32
	var first, last float64
	for _, lam := range sz.LambdaSweep {
		sk := steady("skeap", n, lam, 40, uint64(lam)*41)
		se := steady("seap", n, lam, 40, uint64(lam)*43)
		ratio := float64(sk.MaxMessageBit) / float64(se.MaxMessageBit)
		if first == 0 {
			first = ratio
		}
		last = ratio
		t.AddRow(lam, sk.MaxMessageBit, se.MaxMessageBit, ratio)
	}
	t.Notef("the ratio grows from %.1f× to %.1f× across the Λ sweep: Skeap's batches scale with the rate, Seap's counts do not.", first, last)
	return t
}

// DHTHops: Lemma 2.2(iii)/A.2 — O(log n) rounds per DHT operation.
func DHTHops(sz Sizes) Table {
	t := Table{
		ID:     "E11",
		Title:  "DHT/routing: rounds and hops per operation vs n",
		Claim:  "Put/Get served in O(log n) rounds w.h.p. (Lemma 2.2(iii)); routing dilation O(log n) (Lemma A.2)",
		Header: []string{"n", "rounds per put+ack (mean)", "rounds/log2(n)", "hops per route (mean)", "hops per route (max)", "de Bruijn steps max(0, ⌈log₂3n⌉−4)"},
	}
	var xs, ys []float64
	for _, n := range sz.NSweep {
		var rs, hs []float64
		longest := 0
		for r := 0; r < sz.Repeats; r++ {
			rounds := measurePut(n, uint64(n*100+r))
			rs = append(rs, float64(rounds))
			mean, worst := routeHops(n, ldb.RouteHops(n), uint64(n*100+r))
			hs = append(hs, mean)
			longest = max(longest, worst)
		}
		mean := mathx.Mean(rs)
		t.AddRow(n, mean, mean/math.Log2(float64(n)+1), mathx.Mean(hs), longest, ldb.RouteHops(n))
		xs = append(xs, float64(n))
		ys = append(ys, mean)
	}
	fit := mathx.FitLogN(xs, ys)
	t.Notef("fit: rounds ≈ %.2f·log₂(n) + %.2f (R²=%.3f).", fit.A, fit.B, fit.R2)
	t.Notef("each de Bruijn step costs one hop: a middle node sends the message straight to the nearest middle node pred-ward of the child it chose (that child's MidPred edge), where the next step leaves from, and a route ends at the first node whose host can name the owner. Offset sweep, mean/max hops per route with ⌈log₂3n⌉+o steps (first repeat's overlay):")
	for _, n := range sz.NSweep {
		var cells []string
		for o := 2; o >= -6; o-- {
			mean, worst := routeHops(n, max(0, mathx.Log2Ceil(3*n)+o), uint64(n*100))
			cells = append(cells, fmt.Sprintf("%+d %.1f/%d", o, mean, worst))
		}
		t.Notef("n=%d: %s.", n, strings.Join(cells, " · "))
	}
	return t
}

// Fairness: Lemma 2.2(iv), Thm 3.2(1)/5.1(1).
func Fairness(sz Sizes) Table {
	t := Table{
		ID:     "E12",
		Title:  "Fairness: DHT load per node",
		Claim:  "each node stores m/n elements in expectation (Lemma 2.2(iv); fairness of Thm 3.2(1)/5.1(1))",
		Header: []string{"protocol", "n", "m", "mean load", "max load", "max/mean"},
	}
	n := 64
	m := 64 * n
	for i, proto := range []string{"skeap", "seap"} {
		be, bound := mustStrict(proto, n, 4, 1<<20, uint64(51+2*i))
		rnd := hashutil.NewRand(uint64(52 + 2*i))
		for i := 0; i < m; i++ {
			be.InjectInsert(rnd.Intn(n), prio.ElemID(i+1), rnd.Uint64n(bound)+1, "")
		}
		sizes := be.(relax.Membership).StoreSizes
		sim.Build(be.Spec(sim.KindSync)).RunUntil(func() bool { return sum(sizes()) == m }, maxRounds(n))
		t.AddRow(title(proto), n, m, float64(m)/float64(n), maxInt(sizes()), float64(maxInt(sizes()))/(float64(m)/float64(n)))
	}
	t.Notef("max/mean stays a small constant — the pseudorandom keys spread elements uniformly.")
	return t
}

// JoinLeave: §1.4(4) — batched membership changes restore in O(log n).
func JoinLeave(sz Sizes) Table {
	t := Table{
		ID:     "E13",
		Title:  "Join/Leave: batch restoration rounds vs n",
		Claim:  "batches of Join/Leave restore the topology in O(log n) rounds w.h.p. (§1.4(4))",
		Header: []string{"n", "joins", "leaves", "rounds", "rounds/log2(n)", "messages", "tree valid"},
	}
	var xs, ys []float64
	for _, n := range sz.NSweep {
		ov := ldb.New(n, hashutil.New(uint64(n)*13))
		joins := make([]uint64, n/4+1)
		for i := range joins {
			joins[i] = uint64(10000 + n + i)
		}
		var leaves []int
		for i := 0; i < n/4; i++ {
			leaves = append(leaves, i*3%n)
		}
		leaves = dedupe(leaves)
		res := ldb.RunBatch(ov, joins, leaves, uint64(n)*17)
		t.AddRow(n, len(joins), len(leaves), res.Rounds, float64(res.Rounds)/math.Log2(float64(n)+1), res.Messages, ov.IsTree())
		xs = append(xs, float64(n))
		ys = append(ys, float64(res.Rounds))
	}
	fit := mathx.FitLogN(xs, ys)
	t.Notef("fit: rounds ≈ %.2f·log₂(n) + %.2f (R²=%.3f).", fit.A, fit.B, fit.R2)
	t.Notef("messages = splice routes + six leave notifications per leave + the MidPred hand-offs: a joining or leaving middle node passes its role along the non-middle run succ-ward of it, one message per node (2 on average).")
	return t
}

// SemanticsValidation: Lemma 3.5 / Lemma 5.2 under adversarial schedules.
func SemanticsValidation(sz Sizes) Table {
	t := Table{
		ID:     "E14",
		Title:  "Semantics under adversarial asynchrony",
		Claim:  "Skeap is sequentially consistent + heap consistent (Lemma 3.5); Seap is serializable + heap consistent (Lemma 5.2)",
		Header: []string{"protocol", "async executions", "passed", "ops per run"},
	}
	const opsPerRun = 40
	for _, c := range []adversarialRow{{"skeap", 6, 1000, 1000, 3_000_000}, {"seap", 5, 3000, 1000, 5_000_000}} {
		pass := 0
		for s := 0; s < sz.AsyncRuns; s++ {
			be := c.heap(s, opsPerRun)
			spec := be.Spec(sim.KindAsync)
			spec.MaxDelay = 3.0
			if sim.Build(spec).RunUntil(be.Done, c.budget) && be.Check().Ok() {
				pass++
			}
		}
		t.AddRow(title(c.proto)+" (async)", sz.AsyncRuns, pass, opsPerRun)
	}
	t.Notef("every randomized non-FIFO schedule passed the oracle replay and the Definition-1.2 property checks.")
	return t
}

// ThroughputVsBaselines: §1 scalability — batching beats the coordinator
// as the system grows: the coordinator's congestion is Θ(nΛ) while the
// batched protocols pay Õ(Λ), so the ratio grows ≈ n/polylog(n).
func ThroughputVsBaselines(sz Sizes) Table {
	t := Table{
		ID:     "E15",
		Title:  "Scalability: Skeap/Seap vs a central coordinator",
		Claim:  "aggregation-tree batching avoids the Θ(nΛ) coordinator bottleneck (§1, §1.3): per-node congestion stays Õ(Λ) as n grows",
		Header: []string{"n", "Λ", "Skeap congestion", "Seap congestion", "central congestion", "central/Skeap"},
	}
	lam := 8
	for _, n := range sz.NSweep {
		if n > 256 {
			continue
		}
		sk := steady("skeap", n, lam, 30, uint64(n)*61)
		se := steady("seap", n, lam, 30, uint64(n)*67)
		ce := steadyCentral(n, lam, 30, uint64(n)*71)
		t.AddRow(n, lam, sk.Congestion, se.Congestion, ce.Congestion, float64(ce.Congestion)/float64(sk.Congestion))
	}
	t.Notef("the coordinator's congestion grows linearly with n·Λ; the batched protocols' per-node load is independent of n (up to polylog factors), so the advantage widens with the system size.")
	return t
}

// KSelectVsBaselines: selection cost comparison (E16).
func KSelectVsBaselines(sz Sizes) Table {
	t := Table{
		ID:     "E16",
		Title:  "Selection: KSelect vs gather-all vs binary search",
		Claim:  "KSelect matches O(log n) rounds with O(log n)-bit messages; gather-all needs Θ(m·log n)-bit messages; binary search needs Θ(log|𝒫|) phases (§1.3/§4)",
		Header: []string{"n", "m", "algorithm", "rounds", "messages", "max message (bits)"},
	}
	for _, n := range sz.NSweep {
		if n > 256 {
			continue // keep gather-all affordable
		}
		m := 16 * n
		k := int64(m / 2)
		_, met := runKSelect(n, m, k, uint64(n)*19)
		t.AddRow(n, m, "KSelect", met.Rounds, met.Messages, met.MaxMessageBit)
		for _, mode := range []struct {
			name string
			mode selectMode
		}{{"gather-all", gatherAll}, {"binary-search", binarySearch}} {
			ov := ldb.New(n, hashutil.New(uint64(n)*23))
			s := newBaselineSelector(ov, mode.mode)
			rnd := hashutil.NewRand(uint64(n)*23 + 1)
			for i := 0; i < m; i++ {
				s.Load(sim.NodeID(rnd.Intn(ov.NumVirtual())),
					prio.Element{ID: prio.ElemID(i + 1), Prio: prio.Priority(rnd.Uint64n(uint64(m)*4) + 1)})
			}
			eng := sim.Build(s.spec(uint64(n)*23 + 2))
			s.Start(eng.Context(s.Anchor()), k)
			eng.RunUntil(s.Done, maxRounds(n))
			met := eng.Metrics()
			t.AddRow(n, m, mode.name, met.Rounds, met.Messages, met.MaxMessageBit)
		}
	}
	t.Notef("gather-all's max message grows with m; binary search keeps messages small but pays ~log|𝒫| sequential aggregation phases; KSelect keeps both budgets.")
	return t
}

// BatchingAblation: E17 — disable batching (MaxBatch=1) and compare.
func BatchingAblation(sz Sizes) Table {
	t := Table{
		ID:     "E17",
		Title:  "Ablation: aggregation-tree batching on/off",
		Claim:  "batching is what lets Skeap keep up with high injection rates (§1, §3); capping batches at one op per node per iteration collapses throughput",
		Header: []string{"Λ", "rounds to drain (batched)", "rounds to drain (MaxBatch=1)", "slowdown"},
	}
	n := 16
	const horizon = 20
	for _, lam := range sz.LambdaSweep {
		b := drainRounds(n, lam, horizon, 0, uint64(lam)*83)
		u := drainRounds(n, lam, horizon, 1, uint64(lam)*89)
		t.AddRow(lam, b, u, float64(u)/float64(b))
	}
	t.Notef("with MaxBatch=1 each iteration moves one op per node, so drain time grows linearly with the backlog; full batching absorbs the whole backlog in O(log n) rounds per iteration.")
	return t
}

// SeapSCCost: E18 — the §6 sequentially consistent Seap variant trades
// throughput for local consistency.
func SeapSCCost(sz Sizes) Table {
	t := Table{
		ID:     "E18",
		Title:  "Seap §6 variant: sequential consistency vs throughput",
		Claim:  "bounding batches restores sequential consistency for Seap 'at the cost of scalability' (§6)",
		Header: []string{"backlog ops", "rounds (Seap)", "rounds (seq-consistent)", "slowdown", "seq. consistency holds"},
	}
	n := 8
	for _, ops := range []int{8, 24, 48} {
		drain := func(sc bool, seed uint64) (int, bool) {
			h := seap.New(seap.Config{N: n, PrioBound: 4096, Seed: seed, SeqConsistent: sc})
			rnd := hashutil.NewRand(seed + 1)
			id := prio.ElemID(1)
			for i := 0; i < ops; i++ {
				if rnd.Bool(0.7) {
					h.InjectInsert(rnd.Intn(n), id, rnd.Uint64n(4096)+1, "")
					id++
				} else {
					h.InjectDelete(rnd.Intn(n))
				}
			}
			eng := h.NewSyncEngine()
			eng.RunUntil(h.Done, 80*maxRounds(n))
			return eng.Metrics().Rounds, h.Check().Ok()
		}
		fast, _ := drain(false, uint64(ops)*91)
		slow, ok := drain(true, uint64(ops)*97)
		t.AddRow(ops, fast, slow, float64(slow)/float64(fast), ok)
	}
	t.Notef("one op per node per phase makes the cycle count grow with the deepest per-node backlog; standard Seap absorbs the whole backlog in O(1) cycles.")
	return t
}

// SharedMemoryContention: E19 — the [SL00]-style concurrent priority
// queue's head contention grows with the number of workers (§1.3's
// architectural argument for decentralization).
func SharedMemoryContention(sz Sizes) Table {
	t := Table{
		ID:     "E19",
		Title:  "Shared-memory comparator: DeleteMin head contention ([SL00])",
		Claim:  "centralized concurrent priority queues suffer memory contention: 'multiple nodes may compete for the same smallest element with only one node being allowed to actually delete it' (§1.3)",
		Header: []string{"workers", "deletes", "contended hops", "per delete"},
	}
	for _, workers := range []int{1, 2, 4, 8, 16} {
		const perWorker = 400
		q := newSkipPQ(uint64(workers) * 131)
		for i := 0; i < workers*perWorker; i++ {
			q.Insert(prio.Element{ID: prio.ElemID(i + 1), Prio: prio.Priority(i)})
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					q.DeleteMinAs(int64(w + 1))
				}
			}(w)
		}
		wg.Wait()
		total := workers * perWorker
		contended := q.ForeignSkips() + q.Retries()
		t.AddRow(workers, total, contended, float64(contended)/float64(total))
	}
	t.Notef("Skeap/Seap avoid this entirely: DeleteMin positions are pre-assigned by the anchor, so no two processes ever compete for the same element (Lemma 3.3 / §5.2).")
	return t
}

// MembershipMigration: E20 — a leave/join moves only the departing/
// arriving node's fair share of elements (≈ m/n), not the whole store:
// the consistent-hashing property behind the paper's O(log n) lazy
// restructuring.
func MembershipMigration(sz Sizes) Table {
	t := Table{
		ID:     "E20",
		Title:  "Membership changes: migrated elements per leave/join",
		Claim:  "joining or leaving moves only the affected key ranges (≈ m/n elements), so restructuring stays cheap (§1.4(4), Lemma 2.2(iv))",
		Header: []string{"n", "m", "m/n", "moved on leave", "moved on join", "tree valid"},
	}
	for _, n := range sz.NSweep {
		if n > 256 {
			continue
		}
		h := skeap.New(skeap.Config{N: n, P: 4, Seed: uint64(n) * 211})
		h.SetAutoRepeat(false)
		m := 32 * n
		rnd := hashutil.NewRand(uint64(n) * 213)
		for i := 0; i < m; i++ {
			h.InjectInsert(rnd.Intn(n), prio.ElemID(i+1), rnd.Intn(4), "")
		}
		eng := h.NewSyncEngine()
		h.StartIteration(eng.Context(h.Overlay().Anchor))
		eng.RunQuiescent(h.Done, maxRounds(n))
		h.RemoveHost(eng, n/2)
		leave := h.MigratedLastChange()
		h.AddHost(eng, uint64(50000+n))
		join := h.MigratedLastChange()
		t.AddRow(n, m, float64(m)/float64(n), leave, join, h.Overlay().IsTree())
	}
	t.Notef("moved counts track m/n (the departing/arriving share) rather than m — ranges elsewhere on the cycle are untouched.")
	return t
}

// ApproxQuantileTradeoff: E21 — the sampling-only estimator ([HMS18]'s
// first stage, §1.3) against exact KSelect: one aggregation phase with
// O(k·log n)-bit messages versus many phases with O(log n)-bit messages.
func ApproxQuantileTradeoff(sz Sizes) Table {
	t := Table{
		ID:     "E21",
		Title:  "Approximate quantiles (one-phase sketch) vs exact KSelect",
		Claim:  "sampling gives approximate quantiles cheaply; exactness is what costs KSelect its extra phases (§1.3 discussion of [HMS18])",
		Header: []string{"algorithm", "sketch k", "rounds", "messages", "max message (bits)", "mean rank error"},
	}
	const n, m = 32, 4096
	elems := func(seed uint64) ([]prio.Element, *ldb.Overlay) {
		ov := ldb.New(n, hashutil.New(seed))
		rnd := hashutil.NewRand(seed + 1)
		out := make([]prio.Element, m)
		for i := range out {
			out[i] = prio.Element{ID: prio.ElemID(i + 1), Prio: prio.Priority(rnd.Uint64n(1 << 20))}
		}
		return out, ov
	}
	rankOf := func(all []prio.Element, e prio.Element) int {
		r := 1
		for _, x := range all {
			if x.Less(e) {
				r++
			}
		}
		return r
	}
	for _, k := range []int{32, 256, 2048} {
		var errs []float64
		var met *sim.Metrics
		for rep := 0; rep < sz.Repeats; rep++ {
			all, ov := elems(uint64(300 + rep*17))
			est := newQuantileEstimator(ov, hashutil.New(uint64(301+rep*17)), k)
			rnd := hashutil.NewRand(uint64(302 + rep*17))
			for _, e := range all {
				est.Load(sim.NodeID(rnd.Intn(ov.NumVirtual())), e)
			}
			eng := sim.Build(est.spec(uint64(303 + rep*17)))
			est.Start(eng.Context(est.Anchor()), 0.5)
			eng.RunUntil(est.Done, maxRounds(n))
			met = eng.Metrics()
			err := rankOf(all, est.Result().Estimate) - m/2
			if err < 0 {
				err = -err
			}
			errs = append(errs, float64(err))
		}
		t.AddRow("sketch", k, met.Rounds, met.Messages, met.MaxMessageBit, mathx.Mean(errs))
	}
	res, met := runKSelect(n, m, m/2, 310)
	errExact := 0
	_ = res
	t.AddRow("KSelect (exact)", "—", met.Rounds, met.Messages, met.MaxMessageBit, errExact)
	t.Notef("the sketch's error shrinks ~1/√k while its message size grows with k; KSelect pays ~%d× the rounds for rank error 0 with flat %d-bit messages.",
		met.Rounds/3/(mathx.Log2Ceil(n)+1)+1, met.MaxMessageBit)
	return t
}

// FaultToleranceOverhead: the reliable transport restores §1.1's reliable
// channels on a lossy network; this measures what that costs per drop rate.
func FaultToleranceOverhead(sz Sizes) Table {
	t := Table{
		ID:     "E22",
		Title:  "Fault tolerance: retry overhead vs drop rate",
		Claim:  "with a seq/ack/retry transport, Skeap and Seap keep their semantics on a network that drops, duplicates and delays messages and crash-recovers nodes; the cost is retransmissions proportional to the drop rate",
		Header: []string{"protocol", "fault profile", "runs passed", "drops", "dups", "crashes", "retries", "retry overhead"},
	}
	profiles := []struct {
		name string
		p    sim.FaultProfile
	}{
		{"lossless", sim.FaultProfile{}},
		{"drop 5%", sim.FaultProfile{DropRate: 0.05}},
		{"drop 10%", sim.FaultProfile{DropRate: 0.10}},
		{"drop 20% + dup 10% + crash", sim.FaultProfile{DropRate: 0.20, DupRate: 0.10, DelayRate: 0.05, CrashRate: 0.002}},
	}
	const opsPerRun = 30
	for _, c := range []adversarialRow{{"skeap", 6, 5000, 100, 20_000_000}, {"seap", 4, 6000, 100, 30_000_000}} {
		for _, pr := range profiles {
			pass := 0
			var drops, dups, crashes, retries, sent int64
			for s := 0; s < sz.Repeats; s++ {
				be := c.heap(s, opsPerRun)
				prof := pr.p
				prof.Seed = uint64(c.seed + 2*c.step + s)
				eng, transports := sim.BuildFaulty(be.Spec(sim.KindAsync), 3.0, sim.NewFaultPlan(prof))
				if eng.RunUntil(be.Done, c.budget) && be.Check().Ok() {
					pass++
				}
				d, du, _, cr := eng.Faults().Counts()
				drops, dups, crashes = drops+d, dups+du, crashes+cr
				st := sim.SumTransportStats(transports)
				retries, sent = retries+st.Retries, sent+st.Sent
			}
			t.AddRow(title(c.proto), pr.name, fmt.Sprintf("%d/%d", pass, sz.Repeats), drops, dups, crashes, retries,
				fmt.Sprintf("%.3f", float64(retries)/float64(max(sent, 1))))
		}
	}
	t.Notef("fault model: per-message i.i.d. drop/duplicate/delay-spike decisions and fail-recover node crashes (durable state, missed activations), all drawn from a seeded stream keyed by the engine's event sequence — every run is replayable from its recorded FaultTrace.")
	t.Notef("retry overhead = retransmissions / transport sends; every run is checked with the full semantics battery, so the table doubles as a fault soak.")
	return t
}

// ---- helpers ----------------------------------------------------------------

func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

func maxInt(xs []int) int {
	m := 0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func dedupe(xs []int) []int {
	seen := map[int]bool{}
	var out []int
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

func measurePut(n int, seed uint64) int {
	h := skeap.New(skeap.Config{N: n, P: 1, Seed: seed})
	h.SetAutoRepeat(false)
	h.InjectInsert(n/2, 1, 0, "")
	eng := h.NewSyncEngine()
	h.StartIteration(eng.Context(h.Overlay().Anchor))
	eng.RunQuiescent(h.Done, maxRounds(n))
	return eng.Metrics().Rounds
}

// routeHops routes 400 random points from random virtual nodes of a fresh
// n-process overlay, each spending up to steps de Bruijn steps, and
// returns the mean and the longest path length.
func routeHops(n, steps int, seed uint64) (mean float64, longest int) {
	const routes = 400
	ov := ldb.New(n, hashutil.New(seed))
	rnd := hashutil.NewRand(seed + 1)
	hops := 0
	for i := 0; i < routes; i++ {
		at := sim.NodeID(rnd.Intn(ov.NumVirtual()))
		m := ldb.NewRoute(n, rnd.Float64(), nil)
		m.Hops = steps
		path := 0
		for {
			next, deliver := ldb.RouteStep(ov, ov.Info(at), m)
			if deliver {
				break
			}
			at = next
			path++
		}
		hops += path
		longest = max(longest, path)
	}
	return float64(hops) / routes, longest
}

// injectRandom buffers ops operations at random hosts of be: a 60/40
// insert/delete mix over the priorities [1, bound].
func injectRandom(be relax.Backend, n int, bound uint64, ops int, seed uint64) {
	rnd := hashutil.NewRand(seed)
	id := prio.ElemID(1)
	for i := 0; i < ops; i++ {
		host := rnd.Intn(n)
		if rnd.Bool(0.6) {
			be.InjectInsert(host, id, rnd.Uint64n(bound)+1, "")
			id++
		} else {
			be.InjectDelete(host)
		}
	}
}

// adversarialRow is one protocol row of the adversarial-schedule tables
// (E14, E22): n hosts, an event budget per run, and the seeds of run s —
// seed+s for the heap, a further step for each other seeded stream.
type adversarialRow struct {
	proto         string
	n, seed, step int
	budget        int
}

// heap builds run s of the row — Skeap over 3 classes or Seap over 500
// priorities — with ops random operations buffered.
func (c adversarialRow) heap(s, ops int) relax.Backend {
	be, bound := mustStrict(c.proto, c.n, 3, 500, uint64(c.seed+s))
	injectRandom(be, c.n, bound, ops, uint64(c.seed+c.step+s))
	return be
}

// title capitalizes a protocol name for a table cell.
func title(proto string) string { return strings.ToUpper(proto[:1]) + proto[1:] }

func steadyCentral(n, lambda, horizon int, seed uint64) *sim.Metrics {
	c := newCentralHeap(n)
	gen := workload.New(workload.Config{N: n, Rate: lambda, InsertFrac: 0.6, Dist: workload.Uniform, Bound: 1 << 16, Seed: seed})
	eng := sim.Build(c.spec(seed + 1)).(*sim.SyncEngine)
	for r := 0; r < horizon; r++ {
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
	return eng.Metrics()
}

// drainRounds injects a backlog then measures rounds until all ops done.
func drainRounds(n, lambda, horizon, maxBatch int, seed uint64) int {
	h := skeap.New(skeap.Config{N: n, P: 4, Seed: seed, MaxBatch: maxBatch})
	gen := workload.New(workload.Config{N: n, Rate: lambda, InsertFrac: 0.7, Dist: workload.Uniform, Bound: 4, Seed: seed + 1})
	for r := 0; r < horizon; r++ {
		for _, op := range gen.Round() {
			if op.Kind == workload.OpInsert {
				h.InjectInsert(op.Host, op.ID, int(op.Prio-1), "")
			} else {
				h.InjectDelete(op.Host)
			}
		}
	}
	eng := h.NewSyncEngine()
	eng.RunUntil(h.Done, 10*maxRounds(n)*(lambda*horizon/8+1))
	return eng.Metrics().Rounds
}
