package kselect

import (
	"math"

	"dpq/internal/aggtree"
	"dpq/internal/ldb"
	"dpq/internal/prio"
	"dpq/internal/sim"
)

// windowParams parameterizes a phase-1 window instance: the target rank,
// and First on the selection's first start.
type windowParams struct {
	K     int64
	First bool
}

// Bits accounts an integer and a flag.
func (p *windowParams) Bits() int { return 64 + 1 }

// sampleParams parameterizes a sampling round (phase 2a or phase 3). Lo
// and Hi are the key window of the last passed rank check: every node
// prunes its candidates to it before sampling, and N already counts the
// candidates left inside it. First marks the selection's first start.
type sampleParams struct {
	N      int64
	Epoch  uint64
	Exact  bool // phase 3: every candidate is chosen
	First  bool
	Lo, Hi prio.Key
}

// Bits accounts two integers, two flags and two keys.
func (p *sampleParams) Bits() int { return 2*64 + 2 + p.Lo.Bits() + p.Hi.Bits() }

// posShare is the scattered position range of the sampling round, carrying
// n′ so every node learns the sample total along with its share, and the
// orders whose candidates the done convergecast brings to the anchor: l
// and r in phase 2, k (as L, with R = 0) in phase 3. NPrime = 0 marks an
// abandoned sample, whose positions every node ignores.
type posShare struct {
	Lo, Hi int64
	NPrime int64
	L, R   int64
}

// Bits accounts five integers.
func (p *posShare) Bits() int { return 5 * 64 }

// doneVal is a done-convergecast contribution: the candidates a subtree
// issued and, among them, the keys of those of order l and r (MaxKey and
// MinKey when the subtree issued neither), or in phase 3 the candidate of
// order k.
type doneVal struct {
	Issued int64
	Lo, Hi prio.Key
	Ans    prio.Element
	HasAns bool
}

// Bits accounts the count, a flag and either the answer (phase 3) or the
// two keys (phase 2): a value carries one or the other.
func (v doneVal) Bits() int {
	if v.HasAns {
		return 64 + 1 + v.Ans.Bits()
	}
	return 64 + 1 + v.Lo.Bits() + v.Hi.Bits()
}

// noneDone is the neutral done contribution.
var noneDone = doneVal{Lo: prio.MaxKey, Hi: prio.MinKey}

// ---- anchor orchestration -------------------------------------------------

func (s *Selector) anchorNode() *Node { return s.nodes[s.ov.Anchor] }

func (s *Selector) startWindow(ctx *sim.Context) {
	s.col.Phase("ks:p1-window")
	s.phase = phase1Window
	s.anchorNode().runner.Start(ctx, s.ov.Info(s.ov.Anchor), tagWindow, s.nextSeq(), &windowParams{K: s.k, First: s.takeFirst()})
}

// startPrune starts phase 1's prune: its window is gathered, so the counts
// it removes are not known until they are gathered too.
func (s *Selector) startPrune(ctx *sim.Context, lo, hi prio.Key) {
	s.col.Phase("ks:p1-prune")
	s.phase = phase1Prune
	s.anchorNode().runner.Start(ctx, s.ov.Info(s.ov.Anchor), tagPrune, s.nextSeq(),
		aggtree.KeyRangeVal{Lo: lo, Hi: hi})
}

func (s *Selector) startSample(ctx *sim.Context, exact bool) {
	s.exact = exact
	s.epoch++
	s.window = s.delta
	if exact {
		s.col.Phase("ks:p3-sort")
		s.phase = phase3Sort
		s.result.CandidatesAtP3 = s.n
	} else {
		s.col.Phase("ks:p2-sort")
		s.phase = phase2Sort
	}
	s.anchorNode().runner.Start(ctx, s.ov.Info(s.ov.Anchor), tagSample, s.nextSeq(),
		&sampleParams{N: s.n, Epoch: s.epoch, Exact: exact, First: s.takeFirst(), Lo: s.lo, Hi: s.hi})
}

// takeFirst reports whether the instance being started is the selection's
// first: it reaches every node, installs the candidates (SetLoad) and
// resets the masks of the subtrees holding them (Node.begin).
func (s *Selector) takeFirst() bool {
	first := s.first
	s.first = false
	return first
}

func (s *Selector) startBoundary(ctx *sim.Context) {
	s.col.Phase("ks:p2-boundary")
	s.phase = phase2Boundary
	s.anchorNode().runner.Start(ctx, s.ov.Info(s.ov.Anchor), tagBoundary, s.nextSeq(),
		aggtree.Int2Val{A: s.lOrder, B: s.rOrder})
}

func (s *Selector) startRank(ctx *sim.Context) {
	s.col.Phase("ks:p2-rank")
	s.phase = phase2Rank
	s.anchorNode().runner.Start(ctx, s.ov.Info(s.ov.Anchor), tagRank, s.nextSeq(),
		aggtree.KeyRangeVal{Lo: s.clKey, Hi: s.crKey})
}

// afterPhase1Prune decides between another phase-1 iteration, phase 2 and
// phase 3.
func (s *Selector) afterPhase1Prune(ctx *sim.Context) {
	s.p1Iter++
	if s.p1Iter < s.maxP1Iters() {
		s.startWindow(ctx)
		return
	}
	s.result.CandidatesAfterP1 = s.n
	s.enterPhase2Or3(ctx)
}

func (s *Selector) enterPhase2Or3(ctx *sim.Context) {
	// Phase 2 repeats until N ≤ √n (Algorithm 2); at simulation scales δ
	// can stop shrinking the window, so a bounded iteration count and a
	// progress check guard the switch to the exact phase.
	if s.n <= 2*s.sqrtN() || s.n <= 8 || s.p2Iter >= 12 {
		s.startSample(ctx, true)
		return
	}
	s.p2Iter++
	s.startSample(ctx, false)
}

// placeWindow picks the boundary orders l and r of the current window
// around kn′/N on the ordered sample.
func (s *Selector) placeWindow() {
	center := float64(s.k) * float64(s.nPrime) / float64(s.n)
	s.lOrder = int64(math.Floor(center - s.window))
	s.rOrder = int64(math.Ceil(center + s.window))
}

// resampleIfFull handles a window that spans every sample — an unluckily
// small draw or a δ too wide for this scale, found before the sample is
// sorted, or a window widened past the sample by failed rank checks — and
// reports whether it did. It resamples
// while the candidate set is still large (the exact phase costs Θ(N²)
// comparisons), with a smaller δ unless failures widened this window;
// otherwise it goes exact. The count of resamples is capped.
func (s *Selector) resampleIfFull(ctx *sim.Context) bool {
	if s.lOrder >= 1 || s.rOrder <= s.nPrime {
		return false
	}
	if s.n > 8*s.sqrtN() && s.fullWindow < 4 {
		s.fullWindow++
		s.result.Retries++
		if s.delta > 1 && s.window == s.delta {
			s.delta /= 2
		}
		s.startSample(ctx, false)
		return true
	}
	s.startSample(ctx, true)
	return true
}

// checkBoundary is phase 2c's rank check: it takes the keys of the samples
// of order l and r (MaxKey and MinKey where the anchor heard none) and
// starts the instance that computes their exact ranks.
func (s *Selector) checkBoundary(ctx *sim.Context, lo, hi prio.Key) {
	s.haveCl = s.lOrder >= 1
	s.haveCr = s.rOrder <= s.nPrime
	s.clKey, s.crKey = prio.MinKey, prio.MaxKey
	if s.haveCl {
		if lo == prio.MaxKey {
			panic("kselect: sample of order l not found")
		}
		s.clKey = lo
	}
	if s.haveCr {
		if hi == prio.MinKey {
			panic("kselect: sample of order r not found")
		}
		s.crKey = hi
	}
	s.startRank(ctx)
}

// finish records the answer and ends the selection.
func (s *Selector) finish(ctx *sim.Context, e prio.Element) {
	s.result.Elem = e
	s.result.Found = true
	s.result.Phase2Iters = s.p2Iter
	s.phase = phaseDone
	s.tables = sortTables{} // release the n′² tables between selections
	if s.onDone != nil {
		s.onDone(ctx, s.result)
	}
}

// ---- protos ---------------------------------------------------------------

// register builds the selector's protocol table, once for all of its
// nodes.
func (s *Selector) register() {
	s.protos.Register(tagWindow, s.windowProto())
	s.protos.Register(tagPrune, s.pruneProto())
	s.protos.Register(tagSample, s.sampleProto())
	s.protos.Register(tagDone, s.doneProto())
	s.protos.Register(tagBoundary, s.boundaryProto())
	s.protos.Register(tagRank, s.rankProto())
}

// windowProto: phase 1 — gather P_min = min_v v.P_min and
// P_max = max_v v.P_max, where v.P_min/v.P_max are the keys of the
// ⌊k/n⌋-th / ⌈k/n⌉-th smallest local candidates, with the conservative
// boundary contributions discussed in DESIGN.md.
func (s *Selector) windowProto() *aggtree.Proto {
	return &aggtree.Proto{
		Name: "ks-window",
		Own: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params aggtree.Value) aggtree.Value {
			n := s.nodes[self.ID]
			p := params.(*windowParams)
			if p.First {
				n.begin(ctx, self)
			}
			n.ensureSorted()
			k := p.K
			nv := int64(s.ov.NumVirtual())
			c := int64(len(n.cand))
			loIdx := k / nv // ⌊k/n⌋
			hiIdx := k / nv
			if k%nv != 0 {
				hiIdx++ // ⌈k/n⌉
			}
			pmin := prio.MaxKey // neutral for the min-aggregation
			if loIdx < 1 {
				pmin = prio.MinKey // conservative: no lower pruning
			} else if loIdx <= c {
				pmin = prio.KeyOf(n.cand[loIdx-1])
			}
			pmax := prio.MaxKey // conservative: no upper pruning
			if hiIdx >= 1 && hiIdx <= c {
				pmax = prio.KeyOf(n.cand[hiIdx-1])
			}
			return aggtree.KeyRangeVal{Lo: pmin, Hi: pmax}
		},
		Combine: aggtree.KeyHull,
		AtRoot: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params aggtree.Value, combined aggtree.Value) aggtree.Value {
			w := combined.(aggtree.KeyRangeVal)
			s.startPrune(ctx, w.Lo, w.Hi)
			return nil
		},
	}
}

// pruneProto (phase 1) removes candidates outside the broadcast key window
// and gathers the removal counts (k′ below, k″ above). Phase 2 prunes
// without it: its window's counts follow from the exact ranks, and nodes
// prune at the next sample's start.
func (s *Selector) pruneProto() *aggtree.Proto {
	return &aggtree.Proto{
		Name: "ks-prune",
		Own: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params aggtree.Value) aggtree.Value {
			n := s.nodes[self.ID]
			w := params.(aggtree.KeyRangeVal)
			below, above := n.prune(w.Lo, w.Hi)
			return aggtree.Int2Val{A: below, B: above}
		},
		Combine: aggtree.SumInt2,
		AtRoot: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params aggtree.Value, combined aggtree.Value) aggtree.Value {
			t := combined.(aggtree.Int2Val)
			s.k -= t.A
			s.n -= t.A + t.B
			if s.k < 1 || s.k > s.n {
				panic("kselect: pruned the target rank away")
			}
			if s.phase != phase1Prune {
				panic("kselect: prune completed in unexpected phase")
			}
			s.afterPhase1Prune(ctx)
			return nil
		},
	}
}

// sampleProto: phase 2a + 2b start — prune to the last checked window,
// sample candidates, gather the count n′ with the candidates left, scatter
// unique positions [1, n′] with the orders the done convergecast reports,
// and route each sampled candidate to its sorting root. An empty sample,
// or one the δ window spans, is abandoned: its scatter carries NPrime = 0
// and routes nothing.
//
// The gather tells every node which of its subtrees still hold candidates
// (Node.candKids: candidates only shrink within a selection, so the next
// sample, rank and boundary instances skip the others) and which issued
// samples (Node.issuerKids: only those get a share of the scatter and join
// the done convergecast). A subtree that drew nothing drops the instance
// once its up is sent.
func (s *Selector) sampleProto() *aggtree.Proto {
	return &aggtree.Proto{
		Name: "ks-sample",
		Kids: func(self *ldb.VInfo, seq uint64, params aggtree.Value) aggtree.Mask {
			if params.(*sampleParams).First {
				return aggtree.AllKids
			}
			return s.nodes[self.ID].candKids
		},
		NoShare: func(up aggtree.Value) bool { return up.(aggtree.Int2Val).A == 0 },
		Own: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params aggtree.Value) aggtree.Value {
			n := s.nodes[self.ID]
			p := params.(*sampleParams)
			if p.First {
				n.begin(ctx, self)
			}
			n.epoch = p.Epoch
			if p.Lo != prio.MinKey || p.Hi != prio.MaxKey {
				n.prune(p.Lo, p.Hi)
			}
			n.sample = n.sample[:0]
			prob := min(sampleSize(s.ov.N)/float64(p.N), 1)
			for _, e := range n.cand {
				if p.Exact || ctx.Rand().Bool(prob) {
					n.sample = append(n.sample, sampled{elem: e})
				}
			}
			return aggtree.Int2Val{A: int64(len(n.sample)), B: int64(len(n.cand))}
		},
		Combine: func(self *ldb.VInfo, seq uint64, params aggtree.Value, own aggtree.Value, kids []aggtree.KidValue) aggtree.Value {
			n := s.nodes[self.ID]
			n.candKids = aggtree.KidsWhere(self, kids, func(v aggtree.Value) bool { return v.(aggtree.Int2Val).B > 0 })
			n.issuerKids = aggtree.KidsWhere(self, kids, func(v aggtree.Value) bool { return v.(aggtree.Int2Val).A > 0 })
			return aggtree.SumInt2(self, seq, params, own, kids)
		},
		AtRoot: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params aggtree.Value, combined aggtree.Value) aggtree.Value {
			t := combined.(aggtree.Int2Val)
			if t.B != s.n {
				panic("kselect: the nodes hold a candidate count other than N")
			}
			nPrime := t.A
			if nPrime == 0 {
				if s.exact {
					panic("kselect: the exact phase drew no candidates")
				}
				// Empty sample (possible for tiny N): retry the round.
				s.result.Retries++
				s.startSample(ctx, false)
				return &posShare{Lo: 1, Hi: 0}
			}
			s.nPrime = nPrime
			if s.exact {
				s.tables.reset(nPrime)
				return &posShare{Lo: 1, Hi: nPrime, NPrime: nPrime, L: s.k}
			}
			s.placeWindow()
			if s.resampleIfFull(ctx) {
				return &posShare{Lo: 1, Hi: nPrime}
			}
			s.tables.reset(nPrime)
			return &posShare{Lo: 1, Hi: nPrime, NPrime: nPrime, L: s.lOrder, R: s.rOrder}
		},
		Split: func(self *ldb.VInfo, seq uint64, params aggtree.Value, down aggtree.Value, own aggtree.Value, kids []aggtree.KidValue) (aggtree.Value, []aggtree.Value) {
			iv := down.(*posShare)
			part := func(lo, c int64) *posShare {
				return &posShare{Lo: lo, Hi: lo + c - 1, NPrime: iv.NPrime, L: iv.L, R: iv.R}
			}
			ownPart := part(iv.Lo, own.(aggtree.Int2Val).A)
			lo := ownPart.Hi + 1
			parts := make([]aggtree.Value, len(kids))
			for i, kv := range kids {
				c := kv.V.(aggtree.Int2Val).A
				parts[i] = part(lo, c)
				lo += c
			}
			if lo != iv.Hi+1 {
				panic("kselect: position decomposition does not cover")
			}
			return ownPart, parts
		},
		OnOwn: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params aggtree.Value, ownPart aggtree.Value) {
			n := s.nodes[self.ID]
			p := params.(*sampleParams)
			iv := ownPart.(*posShare)
			if iv.NPrime == 0 {
				return
			}
			if int64(len(n.sample)) != iv.Hi-iv.Lo+1 {
				panic("kselect: position share does not match sample count")
			}
			n.samplePos, n.exact, n.ordL, n.ordR = iv.Lo, p.Exact, iv.L, iv.R
			n.done = noneDone
			n.unordered = int64(len(n.sample))
			for i, c := range n.sample {
				pos := iv.Lo + int64(i)
				msg := &SampleRootMsg{Epoch: p.Epoch, Pos: pos, NPrime: iv.NPrime, Elem: c.elem, Issuer: self.ID}
				route := ldb.NewRoute(s.ov.N, s.rootPoint(p.Epoch, pos), msg)
				if ldb.Forward(ctx, s.ov, self, route) {
					n.HandleRouted(ctx, self, msg)
				}
			}
			n.done.Issued, n.sortSeq = int64(len(n.sample)), seq
			n.maybeDone(ctx, self)
		},
	}
}

// sampleSize is phase 2's expected sample n′ over n processes: √n + 3.
// Lemmas 4.5–4.7 need Θ(√n); the +3 keeps small trees from drawing
// samples that the 2δ window always spans.
func sampleSize(n int) float64 { return math.Sqrt(float64(n)) + 3 }

// doneProto is the convergecast that ends a sort: a node contributes the
// number of candidates it issued, with the keys of those of order l and r
// (phase 3: the candidate of order k), once each of their sorting roots has
// reported its order (Node.maybeDone). It runs on the subtrees that issued
// samples (Node.issuerKids). The anchor learns that all n′ candidates are
// ordered one tree height after the last of them, and goes straight to the
// rank check, or finishes.
func (s *Selector) doneProto() *aggtree.Proto {
	return &aggtree.Proto{
		Name: "ks-done",
		Kids: func(self *ldb.VInfo, seq uint64, params aggtree.Value) aggtree.Mask {
			return s.nodes[self.ID].issuerKids
		},
		Combine: func(self *ldb.VInfo, seq uint64, params aggtree.Value, own aggtree.Value, kids []aggtree.KidValue) aggtree.Value {
			t := own.(doneVal)
			for _, kv := range kids {
				k := kv.V.(doneVal)
				t.Issued += k.Issued
				t.Lo = prio.MinKeyOf(t.Lo, k.Lo)
				t.Hi = prio.MaxKeyOf(t.Hi, k.Hi)
				if k.HasAns {
					t.Ans, t.HasAns = k.Ans, true
				}
			}
			return t
		},
		AtRoot: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params aggtree.Value, combined aggtree.Value) aggtree.Value {
			v := combined.(doneVal)
			if v.Issued != s.nPrime {
				panic("kselect: sort ended with a count other than n′")
			}
			if s.phase == phase3Sort {
				if !v.HasAns {
					panic("kselect: no candidate has the target order")
				}
				s.finish(ctx, v.Ans)
				return nil
			}
			s.checkBoundary(ctx, v.Lo, v.Hi)
			return nil
		},
	}
}

// boundaryProto fetches the keys of the samples of order l and r from
// the nodes that issued them, on the subtrees that issued samples
// (Node.issuerKids). Only a failed rank check needs it: the done
// convergecast reports the first window's boundaries.
func (s *Selector) boundaryProto() *aggtree.Proto {
	return &aggtree.Proto{
		Name: "ks-boundary",
		Kids: func(self *ldb.VInfo, seq uint64, params aggtree.Value) aggtree.Mask {
			return s.nodes[self.ID].issuerKids
		},
		Own: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params aggtree.Value) aggtree.Value {
			n := s.nodes[self.ID]
			lr := params.(aggtree.Int2Val)
			out := aggtree.KeyRangeVal{Lo: prio.MaxKey, Hi: prio.MinKey} // "none" sentinels
			if e, ok := n.issued(lr.A); ok {
				out.Lo = prio.KeyOf(e)
			}
			if e, ok := n.issued(lr.B); ok {
				out.Hi = prio.KeyOf(e)
			}
			return out
		},
		Combine: aggtree.KeyHull,
		AtRoot: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params aggtree.Value, combined aggtree.Value) aggtree.Value {
			w := combined.(aggtree.KeyRangeVal)
			s.checkBoundary(ctx, w.Lo, w.Hi)
			return nil
		},
	}
}

// rankProto computes the exact ranks of c_l and c_r by counting smaller
// candidates, on the subtrees that hold candidates (Node.candKids), and
// validates rank(c_l) ≤ k ≤ rank(c_r). The ranks fix the prune counts —
// rank(c_l)−1 below, N−rank(c_r) above — so the anchor updates k and N
// here, and the next sample's start carries the window.
func (s *Selector) rankProto() *aggtree.Proto {
	return &aggtree.Proto{
		Name: "ks-rank",
		Kids: func(self *ldb.VInfo, seq uint64, params aggtree.Value) aggtree.Mask {
			return s.nodes[self.ID].candKids
		},
		Own: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params aggtree.Value) aggtree.Value {
			n := s.nodes[self.ID]
			w := params.(aggtree.KeyRangeVal)
			return aggtree.Int2Val{A: n.countLess(w.Lo), B: n.countLess(w.Hi)}
		},
		Combine: aggtree.SumInt2,
		AtRoot: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params aggtree.Value, combined aggtree.Value) aggtree.Value {
			t := combined.(aggtree.Int2Val)
			rankCl, rankCr := t.A+1, t.B+1
			okLeft := !s.haveCl || rankCl <= s.k
			okRight := !s.haveCr || s.k <= rankCr
			if !okLeft || !okRight {
				// Lemma 4.6's low-probability failure: double this
				// window's δ and retry on the same sample, whose roots
				// keep their orders until the next sort.
				s.window *= 2
				s.result.Retries++
				s.placeWindow()
				if !s.resampleIfFull(ctx) {
					s.startBoundary(ctx)
				}
				return nil
			}
			var below, above int64
			if s.haveCl {
				below = rankCl - 1
			}
			if s.haveCr {
				above = s.n - rankCr
			}
			s.k -= below
			s.n -= below + above
			if s.k < 1 || s.k > s.n {
				panic("kselect: pruned the target rank away")
			}
			s.lo, s.hi = s.clKey, s.crKey
			s.fullWindow = 0
			s.enterPhase2Or3(ctx)
			return nil
		},
	}
}
