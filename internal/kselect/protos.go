package kselect

import (
	"math"

	"dpq/internal/aggtree"
	"dpq/internal/ldb"
	"dpq/internal/prio"
	"dpq/internal/sim"
)

// sampleParams parameterizes a sampling round (phase 2a or phase 3).
type sampleParams struct {
	N     int64
	Epoch uint64
	Exact bool // phase 3: every candidate is chosen
}

// Bits accounts two integers and a flag.
func (p *sampleParams) Bits() int { return 2*64 + 1 }

// posShare is the scattered position range of the sampling round, carrying
// n′ so every node learns the sample total along with its share.
type posShare struct {
	Lo, Hi int64
	NPrime int64
}

// Bits accounts three integers.
func (p *posShare) Bits() int { return 3 * 64 }

// elemVal is an optional element aggregate (the phase-3 answer).
type elemVal struct {
	E     prio.Element
	Valid bool
}

// Bits accounts the element and the flag.
func (v elemVal) Bits() int { return v.E.Bits() + 1 }

// ---- anchor orchestration -------------------------------------------------

func (s *Selector) anchorNode() *Node { return s.nodes[s.ov.Anchor] }

func (s *Selector) startWindow(ctx *sim.Context) {
	s.col.Phase("ks:p1-window")
	s.phase = phase1Window
	s.anchorNode().runner.Start(ctx, s.ov.Info(s.ov.Anchor), tagWindow, s.nextSeq(), aggtree.IntVal(s.k))
}

func (s *Selector) startPrune(ctx *sim.Context, lo, hi prio.Key, next phase) {
	if next == phase1Prune {
		s.col.Phase("ks:p1-prune")
	} else {
		s.col.Phase("ks:p2-prune")
	}
	s.phase = next
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
		&sampleParams{N: s.n, Epoch: s.epoch, Exact: exact})
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

func (s *Selector) startAnswer(ctx *sim.Context) {
	s.col.Phase("ks:p3-answer")
	s.phase = phase3Answer
	s.anchorNode().runner.Start(ctx, s.ov.Info(s.ov.Anchor), tagAnswer, s.nextSeq(), aggtree.IntVal(s.k))
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

// afterPhase2Prune re-enters the phase decision with the shrunken N.
func (s *Selector) afterPhase2Prune(ctx *sim.Context) {
	s.fullWindow = 0
	s.enterPhase2Or3(ctx)
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
	s.protos.Register(tagAnswer, s.answerProto())
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
			n.ensureSorted()
			k := int64(params.(aggtree.IntVal))
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
		Combine: func(self *ldb.VInfo, seq uint64, params aggtree.Value, own aggtree.Value, kids []aggtree.KidValue) aggtree.Value {
			w := own.(aggtree.KeyRangeVal)
			for _, kv := range kids {
				kw := kv.V.(aggtree.KeyRangeVal)
				w.Lo = prio.MinKeyOf(w.Lo, kw.Lo)
				w.Hi = prio.MaxKeyOf(w.Hi, kw.Hi)
			}
			return w
		},
		AtRoot: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params aggtree.Value, combined aggtree.Value) aggtree.Value {
			w := combined.(aggtree.KeyRangeVal)
			s.startPrune(ctx, w.Lo, w.Hi, phase1Prune)
			return nil
		},
		GatherOnly: true,
	}
}

// pruneProto removes candidates outside the broadcast key window and
// gathers the removal counts (k′ below, k″ above).
func (s *Selector) pruneProto() *aggtree.Proto {
	return &aggtree.Proto{
		Name: "ks-prune",
		Own: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params aggtree.Value) aggtree.Value {
			n := s.nodes[self.ID]
			w := params.(aggtree.KeyRangeVal)
			below, above := n.prune(w.Lo, w.Hi)
			return aggtree.Int2Val{A: below, B: above}
		},
		Combine: func(self *ldb.VInfo, seq uint64, params aggtree.Value, own aggtree.Value, kids []aggtree.KidValue) aggtree.Value {
			t := own.(aggtree.Int2Val)
			for _, kv := range kids {
				k := kv.V.(aggtree.Int2Val)
				t.A += k.A
				t.B += k.B
			}
			return t
		},
		AtRoot: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params aggtree.Value, combined aggtree.Value) aggtree.Value {
			t := combined.(aggtree.Int2Val)
			s.k -= t.A
			s.n -= t.A + t.B
			if s.k < 1 || s.k > s.n {
				panic("kselect: pruned the target rank away")
			}
			switch s.phase {
			case phase1Prune:
				s.afterPhase1Prune(ctx)
			case phase2Prune:
				s.afterPhase2Prune(ctx)
			default:
				panic("kselect: prune completed in unexpected phase")
			}
			return nil
		},
		GatherOnly: true,
	}
}

// sampleProto: phase 2a + 2b start — sample candidates, gather the count
// n′, scatter unique positions [1, n′] and route each sampled candidate to
// its sorting root.
func (s *Selector) sampleProto() *aggtree.Proto {
	return &aggtree.Proto{
		Name: "ks-sample",
		Own: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params aggtree.Value) aggtree.Value {
			n := s.nodes[self.ID]
			p := params.(*sampleParams)
			n.resetEpoch(p.Epoch)
			var chosen []prio.Element
			if p.Exact {
				chosen = append(chosen, n.cand...)
			} else {
				// 2√n samples in expectation over the n processes
				// (Lemmas 4.5–4.7 need Θ(√n)); the constant 2 keeps the
				// sample comfortably above the 2δ window width.
				prob := 2 * math.Sqrt(float64(s.ov.N)) / float64(p.N)
				if prob > 1 {
					prob = 1
				}
				for _, e := range n.cand {
					if ctx.Rand().Bool(prob) {
						chosen = append(chosen, e)
					}
				}
			}
			n.sampleBuf[seq] = chosen
			return aggtree.IntVal(len(chosen))
		},
		Combine: func(self *ldb.VInfo, seq uint64, params aggtree.Value, own aggtree.Value, kids []aggtree.KidValue) aggtree.Value {
			t := own.(aggtree.IntVal)
			for _, kv := range kids {
				t += kv.V.(aggtree.IntVal)
			}
			return t
		},
		AtRoot: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params aggtree.Value, combined aggtree.Value) aggtree.Value {
			nPrime := int64(combined.(aggtree.IntVal))
			if nPrime == 0 {
				// Empty sample (possible for tiny N): retry the round.
				s.result.Retries++
				s.startSample(ctx, s.exact)
				return nil
			}
			s.nPrime = nPrime
			s.tables.reset(nPrime)
			return &posShare{Lo: 1, Hi: nPrime, NPrime: nPrime}
		},
		Split: func(self *ldb.VInfo, seq uint64, params aggtree.Value, down aggtree.Value, own aggtree.Value, kids []aggtree.KidValue) (aggtree.Value, []aggtree.Value) {
			iv := down.(*posShare)
			lo := iv.Lo
			ownPart := &posShare{Lo: lo, Hi: lo + int64(own.(aggtree.IntVal)) - 1, NPrime: iv.NPrime}
			lo = ownPart.Hi + 1
			parts := make([]aggtree.Value, len(kids))
			for i, kv := range kids {
				c := int64(kv.V.(aggtree.IntVal))
				parts[i] = &posShare{Lo: lo, Hi: lo + c - 1, NPrime: iv.NPrime}
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
			chosen := n.sampleBuf[seq]
			delete(n.sampleBuf, seq)
			if int64(len(chosen)) != iv.Hi-iv.Lo+1 {
				panic("kselect: position share does not match sample count")
			}
			n.unordered = int64(len(chosen))
			for i, e := range chosen {
				pos := iv.Lo + int64(i)
				msg := &SampleRootMsg{Epoch: p.Epoch, Pos: pos, NPrime: iv.NPrime, Elem: e, Issuer: self.ID}
				route := ldb.NewRoute(s.ov.N, s.rootPoint(p.Epoch, pos), msg)
				if ldb.Forward(ctx, s.ov, self, route) {
					n.HandleRouted(ctx, self, msg)
				}
			}
			n.issued, n.sortSeq = int64(len(chosen)), seq
			n.maybeDone(ctx, self)
		},
	}
}

// doneProto is the convergecast that ends a sort: a node contributes the
// number of candidates it issued once each of their sorting roots has
// reported its order (Node.maybeDone), and the anchor learns that all n′
// candidates are ordered one tree height after the last of them.
func (s *Selector) doneProto() *aggtree.Proto {
	return &aggtree.Proto{
		Name: "ks-done",
		Combine: func(self *ldb.VInfo, seq uint64, params aggtree.Value, own aggtree.Value, kids []aggtree.KidValue) aggtree.Value {
			t := own.(aggtree.IntVal)
			for _, kv := range kids {
				t += kv.V.(aggtree.IntVal)
			}
			return t
		},
		AtRoot: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params aggtree.Value, combined aggtree.Value) aggtree.Value {
			if int64(combined.(aggtree.IntVal)) != s.nPrime {
				panic("kselect: sort ended with a count other than n′")
			}
			if s.phase == phase3Sort {
				s.startAnswer(ctx)
				return nil
			}
			s.chooseWindow(ctx)
			return nil
		},
		GatherOnly: true,
	}
}

// chooseWindow is phase 2c on the ordered sample: it picks the boundary
// orders l and r around kn′/N and fetches their candidates.
func (s *Selector) chooseWindow(ctx *sim.Context) {
	center := float64(s.k) * float64(s.nPrime) / float64(s.n)
	s.lOrder = int64(math.Floor(center - s.window))
	s.rOrder = int64(math.Ceil(center + s.window))
	if s.lOrder < 1 && s.rOrder > s.nPrime {
		// The window spans every sample — an unluckily small draw,
		// a δ too wide for this scale, or a window widened past the
		// sample by failed rank checks. Resample while the candidate
		// set is still large (the exact phase costs Θ(N²)
		// comparisons), with a smaller δ unless failures widened
		// this window; otherwise go exact. The count of resamples
		// is capped.
		if s.n > 8*s.sqrtN() && s.fullWindow < 4 {
			s.fullWindow++
			s.result.Retries++
			if s.delta > 1 && s.window == s.delta {
				s.delta /= 2
			}
			s.startSample(ctx, false)
			return
		}
		s.startSample(ctx, true)
		return
	}
	s.startBoundary(ctx)
}

// boundaryProto fetches the keys of the samples of order l and r.
func (s *Selector) boundaryProto() *aggtree.Proto {
	return &aggtree.Proto{
		Name: "ks-boundary",
		Own: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params aggtree.Value) aggtree.Value {
			n := s.nodes[self.ID]
			lr := params.(aggtree.Int2Val)
			out := aggtree.KeyRangeVal{Lo: prio.MaxKey, Hi: prio.MinKey} // "none" sentinels
			if rt := n.orderedRoot(self.ID, lr.A); rt != nil {
				out.Lo = prio.KeyOf(rt.elem)
			}
			if rt := n.orderedRoot(self.ID, lr.B); rt != nil {
				out.Hi = prio.KeyOf(rt.elem)
			}
			return out
		},
		Combine: func(self *ldb.VInfo, seq uint64, params aggtree.Value, own aggtree.Value, kids []aggtree.KidValue) aggtree.Value {
			w := own.(aggtree.KeyRangeVal)
			for _, kv := range kids {
				kw := kv.V.(aggtree.KeyRangeVal)
				w.Lo = prio.MinKeyOf(w.Lo, kw.Lo)
				w.Hi = prio.MaxKeyOf(w.Hi, kw.Hi)
			}
			return w
		},
		AtRoot: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params aggtree.Value, combined aggtree.Value) aggtree.Value {
			w := combined.(aggtree.KeyRangeVal)
			s.haveCl = s.lOrder >= 1
			s.haveCr = s.rOrder <= s.nPrime
			s.clKey, s.crKey = prio.MinKey, prio.MaxKey
			if s.haveCl {
				if w.Lo == prio.MaxKey {
					panic("kselect: sample of order l not found")
				}
				s.clKey = w.Lo
			}
			if s.haveCr {
				if w.Hi == prio.MinKey {
					panic("kselect: sample of order r not found")
				}
				s.crKey = w.Hi
			}
			s.startRank(ctx)
			return nil
		},
		GatherOnly: true,
	}
}

// rankProto computes the exact ranks of c_l and c_r by counting smaller
// candidates, then validates rank(c_l) ≤ k ≤ rank(c_r) before pruning.
func (s *Selector) rankProto() *aggtree.Proto {
	return &aggtree.Proto{
		Name: "ks-rank",
		Own: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params aggtree.Value) aggtree.Value {
			n := s.nodes[self.ID]
			w := params.(aggtree.KeyRangeVal)
			return aggtree.Int2Val{A: n.countLess(w.Lo), B: n.countLess(w.Hi)}
		},
		Combine: func(self *ldb.VInfo, seq uint64, params aggtree.Value, own aggtree.Value, kids []aggtree.KidValue) aggtree.Value {
			t := own.(aggtree.Int2Val)
			for _, kv := range kids {
				k := kv.V.(aggtree.Int2Val)
				t.A += k.A
				t.B += k.B
			}
			return t
		},
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
				s.chooseWindow(ctx)
				return nil
			}
			s.startPrune(ctx, s.clKey, s.crKey, phase2Prune)
			return nil
		},
		GatherOnly: true,
	}
}

// answerProto (phase 3): fetch the element whose exact order is k.
func (s *Selector) answerProto() *aggtree.Proto {
	return &aggtree.Proto{
		Name: "ks-answer",
		Own: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params aggtree.Value) aggtree.Value {
			n := s.nodes[self.ID]
			k := int64(params.(aggtree.IntVal))
			if rt := n.orderedRoot(self.ID, k); rt != nil {
				return elemVal{E: rt.elem, Valid: true}
			}
			return elemVal{}
		},
		Combine: func(self *ldb.VInfo, seq uint64, params aggtree.Value, own aggtree.Value, kids []aggtree.KidValue) aggtree.Value {
			v := own.(elemVal)
			for _, kv := range kids {
				if kw := kv.V.(elemVal); kw.Valid {
					v = kw
				}
			}
			return v
		},
		AtRoot: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params aggtree.Value, combined aggtree.Value) aggtree.Value {
			v := combined.(elemVal)
			if !v.Valid {
				panic("kselect: no candidate has the target order")
			}
			s.result.Elem = v.E
			s.result.Found = true
			s.result.Phase2Iters = s.p2Iter
			s.phase = phaseDone
			s.tables = sortTables{} // release the n′² tables between selections
			if s.onDone != nil {
				s.onDone(ctx, s.result)
			}
			return nil
		},
		GatherOnly: true,
	}
}
