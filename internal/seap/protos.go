package seap

import (
	"dpq/internal/aggtree"
	"dpq/internal/kselect"
	"dpq/internal/ldb"
	"dpq/internal/prio"
	"dpq/internal/semantics"
	"dpq/internal/sim"
)

// valShare is a scattered interval of serialization values or positions.
type valShare struct {
	Lo, Hi int64
	Cycle  uint64
	KStar  int64 // delete phase: positions beyond KStar return ⊥
}

// Bits accounts four integers.
func (v *valShare) Bits() int { return 4 * 64 }

// assignParams broadcasts the delete phase's extraction threshold.
type assignParams struct {
	Cycle     uint64
	Threshold prio.Key
}

// Bits accounts the cycle and the key.
func (p *assignParams) Bits() int { return 64 + 128 }

// register builds the heap's protocol table, once for all of its nodes.
func (h *Heap) register() {
	h.protos.Register(tagInsCount, h.insCountProto())
	h.protos.Register(tagInsStore, h.completionProto("seap-ins-store", &h.k, h.startDelCount))
	h.protos.Register(tagDelCount, h.delCountProto())
	h.protos.Register(tagLoad, h.loadProto())
	h.protos.Register(tagAssign, h.assignProto())
	h.protos.Register(tagDelFetch, h.completionProto("seap-del-fetch", &h.kStar, h.endCycle))
}

// ---- anchor sequencing ------------------------------------------------------

func (h *Heap) anchorNode() *Node { return h.nodes[h.ov.Anchor] }

func (h *Heap) start(ctx *sim.Context, tag aggtree.Tag, params aggtree.Value) {
	h.col.Phase(phaseName(tag))
	h.anchorNode().runner.Start(ctx, h.ov.Info(h.ov.Anchor), tag, h.nextSeq(), params)
}

// await marks the wait for tag's completion convergecast, which the nodes
// begin themselves (Node.settle).
func (h *Heap) await(tag aggtree.Tag) { h.col.Phase(phaseName(tag)) }

// phaseName maps an aggtree tag to its timeline phase name (§5's cycle
// structure as seen by the anchor).
func phaseName(tag aggtree.Tag) string {
	switch tag {
	case tagInsCount:
		return "seap:ins-count"
	case tagInsStore:
		return "seap:ins-store"
	case tagDelCount:
		return "seap:del-count"
	case tagLoad:
		return "seap:load"
	case tagAssign:
		return "seap:assign"
	case tagDelFetch:
		return "seap:del-fetch"
	}
	return "seap:other"
}

func (h *Heap) startInsCount(ctx *sim.Context) { h.start(ctx, tagInsCount, nil) }
func (h *Heap) startDelCount(ctx *sim.Context) { h.start(ctx, tagDelCount, nil) }
func (h *Heap) startLoad(ctx *sim.Context)     { h.start(ctx, tagLoad, nil) }

func (h *Heap) startAssign(ctx *sim.Context) {
	h.start(ctx, tagAssign, &assignParams{Cycle: h.cycle, Threshold: h.threshold})
}

// onSelectDone chains the delete phase after KSelect found the rank-k*
// element: its key is the extraction threshold.
func (h *Heap) onSelectDone(ctx *sim.Context, res kselect.Result) {
	if !res.Found {
		panic("seap: selection failed")
	}
	h.threshold = prio.KeyOf(res.Elem)
	h.startAssign(ctx)
}

// ---- protos -----------------------------------------------------------------

// insCountProto: aggregate the number of buffered inserts (§5.1), update
// v₀.m, and scatter serialization-value intervals as the go-ahead.
func (h *Heap) insCountProto() *aggtree.Proto {
	return &aggtree.Proto{
		Name: "seap-ins-count",
		Own: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params aggtree.Value) aggtree.Value {
			n := h.nodes[self.ID]
			n.mu.Lock()
			var snap []pendingOp
			if h.cfg.SeqConsistent {
				// §6 variant: only the oldest buffered op is eligible, and
				// only if it is an Insert.
				if len(n.seqBuf) > 0 && n.seqBuf[0].kind == semantics.Insert {
					snap = []pendingOp{n.seqBuf[0]}
					n.seqBuf = n.seqBuf[1:]
				}
			} else {
				snap = n.insBuf
				n.insBuf = nil
			}
			n.mu.Unlock()
			// Empty snapshots are not stored: OnOwn reads a missing entry
			// as nil, and idle nodes never allocate the map.
			if len(snap) > 0 {
				if n.insSnap == nil {
					n.insSnap = make(map[uint64][]pendingOp)
				}
				n.insSnap[seq] = snap
			}
			return aggtree.IntVal(len(snap))
		},
		Combine: sumCombine,
		AtRoot: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params aggtree.Value, combined aggtree.Value) aggtree.Value {
			k := int64(combined.(aggtree.IntVal))
			h.k = k
			h.m += k
			base := h.valueCounter
			h.valueCounter += k
			// The delete phase starts once every store is confirmed.
			h.await(tagInsStore)
			return &valShare{Lo: base, Hi: base + k - 1, Cycle: h.cycle}
		},
		Split: splitByCounts,
		OnOwn: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params aggtree.Value, ownPart aggtree.Value) {
			n := h.nodes[self.ID]
			share := ownPart.(*valShare)
			snap := n.insSnap[seq]
			delete(n.insSnap, seq)
			if int64(len(snap)) != share.Hi-share.Lo+1 {
				panic("seap: insert value share does not match snapshot")
			}
			n.puts.cycle = share.Cycle
			n.puts.out += len(snap)
			for i, po := range snap {
				h.trace.Complete(po.op, prio.Element{}, share.Lo+int64(i))
				key := ctx.Rand().Uint64() // uniformly random DHT key (§5.1)
				n.store.Put(ctx, self, key, po.elem, func() { n.puts.out--; n.puts.done++ })
			}
			n.settle(ctx, self, tagInsStore, &n.puts)
		},
	}
}

// delCountProto: aggregate the number of buffered deletes, assign each a
// unique position in [1,d] (positions beyond k* = min(d, m) return ⊥) and
// issue the Gets — they park at the responsible nodes until the assign
// phase stores the extracted elements (§3.2.4 asynchrony rule).
func (h *Heap) delCountProto() *aggtree.Proto {
	return &aggtree.Proto{
		Name: "seap-del-count",
		Own: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params aggtree.Value) aggtree.Value {
			n := h.nodes[self.ID]
			n.mu.Lock()
			var snap []pendingOp
			if h.cfg.SeqConsistent {
				if len(n.seqBuf) > 0 && n.seqBuf[0].kind == semantics.DeleteMin {
					snap = []pendingOp{n.seqBuf[0]}
					n.seqBuf = n.seqBuf[1:]
				}
			} else {
				snap = n.delBuf
				n.delBuf = nil
			}
			n.mu.Unlock()
			if len(snap) > 0 {
				if n.delSnap == nil {
					n.delSnap = make(map[uint64][]pendingOp)
				}
				n.delSnap[seq] = snap
			}
			return aggtree.IntVal(len(snap))
		},
		Combine: sumCombine,
		AtRoot: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params aggtree.Value, combined aggtree.Value) aggtree.Value {
			d := int64(combined.(aggtree.IntVal))
			h.kStar = d
			if h.kStar > h.m {
				h.kStar = h.m
			}
			base := h.valueCounter
			h.valueCounter += d
			h.traceMu.Lock()
			h.delPhases[h.cycle] = &delPhase{base: base, expect: d}
			h.traceMu.Unlock()
			h.m -= h.kStar
			if h.kStar >= 1 {
				h.startLoad(ctx)
			} else {
				h.await(tagDelFetch)
			}
			return &valShare{Lo: 1, Hi: d, Cycle: h.cycle, KStar: h.kStar}
		},
		Split: splitByCounts,
		OnOwn: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params aggtree.Value, ownPart aggtree.Value) {
			n := h.nodes[self.ID]
			share := ownPart.(*valShare)
			snap := n.delSnap[seq]
			delete(n.delSnap, seq)
			if int64(len(snap)) != share.Hi-share.Lo+1 {
				panic("seap: delete position share does not match snapshot")
			}
			for i, po := range snap {
				pos := share.Lo + int64(i)
				rec := &delRecord{op: po.op, pos: pos}
				h.recordDelete(share.Cycle, rec)
				if pos > share.KStar {
					// The heap holds fewer than pos elements: ⊥.
					h.markDeleteDone(share.Cycle, rec, prio.Element{})
					continue
				}
				n.gets.out++
				cycle := share.Cycle
				n.store.Get(ctx, self, h.posKey(cycle, pos), func(e prio.Element, found bool) {
					n.gets.out--
					n.gets.done++
					h.markDeleteDone(cycle, rec, e)
				})
			}
			n.gets.cycle = share.Cycle
			n.settle(ctx, self, tagDelFetch, &n.gets)
		},
	}
}

// loadProto installs the DHT contents as KSelect candidates and starts the
// selection of the rank-k* element.
func (h *Heap) loadProto() *aggtree.Proto {
	return &aggtree.Proto{
		Name: "seap-load",
		Own: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params aggtree.Value) aggtree.Value {
			n := h.nodes[self.ID]
			elems := n.store.Elements()
			h.selector.NodeAt(self.ID).SetCandidates(elems)
			return aggtree.IntVal(len(elems))
		},
		Combine: sumCombine,
		AtRoot: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params aggtree.Value, combined aggtree.Value) aggtree.Value {
			total := int64(combined.(aggtree.IntVal))
			if total != h.m+h.kStar {
				panic("seap: stored elements disagree with the anchor's m")
			}
			h.selector.StartEmbedded(ctx, h.kStar, total)
			return nil
		},
		GatherOnly: true,
	}
}

// assignProto extracts every stored element with key ≤ threshold, assigns
// the extracted elements unique positions in [1, k*] by interval
// decomposition, and re-stores element i under key h(cycle, i) (§5.2).
func (h *Heap) assignProto() *aggtree.Proto {
	return &aggtree.Proto{
		Name: "seap-assign",
		Own: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params aggtree.Value) aggtree.Value {
			n := h.nodes[self.ID]
			p := params.(*assignParams)
			taken := n.store.TakeLeq(p.Threshold)
			if len(taken) > 0 {
				if n.assignBuf == nil {
					n.assignBuf = make(map[uint64][]prio.Element)
				}
				n.assignBuf[seq] = taken
			}
			return aggtree.IntVal(len(taken))
		},
		Combine: sumCombine,
		AtRoot: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params aggtree.Value, combined aggtree.Value) aggtree.Value {
			if int64(combined.(aggtree.IntVal)) != h.kStar {
				panic("seap: extracted element count disagrees with k*")
			}
			h.await(tagDelFetch)
			return &valShare{Lo: 1, Hi: h.kStar, Cycle: h.cycle}
		},
		Split: splitByCounts,
		OnOwn: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params aggtree.Value, ownPart aggtree.Value) {
			n := h.nodes[self.ID]
			share := ownPart.(*valShare)
			taken := n.assignBuf[seq]
			delete(n.assignBuf, seq)
			if int64(len(taken)) != share.Hi-share.Lo+1 {
				panic("seap: extraction share does not match")
			}
			for i, e := range taken {
				pos := share.Lo + int64(i)
				n.store.Put(ctx, self, h.posKey(share.Cycle, pos), e, nil)
			}
		},
	}
}

// completionProto is the convergecast that ends a phase: every node
// contributes how many of its requests completed once none is left out
// (Node.settle), so the anchor hears the phase's end one tree height after
// the last confirmation. The total must equal the anchor's count *want;
// then next runs.
func (h *Heap) completionProto(name string, want *int64, next func(*sim.Context)) *aggtree.Proto {
	return &aggtree.Proto{
		Name:    name,
		Combine: sumCombine,
		AtRoot: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params aggtree.Value, combined aggtree.Value) aggtree.Value {
			if seq != h.cycle || int64(combined.(aggtree.IntVal)) != *want {
				panic("seap: " + name + " total disagrees with the anchor's count")
			}
			next(ctx)
			return nil
		},
		GatherOnly: true,
	}
}

// endCycle assigns the cycle's delete serialization values once every
// Get is answered, and lets the anchor start the next cycle.
func (h *Heap) endCycle(ctx *sim.Context) {
	h.finalizeDeletes(h.cycle)
	h.inFlight = false
}

// sumCombine adds integer contributions.
func sumCombine(self *ldb.VInfo, seq uint64, params aggtree.Value, own aggtree.Value, kids []aggtree.KidValue) aggtree.Value {
	t := own.(aggtree.IntVal)
	for _, kv := range kids {
		t += kv.V.(aggtree.IntVal)
	}
	return t
}

// splitByCounts decomposes a valShare interval among the node and its
// children proportionally to their gathered counts, own first.
func splitByCounts(self *ldb.VInfo, seq uint64, params aggtree.Value, down aggtree.Value, own aggtree.Value, kids []aggtree.KidValue) (aggtree.Value, []aggtree.Value) {
	share := down.(*valShare)
	lo := share.Lo
	ownC := int64(own.(aggtree.IntVal))
	ownPart := &valShare{Lo: lo, Hi: lo + ownC - 1, Cycle: share.Cycle, KStar: share.KStar}
	lo += ownC
	parts := make([]aggtree.Value, len(kids))
	for i, kv := range kids {
		c := int64(kv.V.(aggtree.IntVal))
		parts[i] = &valShare{Lo: lo, Hi: lo + c - 1, Cycle: share.Cycle, KStar: share.KStar}
		lo += c
	}
	if lo != share.Hi+1 {
		panic("seap: interval decomposition does not cover")
	}
	return ownPart, parts
}
