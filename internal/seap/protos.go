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

// cycleVal tags a poll or phase start with its cycle.
type cycleVal uint64

// Bits accounts one integer.
func (cycleVal) Bits() int { return 64 }

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
	h.protos.Register(tagInsPoll, h.insPollProto())
	h.protos.Register(tagDelCount, h.delCountProto())
	h.protos.Register(tagLoad, h.loadProto())
	h.protos.Register(tagAssign, h.assignProto())
	h.protos.Register(tagDelPoll, h.delPollProto())
}

// ---- anchor sequencing ------------------------------------------------------

func (h *Heap) anchorNode() *Node { return h.nodes[h.ov.Anchor] }

func (h *Heap) start(ctx *sim.Context, tag aggtree.Tag, params aggtree.Value) {
	h.col.Phase(phaseName(tag))
	h.anchorNode().runner.Start(ctx, h.ov.Info(h.ov.Anchor), tag, h.nextSeq(), params)
}

// phaseName maps an aggtree tag to its timeline phase name (§5's cycle
// structure as seen by the anchor).
func phaseName(tag aggtree.Tag) string {
	switch tag {
	case tagInsCount:
		return "seap:ins-count"
	case tagInsPoll:
		return "seap:ins-poll"
	case tagDelCount:
		return "seap:del-count"
	case tagLoad:
		return "seap:load"
	case tagAssign:
		return "seap:assign"
	case tagDelPoll:
		return "seap:del-poll"
	}
	return "seap:other"
}

func (h *Heap) startInsCount(ctx *sim.Context) { h.start(ctx, tagInsCount, cycleVal(h.cycle)) }
func (h *Heap) startInsPoll(ctx *sim.Context)  { h.start(ctx, tagInsPoll, cycleVal(h.cycle)) }
func (h *Heap) startDelCount(ctx *sim.Context) { h.start(ctx, tagDelCount, cycleVal(h.cycle)) }
func (h *Heap) startLoad(ctx *sim.Context)     { h.start(ctx, tagLoad, cycleVal(h.cycle)) }
func (h *Heap) startDelPoll(ctx *sim.Context)  { h.start(ctx, tagDelPoll, cycleVal(h.cycle)) }

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
			n.insCycle = uint64(params.(cycleVal))
			n.outPuts += len(snap)
			return aggtree.IntVal(len(snap))
		},
		Combine: sumCombine,
		AtRoot: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params aggtree.Value, combined aggtree.Value) aggtree.Value {
			k := int64(combined.(aggtree.IntVal))
			h.m += k
			base := h.valueCounter
			h.valueCounter += k
			// The anchor now polls until every store is confirmed, then
			// moves to the delete phase.
			h.startInsPoll(ctx)
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
			for i, po := range snap {
				h.trace.Complete(po.op, prio.Element{}, share.Lo+int64(i))
				key := ctx.Rand().Uint64() // uniformly random DHT key (§5.1)
				n.store.Put(ctx, self, key, po.elem, func() { n.outPuts-- })
			}
		},
	}
}

// insPollProto: the anchor waits until every node has taken its snapshot
// for this cycle and every store has been confirmed.
func (h *Heap) insPollProto() *aggtree.Proto {
	return &aggtree.Proto{
		Name: "seap-ins-poll",
		Own: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params aggtree.Value) aggtree.Value {
			n := h.nodes[self.ID]
			cycle := uint64(params.(cycleVal))
			if n.insCycle < cycle {
				return aggtree.IntVal(1) // snapshot not yet taken: not ready
			}
			return aggtree.IntVal(n.outPuts)
		},
		Combine: sumCombine,
		AtRoot: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params aggtree.Value, combined aggtree.Value) aggtree.Value {
			if int64(combined.(aggtree.IntVal)) > 0 {
				h.startInsPoll(ctx)
				return nil
			}
			h.startDelCount(ctx)
			return nil
		},
		GatherOnly: true,
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
			h.dCount = d
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
				h.startDelPoll(ctx)
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
				n.outGets++
				cycle := share.Cycle
				n.store.Get(ctx, self, h.posKey(cycle, pos), func(e prio.Element, found bool) {
					n.outGets--
					h.markDeleteDone(cycle, rec, e)
				})
			}
			n.delCycle = share.Cycle
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
			h.startDelPoll(ctx)
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

// delPollProto: the anchor waits until every node has applied its delete
// assignment for this cycle and every Get has been answered, then
// finalizes the cycle's serialization values and becomes idle.
func (h *Heap) delPollProto() *aggtree.Proto {
	return &aggtree.Proto{
		Name: "seap-del-poll",
		Own: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params aggtree.Value) aggtree.Value {
			n := h.nodes[self.ID]
			cycle := uint64(params.(cycleVal))
			if n.delCycle < cycle {
				return aggtree.IntVal(1) // assignment not yet applied
			}
			return aggtree.IntVal(n.outGets)
		},
		Combine: sumCombine,
		AtRoot: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params aggtree.Value, combined aggtree.Value) aggtree.Value {
			if int64(combined.(aggtree.IntVal)) > 0 {
				h.startDelPoll(ctx)
				return nil
			}
			h.finalizeDeletes(h.cycle)
			h.inFlight = false
			return nil
		},
		GatherOnly: true,
	}
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
