package seap

import (
	"dpq/internal/aggtree"
	"dpq/internal/kselect"
	"dpq/internal/ldb"
	"dpq/internal/prio"
	"dpq/internal/semantics"
	"dpq/internal/sim"
)

// valShare is a share of a cycle's intervals: the serialization values
// [ValLo, ValHi] of the inserts and the positions [PosLo, PosHi] of the
// deletes (positions beyond KStar return ⊥), split by each subtree's
// (inserts, deletes) counts. The assign uses the positions alone, for the
// extracted elements.
type valShare struct {
	ValLo, ValHi int64
	PosLo, PosHi int64
	Cycle        uint64
	KStar        int64
}

// Bits accounts six integers.
func (v *valShare) Bits() int { return 6 * 64 }

// assignParams broadcasts the delete phase's extraction threshold.
type assignParams struct {
	Cycle     uint64
	Threshold prio.Key
}

// Bits accounts the cycle and the key.
func (p *assignParams) Bits() int { return 64 + 128 }

// register builds the heap's protocol table, once for all of its nodes.
func (h *Heap) register() {
	h.protos.Register(tagCount, h.countProto())
	h.protos.Register(tagInsStore, h.completionProto("seap-ins-store", &h.k, h.afterStore))
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
	case tagCount:
		return "seap:count"
	case tagInsStore:
		return "seap:ins-store"
	case tagAssign:
		return "seap:assign"
	case tagDelFetch:
		return "seap:del-fetch"
	}
	return "seap:other"
}

// afterStore runs once every insert is stored: a cycle that extracts
// selects the rank-k* element among the m + k* stored ones, and the
// selection's first start loads the candidates (Heap.load); a cycle with
// k* = 0 has answered its deletes with ⊥ and ends.
func (h *Heap) afterStore(ctx *sim.Context) {
	if h.kStar == 0 {
		h.endCycle(ctx)
		return
	}
	h.selector.StartEmbedded(ctx, h.kStar, h.m+h.kStar)
}

// onSelectDone chains the delete phase after KSelect found the rank-k*
// element: its key is the extraction threshold.
func (h *Heap) onSelectDone(ctx *sim.Context, res kselect.Result) {
	if !res.Found {
		panic("seap: selection failed")
	}
	h.threshold = prio.KeyOf(res.Elem)
	h.start(ctx, tagAssign, &assignParams{Cycle: h.cycle, Threshold: h.threshold})
}

// load is the selector's load hook (kselect.Selector.SetLoad). The
// selection's first start reaches a node after every Put of the cycle is
// confirmed, so the node issues the Gets of its matched deletes now — they
// park at the responsible nodes until the assign stores the extracted
// elements (§3.2.4 asynchrony rule) — and offers its stored elements as
// candidates.
func (h *Heap) load(ctx *sim.Context, self *ldb.VInfo) []prio.Element {
	n := h.nodes[self.ID]
	if len(n.fetch) > 0 && n.fetching == nil {
		n.fetching = make(map[uint64]*delRecord, len(n.fetch))
	}
	for _, rec := range n.fetch {
		n.gets.out++
		n.fetching[n.store.Get(ctx, self, h.posKey(n.cycle, rec.pos))] = rec
	}
	n.fetch = nil
	n.gets.cycle = n.cycle
	n.settle(ctx, self, tagDelFetch, &n.gets)
	return n.store.Elements()
}

// ---- protos -----------------------------------------------------------------

// countProto aggregates the numbers k of buffered inserts and d of
// buffered deletes in one wave (§5.1, §5.2). The anchor updates v₀.m, fixes
// k* = min(d, m) and scatters the go-ahead: serialization values for the
// inserts, then unique positions in [1, d] for the deletes by interval
// decomposition. Every node stores its inserts under uniformly random DHT
// keys and answers its deletes beyond k* with ⊥; the Gets of the others
// wait for the selection (Heap.load). Operations are buffered at middle
// nodes only, so the count, and both convergecasts after it, skip the
// right leaves (aggtree.SkipRightLeaves).
func (h *Heap) countProto() *aggtree.Proto {
	return &aggtree.Proto{
		Name: "seap-count",
		Kids: aggtree.SkipRightLeaves,
		Own: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params aggtree.Value) aggtree.Value {
			n := h.nodes[self.ID]
			n.mu.Lock()
			if h.cfg.SeqConsistent {
				// §6 variant: only the oldest buffered op is eligible if it
				// is an Insert, and the op after it if that is a DeleteMin.
				n.ins = n.takeHead(semantics.Insert)
				n.del = n.takeHead(semantics.DeleteMin)
			} else {
				n.ins, n.insBuf = n.insBuf, nil
				n.del, n.delBuf = n.delBuf, nil
			}
			n.mu.Unlock()
			return aggtree.Int2Val{A: int64(len(n.ins)), B: int64(len(n.del))}
		},
		Combine: aggtree.SumInt2,
		AtRoot: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params aggtree.Value, combined aggtree.Value) aggtree.Value {
			t := combined.(aggtree.Int2Val)
			k, d := t.A, t.B
			h.k = k
			h.m += k
			h.kStar = min(d, h.m)
			h.m -= h.kStar
			// Inserts serialize before the cycle's deletes.
			base := h.valueCounter
			h.valueCounter += k + d
			h.traceMu.Lock()
			h.delPhases[h.cycle] = &delPhase{base: base + k, expect: d}
			h.traceMu.Unlock()
			// The selection starts once every store is confirmed.
			h.await(tagInsStore)
			return &valShare{ValLo: base, ValHi: base + k - 1, PosLo: 1, PosHi: d, Cycle: h.cycle, KStar: h.kStar}
		},
		Split: splitByCounts,
		OnOwn: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params aggtree.Value, ownPart aggtree.Value) {
			n := h.nodes[self.ID]
			share := ownPart.(*valShare)
			ins, del := n.ins, n.del
			n.ins, n.del = nil, nil
			if int64(len(ins)) != share.ValHi-share.ValLo+1 || int64(len(del)) != share.PosHi-share.PosLo+1 {
				panic("seap: count share does not match the snapshot")
			}
			n.cycle = share.Cycle
			n.puts.cycle = share.Cycle
			n.puts.out += len(ins)
			for i, po := range ins {
				h.trace.Complete(po.op, prio.Element{}, share.ValLo+int64(i))
				key := ctx.Rand().Uint64() // uniformly random DHT key (§5.1)
				n.store.Put(ctx, self, key, po.elem, true)
			}
			for i, po := range del {
				rec := &delRecord{op: po.op, pos: share.PosLo + int64(i)}
				h.recordDelete(share.Cycle, rec)
				if rec.pos > share.KStar {
					// The heap holds fewer than pos elements: ⊥.
					h.markDeleteDone(rec, prio.Element{})
					continue
				}
				n.fetch = append(n.fetch, rec)
			}
			n.settle(ctx, self, tagInsStore, &n.puts)
		},
	}
}

// takeHead removes and returns the head of the §6 variant's FIFO if it is
// an op of kind.
func (n *Node) takeHead(kind semantics.OpKind) []pendingOp {
	if len(n.seqBuf) == 0 || n.seqBuf[0].kind != kind {
		return nil
	}
	head := n.seqBuf[:1:1]
	n.seqBuf = n.seqBuf[1:]
	return head
}

// assignProto extracts every stored element with key ≤ threshold, assigns
// the extracted elements unique positions in [1, k*] by interval
// decomposition, and re-stores element i under key h(cycle, i) (§5.2).
func (h *Heap) assignProto() *aggtree.Proto {
	return &aggtree.Proto{
		Name: "seap-assign",
		Own: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params aggtree.Value) aggtree.Value {
			n := h.nodes[self.ID]
			n.taken = n.store.TakeLeq(params.(*assignParams).Threshold)
			return aggtree.Int2Val{B: int64(len(n.taken))}
		},
		Combine: aggtree.SumInt2,
		AtRoot: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params aggtree.Value, combined aggtree.Value) aggtree.Value {
			if combined.(aggtree.Int2Val).B != h.kStar {
				panic("seap: extracted element count disagrees with k*")
			}
			h.await(tagDelFetch)
			return &valShare{ValLo: 1, ValHi: 0, PosLo: 1, PosHi: h.kStar, Cycle: h.cycle}
		},
		Split: splitByCounts,
		OnOwn: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params aggtree.Value, ownPart aggtree.Value) {
			n := h.nodes[self.ID]
			share := ownPart.(*valShare)
			taken := n.taken
			n.taken = nil
			if int64(len(taken)) != share.PosHi-share.PosLo+1 {
				panic("seap: extraction share does not match")
			}
			for i, e := range taken {
				n.store.Put(ctx, self, h.posKey(share.Cycle, share.PosLo+int64(i)), e, false)
			}
		},
	}
}

// completionProto is the convergecast that ends a phase: every node
// contributes how many of its requests completed once none is left out
// (Node.settle), so the anchor hears the phase's end one tree height after
// the last confirmation. The total must equal the anchor's count *want;
// then next runs. A right leaf never issues a Put or a Get, and since the
// count skips it, it never learns the cycle either: both convergecasts
// skip it.
func (h *Heap) completionProto(name string, want *int64, next func(*sim.Context)) *aggtree.Proto {
	return &aggtree.Proto{
		Name:    name,
		Kids:    aggtree.SkipRightLeaves,
		Combine: sumCombine,
		AtRoot: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, params aggtree.Value, combined aggtree.Value) aggtree.Value {
			if seq != h.cycle || int64(combined.(aggtree.IntVal)) != *want {
				panic("seap: " + name + " total disagrees with the anchor's count")
			}
			next(ctx)
			return nil
		},
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

// splitByCounts decomposes a valShare's two intervals among the node and
// its children by their gathered (inserts, deletes) counts, own first.
func splitByCounts(self *ldb.VInfo, seq uint64, params aggtree.Value, down aggtree.Value, own aggtree.Value, kids []aggtree.KidValue) (aggtree.Value, []aggtree.Value) {
	share := down.(*valShare)
	val, pos := share.ValLo, share.PosLo
	part := func(c aggtree.Value) *valShare {
		t := c.(aggtree.Int2Val)
		p := &valShare{ValLo: val, ValHi: val + t.A - 1, PosLo: pos, PosHi: pos + t.B - 1, Cycle: share.Cycle, KStar: share.KStar}
		val, pos = val+t.A, pos+t.B
		return p
	}
	ownPart := part(own)
	parts := make([]aggtree.Value, len(kids))
	for i, kv := range kids {
		parts[i] = part(kv.V)
	}
	if val != share.ValHi+1 || pos != share.PosHi+1 {
		panic("seap: interval decomposition does not cover")
	}
	return ownPart, parts
}
