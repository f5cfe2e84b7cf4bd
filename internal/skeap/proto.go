package skeap

import (
	"dpq/internal/aggtree"
	"dpq/internal/batch"
	"dpq/internal/dht"
	"dpq/internal/ldb"
	"dpq/internal/prio"
	"dpq/internal/semantics"
	"dpq/internal/sim"
)

// batchProto builds the gather–scatter describing one Skeap iteration:
// Own = Phase 1 snapshot, Combine = Phase 1 entrywise combination,
// AtRoot = Phase 2 position assignment, Split = Phase 3 decomposition and
// OnOwn = Phase 4 DHT operations. Operations are buffered at middle
// nodes only, so the batch skips the right leaves, which would contribute
// empty batches (aggtree.SkipRightLeaves).
func (h *Heap) batchProto() *aggtree.Proto {
	return &aggtree.Proto{
		Name: "skeap-batch",
		Kids: aggtree.SkipRightLeaves,
		Own: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, _ aggtree.Value) aggtree.Value {
			return h.nodes[self.ID].snapshot(seq)
		},
		Combine: func(self *ldb.VInfo, seq uint64, _ aggtree.Value, own aggtree.Value, kids []aggtree.KidValue) aggtree.Value {
			all := make([]*batch.Batch, 0, 1+len(kids))
			all = append(all, own.(*batch.Batch))
			for _, kv := range kids {
				all = append(all, kv.V.(*batch.Batch))
			}
			return batch.Combine(all...)
		},
		AtRoot: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, _ aggtree.Value, combined aggtree.Value) aggtree.Value {
			h.col.Phase("skeap:scatter")
			n := h.nodes[self.ID]
			b := combined.(*batch.Batch)
			n.inFlight = false // the anchor may start the next iteration
			if b.Len() == 0 {
				h.emptyIters++
				if h.autoRepeat {
					return quietDown // nothing to assign; the anchor goes quiet (quiet.go)
				}
			}
			if h.autoRepeat {
				h.wakeAnchor() // to start the next iteration
			}
			return n.anchorState.AssignPositions(b)
		},
		Split: func(self *ldb.VInfo, seq uint64, _ aggtree.Value, down aggtree.Value, own aggtree.Value, kids []aggtree.KidValue) (aggtree.Value, []aggtree.Value) {
			if down == quietDown {
				return splitQuiet(kids)
			}
			kidBatches := make([]*batch.Batch, len(kids))
			for i, kv := range kids {
				kidBatches[i] = kv.V.(*batch.Batch)
			}
			ownA, kidA := batch.Decompose(down.(*batch.Assign), own.(*batch.Batch), kidBatches)
			parts := make([]aggtree.Value, len(kidA))
			for i, a := range kidA {
				parts[i] = a
			}
			return ownA, parts
		},
		OnOwn: func(ctx *sim.Context, self *ldb.VInfo, seq uint64, _ aggtree.Value, ownPart aggtree.Value) {
			if ownPart == quietDown {
				h.nodes[self.ID].goQuiet(ctx, self)
				return
			}
			h.nodes[self.ID].apply(ctx, self, seq, ownPart.(*batch.Assign))
		},
	}
}

// snapshot drains the node's buffer into a batch (Phase 1) and memorizes,
// per operation, where in the batch it sits, so the assignment can be
// mapped back in Phase 4. The start wave that asks for it ends the node's
// quiet epoch, if any.
func (n *Node) snapshot(seq uint64) *batch.Batch {
	n.mu.Lock()
	n.quiet, n.woke = false, false
	ops := n.buffer
	if cap := n.heap.cfg.MaxBatch; cap > 0 && len(ops) > cap {
		ops = n.buffer[:cap]
		n.buffer = n.buffer[cap:]
	} else {
		n.buffer = nil
	}
	n.mu.Unlock()

	p := n.heap.cfg.P
	// Nothing buffered → nothing to remember: apply treats a missing
	// snapshot as empty, and returning here keeps idle nodes from ever
	// allocating the map (most nodes of a large simulation contribute no
	// operations to a given batch).
	if len(ops) == 0 {
		return batch.New(p)
	}
	// The first operation opens an entry, and so does every insert after
	// a delete (§3.1): count the entries, then cut their insert counts out
	// of one array.
	opens := func(i int) bool {
		return i == 0 || ops[i].kind == semantics.Insert && ops[i-1].kind != semantics.Insert
	}
	k := 0
	for i := range ops {
		if opens(i) {
			k++
		}
	}
	b := &batch.Batch{P: p, Entries: make([]batch.Entry, k)}
	counts := make([]int64, k*p)
	slots := make([]slot, len(ops))
	entry := -1
	var insIdx int64
	for i, po := range ops {
		if opens(i) {
			entry++
			b.Entries[entry].Ins = counts[entry*p : (entry+1)*p : (entry+1)*p]
			insIdx = 0
		}
		e := &b.Entries[entry]
		s := slot{op: po, entry: entry}
		if po.kind == semantics.Insert {
			q := int(po.elem.Prio)
			if q < 0 || q >= p {
				panic("skeap: priority out of range")
			}
			s.insIdx, s.insPIdx = insIdx, e.Ins[q]
			insIdx++
			e.Ins[q]++
		} else {
			s.delIdx = e.Del
			e.Del++
		}
		slots[i] = s
	}
	if n.snapshots == nil {
		n.snapshots = make(map[uint64][]slot)
	}
	n.snapshots[seq] = slots
	return b
}

// apply is Phase 4: the node converts its assignment into DHT operations
// and completes its trace entries with the global serialization values.
func (n *Node) apply(ctx *sim.Context, self *ldb.VInfo, seq uint64, asn *batch.Assign) {
	slots := n.snapshots[seq]
	delete(n.snapshots, seq)
	if len(slots) == 0 {
		return
	}
	n.heap.col.Phase("skeap:dht")
	for _, s := range slots {
		ea := asn.Entries[s.entry]
		if s.op.kind == semantics.Insert {
			p := int(s.op.elem.Prio)
			pos := ea.Ins[p].Lo + s.insPIdx
			value := ea.InsBase + s.insIdx
			n.heap.trace.Complete(s.op.op, prio.Element{}, value)
			key := n.heap.hasher.Pair(uint64(p), uint64(pos))
			n.store.Put(ctx, self, key, s.op.elem, false)
			continue
		}
		value := ea.DelBase + s.delIdx
		if loc, ok := deletePosition(ea.Del, s.delIdx); ok {
			key := n.heap.hasher.Pair(uint64(loc.p), uint64(loc.pos))
			if n.pendingGets == nil {
				n.pendingGets = make(map[uint64]pendingGet)
			}
			n.pendingGets[n.store.Get(ctx, self, key)] = pendingGet{op: s.op, seq: seq, value: value}
		} else {
			// The heap was empty at this point of the serialization:
			// DeleteMin returns ⊥ (Definition 1.2, property (2) boundary).
			n.heap.trace.Complete(s.op.op, prio.Element{}, value)
		}
	}
}

// fetched completes the delete whose Phase-4 fetch r answers, or drops r
// when a reset aborted that fetch.
func (n *Node) fetched(r *dht.ReplyMsg) {
	pg, ok := n.pendingGets[r.ReqID]
	if !ok {
		panic("skeap: reply for unknown request")
	}
	delete(n.pendingGets, r.ReqID)
	if !pg.aborted {
		n.heap.trace.Complete(pg.op.op, r.Elem, pg.value)
	}
}

// pp is a (priority, position) pair — the paper's (p, pos) ∈ 𝒫 × ℕ.
type pp struct {
	p   int
	pos int64
}

// deletePosition returns the position the i-th delete of an entry takes:
// the entry's pieces are handed out in order. ok is false when the pieces
// hold fewer than i+1 positions — the heap was empty at that point.
func deletePosition(pieces []batch.Piece, i int64) (loc pp, ok bool) {
	for _, pc := range pieces {
		if sz := pc.Iv.Size(); i >= sz {
			i -= sz
			continue
		}
		return pp{p: pc.P, pos: pc.At(i)}, true
	}
	return pp{}, false
}
