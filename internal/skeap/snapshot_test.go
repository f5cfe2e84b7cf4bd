package skeap

import (
	"reflect"
	"testing"

	"dpq/internal/batch"
	"dpq/internal/hashutil"
	"dpq/internal/ldb"
	"dpq/internal/prio"
	"dpq/internal/semantics"
)

// referenceSnapshot builds the batch and slots of ops one operation at a
// time with AddInsert/AddDelete, the way snapshot did before it counted
// its entries first.
func referenceSnapshot(ops []pendingOp, p int) (*batch.Batch, []slot) {
	b := batch.New(p)
	var slots []slot
	entry := -1
	var insIdx, delIdx int64
	insPIdx := make([]int64, p)
	for _, po := range ops {
		if po.kind == semantics.Insert {
			b.AddInsert(int(po.elem.Prio))
		} else {
			b.AddDelete()
		}
		if b.Len()-1 != entry {
			entry = b.Len() - 1
			insIdx, delIdx = 0, 0
			clear(insPIdx)
		}
		s := slot{op: po, entry: entry}
		if po.kind == semantics.Insert {
			q := int(po.elem.Prio)
			s.insIdx, s.insPIdx = insIdx, insPIdx[q]
			insIdx++
			insPIdx[q]++
		} else {
			s.delIdx = delIdx
			delIdx++
		}
		slots = append(slots, s)
	}
	return b, slots
}

// TestSnapshotMatchesAddOps: the batch and slots snapshot builds equal the
// operation-at-a-time construction, for leading deletes, runs of one kind
// and random mixes, with and without the MaxBatch cap.
func TestSnapshotMatchesAddOps(t *testing.T) {
	r := hashutil.NewRand(3)
	scripts := [][]int{
		{}, {-1}, {2}, {-1, -1, 0, 1, -1, 3, 3}, {0, 0, -1, 1, -1}, {1, 1, 1}, {-1, -1, -1},
	}
	for i := 0; i < 50; i++ {
		s := make([]int, r.Intn(100))
		for j := range s {
			s[j] = r.Intn(5) - 1
		}
		scripts = append(scripts, s)
	}
	for _, maxBatch := range []int{0, 3} {
		for _, script := range scripts {
			h := New(Config{N: 2, P: 4, Seed: 1, MaxBatch: maxBatch})
			n := h.nodes[ldb.VID(0, ldb.Middle)]
			for i, q := range script {
				if q < 0 {
					h.InjectDelete(0)
				} else {
					h.InjectInsert(0, prio.ElemID(i+1), q, "")
				}
			}
			ops := n.buffer
			if maxBatch > 0 && len(ops) > maxBatch {
				ops = ops[:maxBatch]
			}
			wantB, wantSlots := referenceSnapshot(ops, 4)
			b := n.snapshot(7)
			if !reflect.DeepEqual(b, wantB) || !reflect.DeepEqual(n.snapshots[7], wantSlots) {
				t.Fatalf("script %v cap %d: snapshot %+v %+v, want %+v %+v",
					script, maxBatch, b, n.snapshots[7], wantB, wantSlots)
			}
			if left := len(script) - len(ops); len(n.buffer) != left {
				t.Fatalf("script %v cap %d: %d ops left in the buffer, want %d", script, maxBatch, len(n.buffer), left)
			}
		}
	}
}

// TestSnapshotRejectsPriorityOutOfRange: an operation whose priority lies
// outside the universe never makes it into a batch.
func TestSnapshotRejectsPriorityOutOfRange(t *testing.T) {
	h := New(Config{N: 2, P: 2, Seed: 1})
	n := h.nodes[ldb.VID(0, ldb.Middle)]
	n.buffer = []pendingOp{{kind: semantics.Insert, elem: prio.Element{ID: 1, Prio: 2}}}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	n.snapshot(0)
}

// TestDeletePositionWalksPieces: the i-th delete of an entry takes the
// i-th position of its pieces laid end to end, ascending or descending.
func TestDeletePositionWalksPieces(t *testing.T) {
	pieces := []batch.Piece{
		{P: 0, Iv: batch.Interval{Lo: 3, Hi: 4}},
		{P: 2, Iv: batch.Interval{Lo: 7, Hi: 9}, Desc: true},
		{P: 3, Iv: batch.Interval{Lo: 1, Hi: 1}},
	}
	want := []pp{{0, 3}, {0, 4}, {2, 9}, {2, 8}, {2, 7}, {3, 1}}
	for i, w := range want {
		if got, ok := deletePosition(pieces, int64(i)); !ok || got != w {
			t.Fatalf("delete %d takes %v (ok=%v), want %v", i, got, ok, w)
		}
	}
	if _, ok := deletePosition(pieces, int64(len(want))); ok {
		t.Fatal("a delete past the pieces got a position")
	}
}
