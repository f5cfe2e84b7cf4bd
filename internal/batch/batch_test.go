package batch

import (
	"testing"
	"testing/quick"

	"dpq/internal/hashutil"
)

func TestSnapshotExample(t *testing.T) {
	// §3.1: Insert(e1),Insert(e2),DeleteMin,Insert(e3),DeleteMin with
	// prio(e1)=prio(e2)=1, prio(e3)=2 is the batch ((2,0),1,(0,1),1).
	b := New(2)
	b.AddInsert(0)
	b.AddInsert(0)
	b.AddDelete()
	b.AddInsert(1)
	b.AddDelete()
	if b.Len() != 2 {
		t.Fatalf("entries=%d want 2", b.Len())
	}
	e0, e1 := b.Entries[0], b.Entries[1]
	if e0.Ins[0] != 2 || e0.Ins[1] != 0 || e0.Del != 1 {
		t.Fatalf("entry 0 = %+v", e0)
	}
	if e1.Ins[0] != 0 || e1.Ins[1] != 1 || e1.Del != 1 {
		t.Fatalf("entry 1 = %+v", e1)
	}
}

func TestLeadingDeleteOpensEntry(t *testing.T) {
	b := New(1)
	b.AddDelete()
	b.AddInsert(0)
	if b.Len() != 2 || b.Entries[0].Del != 1 || b.Entries[1].Ins[0] != 1 {
		t.Fatalf("batch %+v", b.Entries)
	}
}

func TestCombinePadsShorter(t *testing.T) {
	a := New(2)
	a.AddInsert(0)
	a.AddDelete()
	a.AddInsert(1) // second entry
	b := New(2)
	b.AddInsert(0)
	c := Combine(a, b)
	if c.Len() != 2 {
		t.Fatalf("combined length %d", c.Len())
	}
	if c.Entries[0].Ins[0] != 2 || c.Entries[0].Del != 1 || c.Entries[1].Ins[1] != 1 {
		t.Fatalf("combined %+v", c.Entries)
	}
}

func TestCombineMismatchedUniversePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Combine(New(1), New(2))
}

// TestFigure1 reproduces Figure 1 exactly: n=3 nodes with batches
// v0=((1,0),2), vA=((1,0),0), vB=((2,1),1) over 𝒫={1,2}.
func TestFigure1(t *testing.T) {
	p := 2
	own := New(p) // v0: one insert of priority 1, two deletes
	own.AddInsert(0)
	own.AddDelete()
	own.AddDelete()
	kidA := New(p) // one insert of priority 1
	kidA.AddInsert(0)
	kidB := New(p) // two inserts of priority 1, one of priority 2, one delete
	kidB.AddInsert(0)
	kidB.AddInsert(0)
	kidB.AddInsert(1)
	kidB.AddDelete()

	// (b) After Phase 1 the anchor holds ((4,1),3).
	combined := Combine(own, kidA, kidB)
	if combined.Len() != 1 {
		t.Fatalf("combined length %d", combined.Len())
	}
	e := combined.Entries[0]
	if e.Ins[0] != 4 || e.Ins[1] != 1 || e.Del != 3 {
		t.Fatalf("combined entry %+v, want ((4,1),3)", e)
	}

	// (c) After Phase 2: I₁ = ([1,4],[1,1]), D₁ = ([1,3],∅),
	// last₁=4, last₂=1, first₁=4, first₂=1.
	st := NewAnchorState(p)
	asn := st.AssignPositions(combined)
	ea := asn.Entries[0]
	if ea.Ins[0] != (Interval{1, 4}) || ea.Ins[1] != (Interval{1, 1}) {
		t.Fatalf("insert intervals %+v", ea.Ins)
	}
	if len(ea.Del) != 1 || ea.Del[0].P != 0 || ea.Del[0].Iv != (Interval{1, 3}) {
		t.Fatalf("delete pieces %+v", ea.Del)
	}
	if st.Last[0] != 4 || st.Last[1] != 1 || st.First[0] != 4 || st.First[1] != 1 {
		t.Fatalf("anchor state %+v", st)
	}

	// (d) After Phase 3 the decomposition partitions the intervals:
	// the insert positions [1,4]×{p1}, [1,1]×{p2} and the delete
	// positions [1,3]×{p1} are each covered exactly once, with per-node
	// cardinalities matching the sub-batches (own-first order: v0 gets
	// ([1,1],∅) inserts and [1,2] deletes, vA gets ([2,2],∅), vB gets
	// ([3,4],[1,1]) and delete [3,3] — the figure draws the same
	// partition in a different node order).
	ownA, kidAs := Decompose(asn, own, []*Batch{kidA, kidB})
	if ownA.Entries[0].Ins[0] != (Interval{1, 1}) {
		t.Fatalf("own insert %v", ownA.Entries[0].Ins[0])
	}
	if kidAs[0].Entries[0].Ins[0] != (Interval{2, 2}) {
		t.Fatalf("kidA insert %v", kidAs[0].Entries[0].Ins[0])
	}
	if kidAs[1].Entries[0].Ins[0] != (Interval{3, 4}) || kidAs[1].Entries[0].Ins[1] != (Interval{1, 1}) {
		t.Fatalf("kidB inserts %+v", kidAs[1].Entries[0].Ins)
	}
	if got := PieceTotal(ownA.Entries[0].Del); got != 2 {
		t.Fatalf("own deletes %d", got)
	}
	if got := PieceTotal(kidAs[0].Entries[0].Del); got != 0 {
		t.Fatalf("kidA deletes %d", got)
	}
	if kidAs[1].Entries[0].Del[0].Iv != (Interval{3, 3}) {
		t.Fatalf("kidB delete %+v", kidAs[1].Entries[0].Del)
	}
}

func TestDeleteSpansPriorities(t *testing.T) {
	// Deletes consume the most prioritized non-empty interval first and
	// continue into the next priority (§3.2.2).
	st := NewAnchorState(3)
	fill := New(3)
	fill.AddInsert(0)
	fill.AddInsert(0)
	fill.AddInsert(1)
	fill.AddInsert(2)
	st.AssignPositions(fill)

	del := New(3)
	for i := 0; i < 4; i++ {
		del.AddDelete()
	}
	asn := st.AssignPositions(del)
	pieces := asn.Entries[0].Del
	if len(pieces) != 3 {
		t.Fatalf("pieces %+v", pieces)
	}
	if pieces[0].P != 0 || pieces[0].Iv.Size() != 2 {
		t.Fatalf("first piece %+v", pieces[0])
	}
	if pieces[1].P != 1 || pieces[1].Iv.Size() != 1 || pieces[2].P != 2 || pieces[2].Iv.Size() != 1 {
		t.Fatalf("pieces %+v", pieces)
	}
}

func TestDeleteOnEmptyHeapYieldsNoPieces(t *testing.T) {
	st := NewAnchorState(2)
	del := New(2)
	del.AddDelete()
	del.AddDelete()
	asn := st.AssignPositions(del)
	if PieceTotal(asn.Entries[0].Del) != 0 {
		t.Fatalf("empty heap produced pieces %+v", asn.Entries[0].Del)
	}
	if !st.Invariant() {
		t.Fatal("anchor invariant broken")
	}
}

func TestDeletePartiallyServed(t *testing.T) {
	st := NewAnchorState(1)
	b := New(1)
	b.AddInsert(0)
	b.AddDelete()
	b.AddDelete()
	b.AddDelete()
	asn := st.AssignPositions(b)
	if got := PieceTotal(asn.Entries[0].Del); got != 1 {
		t.Fatalf("served %d deletes, heap only had 1", got)
	}
	if st.Size() != 0 {
		t.Fatalf("heap size %d", st.Size())
	}
}

func TestSequenceBasesMonotone(t *testing.T) {
	st := NewAnchorState(2)
	b := New(2)
	b.AddInsert(0)
	b.AddDelete()
	b.AddInsert(1)
	b.AddDelete()
	asn := st.AssignPositions(b)
	prev := int64(0)
	for _, ea := range asn.Entries {
		if ea.InsBase <= prev && prev != 0 {
			t.Fatalf("InsBase not monotone: %+v", asn.Entries)
		}
		if ea.DelBase < ea.InsBase {
			t.Fatal("deletes must follow inserts within an entry")
		}
		prev = ea.DelBase
	}
}

func randomBatch(r *hashutil.Rand, p, maxOps int) *Batch {
	b := New(p)
	n := r.Intn(maxOps + 1)
	for i := 0; i < n; i++ {
		if r.Bool(0.5) {
			b.AddInsert(r.Intn(p))
		} else {
			b.AddDelete()
		}
	}
	return b
}

// TestDecomposePartitionProperty: for random batches, decomposition must
// exactly partition every assigned interval among the consumers.
func TestDecomposePartitionProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := hashutil.NewRand(seed)
		p := r.Intn(3) + 1
		own := randomBatch(r, p, 12)
		nKids := r.Intn(3)
		kids := make([]*Batch, nKids)
		for i := range kids {
			kids[i] = randomBatch(r, p, 12)
		}
		all := append([]*Batch{own}, kids...)
		combined := Combine(all...)

		st := NewAnchorState(p)
		// Pre-fill so deletes have something to take.
		pre := New(p)
		for q := 0; q < p; q++ {
			for i := 0; i < r.Intn(6); i++ {
				pre.AddInsert(q)
			}
		}
		st.AssignPositions(pre)
		if !st.Invariant() {
			return false
		}
		asn := st.AssignPositions(combined)
		if !st.Invariant() {
			return false
		}
		ownA, kidA := Decompose(asn, own, kids)
		parts := append([]*Assign{ownA}, kidA...)

		for j, ea := range asn.Entries {
			// Inserts: per priority, sub-intervals must tile ea.Ins[q].
			for q := 0; q < p; q++ {
				next := ea.Ins[q].Lo
				for _, pa := range parts {
					if j >= len(pa.Entries) {
						continue
					}
					iv := pa.Entries[j].Ins[q]
					if iv.Empty() {
						continue
					}
					if iv.Lo != next {
						return false
					}
					next = iv.Hi + 1
				}
				if next != ea.Ins[q].Hi+1 {
					return false
				}
			}
			// Deletes: pieces must tile ea.Del in order.
			var flat []Piece
			for _, pa := range parts {
				if j < len(pa.Entries) {
					flat = append(flat, pa.Entries[j].Del...)
				}
			}
			if PieceTotal(flat) != PieceTotal(ea.Del) {
				return false
			}
			// Walk both lists position by position.
			want := expand(ea.Del)
			got := expand(flat)
			if len(want) != len(got) {
				return false
			}
			for i := range want {
				if want[i] != got[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

type pos struct {
	p   int
	idx int64
}

func expand(pieces []Piece) []pos {
	var out []pos
	for _, pc := range pieces {
		for i := pc.Iv.Lo; i <= pc.Iv.Hi; i++ {
			out = append(out, pos{p: pc.P, idx: i})
		}
	}
	return out
}

// TestDecomposeBasesProperty: sequence bases must assign each operation a
// unique, gap-free global value per entry.
func TestDecomposeBasesProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := hashutil.NewRand(seed)
		p := r.Intn(2) + 1
		own := randomBatch(r, p, 8)
		kids := []*Batch{randomBatch(r, p, 8), randomBatch(r, p, 8)}
		combined := Combine(own, kids[0], kids[1])
		st := NewAnchorState(p)
		asn := st.AssignPositions(combined)
		ownA, kidA := Decompose(asn, own, kids)
		parts := []*Assign{ownA, kidA[0], kidA[1]}
		batches := []*Batch{own, kids[0], kids[1]}

		for j, ea := range asn.Entries {
			// Collect (value → count) for inserts of entry j.
			seen := map[int64]int{}
			for pi, pa := range parts {
				if j >= len(pa.Entries) {
					continue
				}
				eb := pa.Entries[j]
				var tIns, tDel int64
				if j < len(batches[pi].Entries) {
					for _, c := range batches[pi].Entries[j].Ins {
						tIns += c
					}
					tDel = batches[pi].Entries[j].Del
				}
				for v := eb.InsBase; v < eb.InsBase+tIns; v++ {
					seen[v]++
				}
				for v := eb.DelBase; v < eb.DelBase+tDel; v++ {
					seen[v]++
				}
			}
			var total int64
			for _, c := range combined.Entries[j].Ins {
				total += c
			}
			total += combined.Entries[j].Del
			if int64(len(seen)) != total {
				return false
			}
			for v := ea.InsBase; v < ea.InsBase+total; v++ {
				if seen[v] != 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBatchBitsGrowWithOps(t *testing.T) {
	small := New(2)
	small.AddInsert(0)
	big := New(2)
	for i := 0; i < 100; i++ {
		big.AddInsert(0)
		big.AddDelete()
	}
	if small.Bits() >= big.Bits() {
		t.Fatal("bits must grow with batch content")
	}
}

func TestCloneIndependent(t *testing.T) {
	b := New(2)
	b.AddInsert(1)
	c := b.Clone()
	c.AddInsert(0)
	c.Entries[0].Ins[1] = 99
	if b.Entries[0].Ins[1] != 1 || b.Ops() != 1 {
		t.Fatal("clone shares state")
	}
}

func TestOpsCount(t *testing.T) {
	b := New(3)
	b.AddInsert(0)
	b.AddInsert(2)
	b.AddDelete()
	b.AddInsert(1)
	if b.Ops() != 4 {
		t.Fatalf("ops=%d", b.Ops())
	}
}

func TestAnchorSizeTracksOperations(t *testing.T) {
	st := NewAnchorState(2)
	b := New(2)
	for i := 0; i < 5; i++ {
		b.AddInsert(i % 2)
	}
	st.AssignPositions(b)
	if st.Size() != 5 {
		t.Fatalf("size=%d", st.Size())
	}
	d := New(2)
	d.AddDelete()
	d.AddDelete()
	st.AssignPositions(d)
	if st.Size() != 3 {
		t.Fatalf("size=%d", st.Size())
	}
}
