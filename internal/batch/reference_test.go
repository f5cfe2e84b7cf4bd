package batch

import (
	"encoding/hex"
	"reflect"
	"testing"

	"dpq/internal/hashutil"
	"dpq/internal/wire"
)

// referenceDecompose, referenceCombine and takePieces are the
// one-slice-per-entry implementations Decompose and Combine replaced,
// kept verbatim as the oracle the slab-carving versions must match value
// for value.
func referenceDecompose(combined *Assign, own *Batch, kidBatches []*Batch) (ownA *Assign, kidA []*Assign) {
	p := own.P
	nKids := len(kidBatches)
	ownA = &Assign{}
	kidA = make([]*Assign, nKids)
	for i := range kidA {
		kidA[i] = &Assign{}
	}
	for j, ea := range combined.Entries {
		// Per-consumer insert counts for this entry, per priority.
		ownEntry := entryAt(own, j, p)
		ownEA := EntryAssign{Ins: make([]Interval, p)}
		kidEAs := make([]EntryAssign, nKids)
		for i := range kidEAs {
			kidEAs[i] = EntryAssign{Ins: make([]Interval, p)}
		}

		// Split the insert intervals: own first, then children in order.
		insBase := ea.InsBase
		ownEA.InsBase = insBase
		// Bases advance by each consumer's total inserts in this entry.
		ownTotalIns := int64(0)
		for q := 0; q < p; q++ {
			lo := ea.Ins[q].Lo
			c := ownEntry.insCount(q)
			ownEA.Ins[q] = Interval{Lo: lo, Hi: lo + c - 1}
			lo += c
			ownTotalIns += c
			for i, kb := range kidBatches {
				kc := entryAt(kb, j, p).insCount(q)
				kidEAs[i].Ins[q] = Interval{Lo: lo, Hi: lo + kc - 1}
				lo += kc
			}
			if lo != ea.Ins[q].Hi+1 {
				panic("batch: insert decomposition does not cover the interval")
			}
		}
		base := insBase + ownTotalIns
		for i, kb := range kidBatches {
			kidEAs[i].InsBase = base
			base += entryAt(kb, j, p).totalIns()
		}

		// Split the delete pieces sequentially: own first, then children.
		delBase := ea.DelBase
		pieces := ea.Del
		ownEA.DelBase = delBase
		ownEA.Del, pieces = takePieces(pieces, ownEntry.del())
		delBase += ownEntry.del()
		for i, kb := range kidBatches {
			kidEAs[i].DelBase = delBase
			kidEAs[i].Del, pieces = takePieces(pieces, entryAt(kb, j, p).del())
			delBase += entryAt(kb, j, p).del()
		}

		ownA.Entries = append(ownA.Entries, ownEA)
		for i := range kidEAs {
			kidA[i].Entries = append(kidA[i].Entries, kidEAs[i])
		}
	}
	// Trim trailing all-zero entries from children shorter than the
	// combined batch, so message sizes track actual sub-batch lengths.
	for i, kb := range kidBatches {
		if kb.Len() < len(kidA[i].Entries) {
			kidA[i].Entries = kidA[i].Entries[:kb.Len()]
		}
	}
	if own.Len() < len(ownA.Entries) {
		ownA.Entries = ownA.Entries[:own.Len()]
	}
	return ownA, kidA
}

// entryView avoids materializing padded entries for short batches.
type entryView struct {
	e  *Entry
	np int
}

func entryAt(b *Batch, j, p int) entryView {
	if j < len(b.Entries) {
		return entryView{e: &b.Entries[j], np: p}
	}
	return entryView{np: p}
}

func (v entryView) insCount(q int) int64 {
	if v.e == nil {
		return 0
	}
	return v.e.Ins[q]
}

func (v entryView) totalIns() int64 {
	if v.e == nil {
		return 0
	}
	var t int64
	for _, c := range v.e.Ins {
		t += c
	}
	return t
}

func (v entryView) del() int64 {
	if v.e == nil {
		return 0
	}
	return v.e.Del
}

// takePieces removes the first want positions from pieces, returning the
// taken prefix and the remainder. When pieces hold fewer than want
// positions the taken list is short — the consumer's surplus deletes
// return ⊥. Descending pieces (stack mode) are consumed top-down.
func takePieces(pieces []Piece, want int64) (taken, rest []Piece) {
	rest = pieces
	for want > 0 && len(rest) > 0 {
		pc := rest[0]
		sz := pc.Iv.Size()
		if sz <= want {
			taken = append(taken, pc)
			want -= sz
			rest = rest[1:]
			continue
		}
		if pc.Desc {
			taken = append(taken, Piece{P: pc.P, Iv: Interval{Lo: pc.Iv.Hi - want + 1, Hi: pc.Iv.Hi}, Desc: true})
			rest = append([]Piece{{P: pc.P, Iv: Interval{Lo: pc.Iv.Lo, Hi: pc.Iv.Hi - want}, Desc: true}}, rest[1:]...)
		} else {
			taken = append(taken, Piece{P: pc.P, Iv: Interval{Lo: pc.Iv.Lo, Hi: pc.Iv.Lo + want - 1}})
			rest = append([]Piece{{P: pc.P, Iv: Interval{Lo: pc.Iv.Lo + want, Hi: pc.Iv.Hi}}}, rest[1:]...)
		}
		want = 0
	}
	return taken, rest
}

func referenceCombine(batches ...*Batch) *Batch {
	if len(batches) == 0 {
		panic("batch: combine of nothing")
	}
	p := batches[0].P
	maxLen := 0
	for _, b := range batches {
		if b.P != p {
			panic("batch: combining batches over different priority universes")
		}
		if b.Len() > maxLen {
			maxLen = b.Len()
		}
	}
	out := New(p)
	out.Entries = make([]Entry, maxLen)
	for j := range out.Entries {
		out.Entries[j] = Entry{Ins: make([]int64, p)}
	}
	for _, b := range batches {
		for j, e := range b.Entries {
			for q, c := range e.Ins {
				out.Entries[j].Ins[q] += c
			}
			out.Entries[j].Del += e.Del
		}
	}
	return out
}

// positions expands a piece into its position sequence in consumption
// order.
func positions(pc Piece) []int64 {
	out := make([]int64, 0, pc.Iv.Size())
	for i := int64(0); i < pc.Iv.Size(); i++ {
		out = append(out, pc.At(i))
	}
	return out
}

// matchReference runs Combine and Decompose against their references on
// one node's batches and fails t on the first difference. It returns the
// assignment the node's subtree was given, for further checks.
func matchReference(t *testing.T, asn *Assign, own *Batch, kids []*Batch) (ownA *Assign, kidA []*Assign) {
	t.Helper()
	all := append([]*Batch{own}, kids...)
	if got, want := Combine(all...), referenceCombine(all...); !reflect.DeepEqual(got, want) {
		t.Fatalf("Combine = %+v, reference %+v", got, want)
	}
	ownA, kidA = Decompose(asn, own, kids)
	wantOwn, wantKids := referenceDecompose(asn, own, kids)
	if !reflect.DeepEqual(ownA, wantOwn) || !reflect.DeepEqual(kidA, wantKids) {
		t.Fatalf("Decompose of %+v\n own  %+v\n kids %+v\n= %+v %+v\nreference %+v %+v",
			asn.Entries, own.Entries, kids, ownA, kidA, wantOwn, wantKids)
	}
	return ownA, kidA
}

// TestDecomposeMatchesReference compares Combine and Decompose with the
// reference implementations over random subtrees: P ∈ {1,2,4,7}, FIFO,
// LIFO and MaxHeap anchors, 0–3 children each shorter or longer than the
// node's own batch, which is empty in some cases.
func TestDecomposeMatchesReference(t *testing.T) {
	r := hashutil.NewRand(7)
	for _, p := range []int{1, 2, 4, 7} {
		for mode := 0; mode < 3; mode++ {
			for trial := 0; trial < 60; trial++ {
				st := NewAnchorState(p)
				st.SetLIFO(mode == 1)
				st.SetMaxHeap(mode == 2)
				ownOps := r.Intn(40)
				if trial%5 == 0 {
					ownOps = 0
				}
				own := randomBatch(r, p, ownOps)
				kids := make([]*Batch, r.Intn(4))
				for i := range kids {
					kids[i] = randomBatch(r, p, r.Intn(80))
				}
				// Several rounds on one anchor, so deletes meet both empty
				// and partly drained intervals and LIFO runs pile up.
				for round := 0; round < 3; round++ {
					asn := st.AssignPositions(Combine(append([]*Batch{own}, kids...)...))
					matchReference(t, asn, own, kids)
				}
			}
		}
	}
}

// TestTakePiecesSplitsAcrossBoundary: a consumer whose deletes end inside
// the second piece takes the first whole and a prefix of the second; the
// next consumer gets the rest of it.
func TestTakePiecesSplitsAcrossBoundary(t *testing.T) {
	asn := &Assign{Entries: []EntryAssign{{
		Ins:     []Interval{{1, 0}, {1, 0}},
		DelBase: 1,
		Del:     []Piece{{P: 0, Iv: Interval{1, 3}}, {P: 1, Iv: Interval{1, 2}}},
	}}}
	own, kid := New(2), New(2)
	for i := 0; i < 4; i++ {
		own.AddDelete()
	}
	kid.AddDelete()
	ownA, kidA := matchReference(t, asn, own, []*Batch{kid})
	if PieceTotal(ownA.Entries[0].Del) != 4 || kidA[0].Entries[0].Del[0] != (Piece{P: 1, Iv: Interval{2, 2}}) {
		t.Fatalf("own %v kid %v", ownA.Entries[0].Del, kidA[0].Entries[0].Del)
	}
}

// TestTakePiecesShortfall: deletes beyond the assigned pieces get no
// position (they return ⊥); a descending piece is split from the top.
func TestTakePiecesShortfall(t *testing.T) {
	asn := &Assign{Entries: []EntryAssign{{
		Ins:     []Interval{{1, 0}},
		DelBase: 1,
		Del:     []Piece{{P: 0, Iv: Interval{4, 5}, Desc: true}},
	}}}
	own, kid := New(1), New(1)
	own.AddDelete()
	for i := 0; i < 9; i++ {
		kid.AddDelete()
	}
	ownA, kidA := matchReference(t, asn, own, []*Batch{kid})
	if ownA.Entries[0].Del[0].Iv != (Interval{5, 5}) || PieceTotal(kidA[0].Entries[0].Del) != 1 {
		t.Fatalf("own %v kid %v", ownA.Entries[0].Del, kidA[0].Entries[0].Del)
	}
}

// TestDecomposeAllocsFlat: a node allocates a fixed number of arrays per
// decomposition, however long its batches are.
func TestDecomposeAllocsFlat(t *testing.T) {
	allocs := func(entries int) float64 {
		const p = 4
		mk := func() *Batch {
			b := New(p)
			for j := 0; j < entries; j++ {
				b.AddInsert(j % p)
				b.AddDelete()
			}
			return b
		}
		own, kids := mk(), []*Batch{mk(), mk(), mk()}
		st := NewAnchorState(p)
		st.AssignPositions(Combine(own, own, own)) // something to delete
		asn := st.AssignPositions(Combine(append([]*Batch{own}, kids...)...))
		return testing.AllocsPerRun(20, func() { Decompose(asn, own, kids) })
	}
	// parts, kidA and the three slabs: a sixth is a slab sized too small.
	if short, long := allocs(4), allocs(256); short != long || long > 5 {
		t.Fatalf("Decompose allocates %.0f objects at 4 entries and %.0f at 256", short, long)
	}
}

// TestBatchWireBytes pins the encoding of the registered batch and assign
// samples and of a 3-entry batch over 4 priorities with its assignment,
// whose last entry holds a descending (stack-mode) delete piece, and
// checks that each decodes back to what was sent.
func TestBatchWireBytes(t *testing.T) {
	b := New(4)
	for _, op := range []int{0, 3, -1, 1, -1, -1, 2, 2, -1} {
		if op < 0 {
			b.AddDelete()
		} else {
			b.AddInsert(op)
		}
	}
	st := NewAnchorState(4)
	st.SetLIFO(true)
	asn := st.AssignPositions(b)
	msgs := append(append(wire.Samples("batch/batch"), wire.Samples("batch/assign")...), b, asn)
	want := []string{
		"a4bbbca40000000200000000",
		"a4bbbca40000000200000002000000000000000300000000000000000000000000000001" +
			"000000000000000000000000000000050000000000000000",
		"6cf5215d00000000",
		"6cf5215d00000001000000000000000400000002000000000000000100000000000000030000000000000001" +
			"0000000000000000000000000000000700000001000000010000000000000002000000000000000201",
		"a4bbbca4000000040000000300000000000000010000000000000000000000000000000000000000000000010000000000000001" +
			"0000000000000000000000000000000100000000000000000000000000000000000000000000000200000000000000000000000000000000" +
			"000000000000000200000000000000000000000000000001",
		"6cf5215d00000003000000000000000100000004000000000000000100000000000000010000000000000001000000000000000000000000" +
			"000000010000000000000000000000000000000100000000000000010000000000000003000000010000000000000000000000010000000000000001" +
			"010000000000000004000000040000000000000002000000000000000100000000000000010000000000000001000000000000000100000000" +
			"000000000000000000000002000000000000000100000000000000050000000200000001000000000000000100000000000000010100000003" +
			"000000000000000100000000000000010100000000000000070000000400000000000000020000000000000001000000000000000200000000" +
			"000000010000000000000001000000000000000200000000000000020000000000000001000000000000000900000001000000020000000000" +
			"000002000000000000000201",
	}
	for i, msg := range msgs {
		data, err := wire.Marshal(msg)
		if err != nil {
			t.Fatal(err)
		}
		if i >= len(want) || hex.EncodeToString(data) != want[i] {
			t.Errorf("message %d (%T) encodes as %x", i, msg, data)
		}
		if back, err := wire.Unmarshal(data); err != nil || !reflect.DeepEqual(back, msg) {
			t.Errorf("message %d (%T) decodes to %+v (err %v), want %+v", i, msg, back, err, msg)
		}
	}
}
