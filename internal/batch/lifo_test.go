package batch

import (
	"testing"
	"testing/quick"

	"dpq/internal/hashutil"
)

func TestLIFOPopNewestFirst(t *testing.T) {
	st := NewAnchorState(1)
	st.SetLIFO(true)
	ins := New(1)
	for i := 0; i < 5; i++ {
		ins.AddInsert(0)
	}
	a1 := st.AssignPositions(ins)
	if a1.Entries[0].Ins[0] != (Interval{1, 5}) {
		t.Fatalf("inserts %v", a1.Entries[0].Ins[0])
	}
	del := New(1)
	del.AddDelete()
	del.AddDelete()
	a2 := st.AssignPositions(del)
	pieces := a2.Entries[0].Del
	if len(pieces) != 1 || !pieces[0].Desc {
		t.Fatalf("pieces %+v", pieces)
	}
	pos := positions(pieces[0])
	if pos[0] != 5 || pos[1] != 4 {
		t.Fatalf("pop order %v, want newest first", pos)
	}
	if st.Size() != 3 {
		t.Fatalf("size %d", st.Size())
	}
}

func TestLIFONoPositionReuse(t *testing.T) {
	// push, pop, push: the second push must get a fresh storage index.
	st := NewAnchorState(1)
	st.SetLIFO(true)
	one := New(1)
	one.AddInsert(0)
	a1 := st.AssignPositions(one)
	del := New(1)
	del.AddDelete()
	st.AssignPositions(del)
	a3 := st.AssignPositions(one.Clone())
	if a3.Entries[0].Ins[0].Lo == a1.Entries[0].Ins[0].Lo {
		t.Fatalf("storage index reused: %v vs %v", a3.Entries[0].Ins[0], a1.Entries[0].Ins[0])
	}
}

func TestLIFOPopSpansRuns(t *testing.T) {
	// push 2, pop 1, push 2 → live runs [1,1] and [3,4]; pop 3 must emit
	// pieces 4,3 then 1 in that order.
	st := NewAnchorState(1)
	st.SetLIFO(true)
	two := New(1)
	two.AddInsert(0)
	two.AddInsert(0)
	st.AssignPositions(two)
	del1 := New(1)
	del1.AddDelete()
	st.AssignPositions(del1)
	st.AssignPositions(two.Clone())
	del3 := New(1)
	del3.AddDelete()
	del3.AddDelete()
	del3.AddDelete()
	asn := st.AssignPositions(del3)
	var got []int64
	for _, pc := range asn.Entries[0].Del {
		got = append(got, positions(pc)...)
	}
	want := []int64{4, 3, 1}
	if len(got) != len(want) {
		t.Fatalf("positions %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("positions %v, want %v", got, want)
		}
	}
	if st.Size() != 0 {
		t.Fatalf("size %d", st.Size())
	}
}

// TestLIFOMatchesModelStack: property test against a slice stack of
// storage indices.
func TestLIFOMatchesModelStack(t *testing.T) {
	f := func(seed uint64, script []byte) bool {
		st := NewAnchorState(1)
		st.SetLIFO(true)
		r := hashutil.NewRand(seed)
		var model []int64
		next := int64(1)
		for _, b := range script {
			bt := New(1)
			if b%2 == 0 || len(model) == 0 {
				c := int(r.Uint64n(4)) + 1
				for i := 0; i < c; i++ {
					bt.AddInsert(0)
				}
				asn := st.AssignPositions(bt)
				iv := asn.Entries[0].Ins[0]
				if iv.Lo != next || iv.Size() != int64(c) {
					return false
				}
				for i := int64(0); i < int64(c); i++ {
					model = append(model, next+i)
				}
				next += int64(c)
			} else {
				c := int(r.Uint64n(4)) + 1
				for i := 0; i < c; i++ {
					bt.AddDelete()
				}
				asn := st.AssignPositions(bt)
				var got []int64
				for _, pc := range asn.Entries[0].Del {
					got = append(got, positions(pc)...)
				}
				for _, pos := range got {
					if len(model) == 0 || model[len(model)-1] != pos {
						return false
					}
					model = model[:len(model)-1]
				}
			}
			if st.Size() != int64(len(model)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestLIFOMultiPriority(t *testing.T) {
	// Deletes still prefer the most prioritized non-empty priority, but
	// pop newest within it.
	st := NewAnchorState(2)
	st.SetLIFO(true)
	b := New(2)
	b.AddInsert(1)
	b.AddInsert(0)
	b.AddInsert(0)
	st.AssignPositions(b)
	del := New(2)
	del.AddDelete()
	del.AddDelete()
	del.AddDelete()
	asn := st.AssignPositions(del)
	pieces := asn.Entries[0].Del
	if pieces[0].P != 0 || pieces[len(pieces)-1].P != 1 {
		t.Fatalf("priority order %+v", pieces)
	}
}
