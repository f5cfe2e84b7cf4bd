package batch

import (
	"testing"

	"dpq/internal/hashutil"
)

// FuzzDecompose drives the full assign/decompose pipeline from a fuzzed
// byte script, checks Combine and Decompose against their references and
// asserts the structural invariants: the anchor invariant holds, insert
// intervals tile exactly, delete pieces are conserved, and sequence values
// are unique and gap-free per entry.
func FuzzDecompose(f *testing.F) {
	f.Add(uint64(1), []byte{1, 2, 3, 4, 5})
	f.Add(uint64(2), []byte{0, 0, 9, 9, 1, 0, 1})
	f.Add(uint64(3), []byte{255, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Fuzz(func(t *testing.T, seed uint64, script []byte) {
		if len(script) > 64 {
			script = script[:64]
		}
		r := hashutil.NewRand(seed)
		p := int(r.Uint64n(3)) + 1
		mk := func(bytes []byte) *Batch {
			b := New(p)
			for _, c := range bytes {
				if c%2 == 0 {
					b.AddInsert(int(c) % p)
				} else {
					b.AddDelete()
				}
			}
			return b
		}
		third := len(script) / 3
		own := mk(script[:third])
		kid1 := mk(script[third : 2*third])
		kid2 := mk(script[2*third:])
		combined := Combine(own, kid1, kid2)

		st := NewAnchorState(p)
		if r.Bool(0.3) {
			st.SetLIFO(true)
		}
		if r.Bool(0.3) {
			st.SetMaxHeap(true)
		}
		// Pre-fill.
		pre := New(p)
		for q := 0; q < p; q++ {
			for i := uint64(0); i < r.Uint64n(4); i++ {
				pre.AddInsert(q)
			}
		}
		st.AssignPositions(pre)
		asn := st.AssignPositions(combined)
		if !st.Invariant() {
			t.Fatal("anchor invariant broken")
		}
		ownA, kidA := matchReference(t, asn, own, []*Batch{kid1, kid2})
		parts := append([]*Assign{ownA}, kidA...)
		batches := []*Batch{own, kid1, kid2}

		for j, ea := range asn.Entries {
			// Insert tiling per priority.
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
						t.Fatalf("entry %d prio %d: tiling gap at %d", j, q, iv.Lo)
					}
					next = iv.Hi + 1
				}
				if next != ea.Ins[q].Hi+1 {
					t.Fatalf("entry %d prio %d: tiling incomplete", j, q)
				}
			}
			// Delete piece conservation.
			var flatTotal int64
			for _, pa := range parts {
				if j < len(pa.Entries) {
					flatTotal += PieceTotal(pa.Entries[j].Del)
				}
			}
			if flatTotal != PieceTotal(ea.Del) {
				t.Fatalf("entry %d: delete pieces not conserved", j)
			}
			// Value uniqueness across the entry.
			seen := map[int64]bool{}
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
					if seen[v] {
						t.Fatalf("duplicate value %d", v)
					}
					seen[v] = true
				}
				for v := eb.DelBase; v < eb.DelBase+tDel; v++ {
					if seen[v] {
						t.Fatalf("duplicate value %d", v)
					}
					seen[v] = true
				}
			}
		}
	})
}

// FuzzLIFOModel drives the LIFO anchor against a slice-stack model.
func FuzzLIFOModel(f *testing.F) {
	f.Add([]byte{2, 1, 2, 2, 1, 1})
	f.Add([]byte{4, 4, 4, 3, 3, 3, 3})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 48 {
			script = script[:48]
		}
		st := NewAnchorState(1)
		st.SetLIFO(true)
		var model []int64
		next := int64(1)
		for _, c := range script {
			b := New(1)
			count := int(c%4) + 1
			if c%2 == 0 {
				for i := 0; i < count; i++ {
					b.AddInsert(0)
				}
				asn := st.AssignPositions(b)
				iv := asn.Entries[0].Ins[0]
				if iv.Lo != next || iv.Size() != int64(count) {
					t.Fatalf("insert interval %v, next=%d count=%d", iv, next, count)
				}
				for i := int64(0); i < int64(count); i++ {
					model = append(model, next+i)
				}
				next += int64(count)
			} else {
				for i := 0; i < count; i++ {
					b.AddDelete()
				}
				asn := st.AssignPositions(b)
				for _, pc := range asn.Entries[0].Del {
					for _, pos := range positions(pc) {
						if len(model) == 0 || model[len(model)-1] != pos {
							t.Fatalf("pop %d does not match stack top", pos)
						}
						model = model[:len(model)-1]
					}
				}
			}
			if st.Size() != int64(len(model)) {
				t.Fatalf("size drift: %d vs %d", st.Size(), len(model))
			}
		}
	})
}
