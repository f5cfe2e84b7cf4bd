package batch

// Wire registrations for the batch values Skeap aggregates on the tree
// (Batch up, Assign down). A batch's entries all span P priorities, so the
// codec writes P once and P insert counts per entry — decoded batches
// always satisfy the len(Ins) == P invariant the anchor relies on.

import (
	"fmt"

	"dpq/internal/sim"
	"dpq/internal/wire"
)

func init() {
	wire.Register("batch/batch", &Batch{},
		func(w *wire.Writer, msg sim.Message) {
			b := msg.(*Batch)
			w.U32(uint32(b.P))
			w.Len(len(b.Entries))
			for _, e := range b.Entries {
				for _, c := range e.Ins {
					w.I64(c)
				}
				w.I64(e.Del)
			}
		},
		func(r *wire.Reader) sim.Message {
			p := int(r.U32())
			if r.Err() == nil && (p < 1 || p > 1<<16) {
				r.Fail(fmt.Errorf("batch: wire batch with %d priorities", p))
				return nil
			}
			n := r.Len(8*p + 8)
			b := &Batch{P: p}
			if n > 0 {
				b.Entries = newEntries(n, p)
			}
			for j := range b.Entries {
				e := &b.Entries[j]
				for q := range e.Ins {
					e.Ins[q] = r.I64()
				}
				e.Del = r.I64()
			}
			return b
		},
		&Batch{P: 2},
		&Batch{P: 2, Entries: []Entry{
			{Ins: []int64{3, 0}, Del: 1},
			{Ins: []int64{0, 5}, Del: 0},
		}},
	)
	wire.Register("batch/assign", &Assign{},
		func(w *wire.Writer, msg sim.Message) {
			a := msg.(*Assign)
			w.Len(len(a.Entries))
			for _, ea := range a.Entries {
				w.I64(ea.InsBase)
				w.Len(len(ea.Ins))
				for _, iv := range ea.Ins {
					w.I64(iv.Lo)
					w.I64(iv.Hi)
				}
				w.I64(ea.DelBase)
				w.Len(len(ea.Del))
				for _, pc := range ea.Del {
					w.U32(uint32(pc.P))
					w.I64(pc.Iv.Lo)
					w.I64(pc.Iv.Hi)
					w.Bool(pc.Desc)
				}
			}
		},
		func(r *wire.Reader) sim.Message {
			n := r.Len(8 + 4 + 8 + 4)
			a := &Assign{}
			for j := 0; j < n && r.Err() == nil; j++ {
				var ea EntryAssign
				ea.InsBase = r.I64()
				ni := r.Len(16)
				for i := 0; i < ni && r.Err() == nil; i++ {
					ea.Ins = append(ea.Ins, Interval{Lo: r.I64(), Hi: r.I64()})
				}
				ea.DelBase = r.I64()
				nd := r.Len(4 + 16 + 1)
				for i := 0; i < nd && r.Err() == nil; i++ {
					pc := Piece{P: int(r.U32())}
					pc.Iv = Interval{Lo: r.I64(), Hi: r.I64()}
					pc.Desc = r.Bool()
					ea.Del = append(ea.Del, pc)
				}
				a.Entries = append(a.Entries, ea)
			}
			return a
		},
		&Assign{},
		&Assign{Entries: []EntryAssign{{
			InsBase: 4,
			Ins:     []Interval{{Lo: 1, Hi: 3}, {Lo: 1, Hi: 0}},
			DelBase: 7,
			Del:     []Piece{{P: 1, Iv: Interval{Lo: 2, Hi: 2}, Desc: true}},
		}}},
	)
}
