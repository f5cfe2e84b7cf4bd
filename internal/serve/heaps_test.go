package serve

import (
	"fmt"
	"math"
	"testing"

	"dpq/internal/prio"
	"dpq/internal/relax"
	"dpq/internal/seap"
	"dpq/internal/semantics"
	"dpq/internal/sim"
	"dpq/internal/skeap"
)

// TestAdapterInsertMapsReinsertExact drives the real protocols through the
// serving adapter: Insert folds any client priority into the protocol's
// universe, and Reinsert of the element a delete returned stores that very
// element again — at p = bound−1 and p = bound a second fold would move it
// to another priority.
func TestAdapterInsertMapsReinsertExact(t *testing.T) {
	const hosts, bound = 3, 5
	heaps := map[string]func() ProtocolHeap{
		"skeap": func() ProtocolHeap { return NewSkeapHeap(skeap.New(skeap.Config{N: hosts, P: bound, Seed: 7}), bound) },
		"seap": func() ProtocolHeap {
			return NewSeapHeap(seap.New(seap.Config{N: hosts, PrioBound: bound, Seed: 7, SeqConsistent: true}), bound)
		},
		"relax": func() ProtocolHeap {
			return NewHeap(relax.New(relax.Config{N: hosts, Seed: 7, Mode: relax.SampleK, K: 2, PrioBound: bound}), bound)
		},
	}
	for name, build := range heaps {
		for _, p := range []uint64{0, 1, bound - 1, bound, bound + 1, math.MaxUint64} {
			t.Run(fmt.Sprintf("%s/p=%d", name, p), func(t *testing.T) {
				h := build()
				groups, group := h.Overlay().Group()
				eng := sim.Build(sim.Spec{Handlers: h.Handlers(), Seed: 8, Groups: groups, Group: group})
				complete := func(op *semantics.Op) *semantics.Op {
					t.Helper()
					if !eng.RunUntil(func() bool { return op.Done }, 100000) {
						t.Fatalf("%v at host %d did not complete", op.Kind, op.Node)
					}
					return op
				}
				stored := complete(h.Insert(0, prio.ElemID(41), p, "job")).Elem
				if stored.ID != 41 || stored.Payload != "job" {
					t.Fatalf("Insert stored %+v", stored)
				}
				got := complete(h.Delete(1)).Result
				if got != stored {
					t.Fatalf("Delete returned %+v, Insert stored %+v", got, stored)
				}
				if again := complete(h.Reinsert(2, got)).Elem; again != got {
					t.Fatalf("Reinsert stored %+v, want the delivered element %+v", again, got)
				}
				if redelivered := complete(h.Delete(0)).Result; redelivered != got {
					t.Fatalf("redelivery returned %+v, want %+v", redelivered, got)
				}
			})
		}
		_, resettable := build().(ResettableHeap)
		if want := name == "skeap"; resettable != want {
			t.Errorf("%s: ResettableHeap = %v, want %v", name, resettable, want)
		}
	}
}
