package main

import (
	"fmt"
	"sort"
)

// history is everything the generator observed, merged over connections
// and phases, in the form the checker judges.
type history struct {
	inserted [][]uint64   // per connection: ids of answered inserts
	consumed [][]delivery // per connection: delivered elements
	acked    [][]uint64   // per connection: ids of answered acks
	values   [][]seqVal   // per connection: serialization values by issue sequence
	bottoms  int          // ⊥ answers while the generator knew the queue was non-empty
	drained  bool         // the probe after the final drain answered ⊥
	// crashAt is the number of connections added before the cluster was
	// killed and restarted (0: no crash). Elements those connections saw
	// acked must never be delivered to a later connection.
	crashAt int
}

// add merges one connection's records.
func (h *history) add(c *gconn) {
	h.inserted = append(h.inserted, c.inserted)
	h.consumed = append(h.consumed, c.consumed)
	h.acked = append(h.acked, c.acked)
	h.values = append(h.values, c.values)
	h.bottoms += c.bottoms
}

// maxViolations bounds the report; the count stays exact.
const maxViolations = 10

// check returns the number of violations of the serving contract and a
// description of the first few:
//
//   - every consumed id was inserted, and consumed once unless the
//     response's delivery count says it is a redelivery;
//   - no ⊥ while the queue was known to be non-empty;
//   - each connection's serialization values strictly increase in issue
//     order;
//   - after the final drain, inserted = consumed = acked and the queue is
//     empty;
//   - nothing acked before a crash is delivered after it.
func (h *history) check() (int, []string) {
	n := 0
	var msgs []string
	bad := func(format string, args ...any) {
		n++
		if len(msgs) < maxViolations {
			msgs = append(msgs, fmt.Sprintf(format, args...))
		}
	}

	inserted := map[uint64]bool{}
	for _, ids := range h.inserted {
		for _, id := range ids {
			if inserted[id] {
				bad("element %d inserted twice", id)
			}
			inserted[id] = true
		}
	}
	gone := map[uint64]bool{}
	for _, ids := range h.acked[:h.crashAt] {
		for _, id := range ids {
			gone[id] = true
		}
	}
	seen := map[uint64]uint32{} // id → deliveries observed so far
	for i, ds := range h.consumed {
		for _, d := range ds {
			if !inserted[d.id] {
				bad("consumed element %d was never inserted", d.id)
			}
			if i >= h.crashAt && gone[d.id] {
				bad("element %d was acked before the crash and delivered again after it", d.id)
			}
			if prev := seen[d.id]; prev > 0 && d.deliveries <= 1 {
				bad("element %d delivered %d times, the last without a redelivery count", d.id, prev+1)
			}
			seen[d.id]++
		}
	}
	acked := map[uint64]bool{}
	for _, ids := range h.acked {
		for _, id := range ids {
			acked[id] = true
		}
	}
	lost := 0
	for id := range inserted {
		if seen[id] == 0 {
			lost++
			if lost <= 3 {
				bad("element %d was inserted and never delivered", id)
			} else {
				n++
			}
		}
	}
	if len(acked) != len(seen) {
		bad("%d elements consumed but %d acked", len(seen), len(acked))
	}
	if h.bottoms > 0 {
		bad("%d ⊥ answers while the queue was non-empty", h.bottoms)
	}
	if !h.drained {
		bad("the queue was not empty after the final drain")
	}
	for i, vs := range h.values {
		vs = append([]seqVal(nil), vs...)
		sort.Slice(vs, func(a, b int) bool { return vs[a].seq < vs[b].seq })
		for j := 1; j < len(vs); j++ {
			if vs[j].v <= vs[j-1].v {
				bad("conn %d: serialization values not increasing in issue order: op %d→%d, op %d→%d",
					i, vs[j-1].seq, vs[j-1].v, vs[j].seq, vs[j].v)
				break
			}
		}
	}
	return n, msgs
}
