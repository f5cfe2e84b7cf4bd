package batch

import "dpq/internal/mathx"

// AnchorState is the anchor's per-priority interval bookkeeping of Phase 2:
// [first_p, last_p] are the positions currently occupied by elements of
// priority p, with the invariant first_p ≤ last_p + 1. Count is the global
// operation counter inducing the serialization order ≺ (§3.3).
type AnchorState struct {
	First []int64
	Last  []int64
	Count int64
	lifo  bool
	// maxHeap inverts the priority scan: deletes consume from the LEAST
	// prioritized non-empty interval first (§1.2: "this property can be
	// inverted such that our heap behaves like a MaxHeap").
	maxHeap bool
	// LIFO mode: positions are monotone storage indices (never reused, so
	// DHT keys stay unique) and the live elements of each priority form a
	// stack of index runs; pops trim runs from the top.
	next []int64
	runs [][]Interval
}

// NewAnchorState returns the initial state for p priorities: every
// interval empty ([1,0]), count starting at 1 as in §3.3.
func NewAnchorState(p int) *AnchorState {
	s := &AnchorState{First: make([]int64, p), Last: make([]int64, p), Count: 1}
	for i := range s.First {
		s.First[i] = 1
	}
	return s
}

// SetMaxHeap makes deletes drain priorities from the highest index down —
// the MaxHeap inversion of §1.2 (priority p is *less* urgent than p+1).
func (s *AnchorState) SetMaxHeap(on bool) { s.maxHeap = on }

// SetLIFO makes deletes consume the *newest* positions of each priority
// instead of the oldest — the stack variant of the underlying Skueue
// machinery ([FSS18b]). With a single priority this turns the structure
// into a distributed stack.
func (s *AnchorState) SetLIFO(on bool) {
	s.lifo = on
	if on && s.next == nil {
		p := len(s.First)
		s.next = make([]int64, p)
		for i := range s.next {
			s.next[i] = 1
		}
		s.runs = make([][]Interval, p)
	}
}

// Abandon empties every priority interval at its high-water mark: the
// positions currently believed occupied are dropped from the assignable
// range without being reused (Last keeps growing from where it is, Count
// stays monotone). A partial-failure reset calls this after a daemon crash
// destroyed an unknown subset of the occupied DHT cells — the surviving
// cells become unreachable orphans and every live element re-enters through
// a fresh insert, so no delete is ever assigned a position whose cell died
// with the crashed daemon (such a Get would park forever, §3.2.4).
func (s *AnchorState) Abandon() {
	for q := range s.First {
		s.First[q] = s.Last[q] + 1
	}
	if s.lifo {
		for q := range s.runs {
			s.runs[q] = nil
		}
	}
}

// Size returns the current number of elements the anchor believes the heap
// holds.
func (s *AnchorState) Size() int64 {
	var t int64
	if s.lifo {
		for _, rs := range s.runs {
			for _, iv := range rs {
				t += iv.Size()
			}
		}
		return t
	}
	for p := range s.First {
		t += s.Last[p] - s.First[p] + 1
	}
	return t
}

// Invariant reports whether first_p ≤ last_p + 1 holds for every priority.
func (s *AnchorState) Invariant() bool {
	for p := range s.First {
		if s.First[p] > s.Last[p]+1 {
			return false
		}
	}
	return true
}

// EntryAssign is the position assignment of one batch entry: one insert
// interval per priority plus an ordered list of delete pieces, together
// with the entry's global sequence bases (inserts occupy values
// [InsBase, InsBase+|I|), deletes [DelBase, DelBase+d_j) — deletes whose
// index exceeds the pieces' total cardinality return ⊥ but still occupy a
// value in ≺).
type EntryAssign struct {
	InsBase int64
	Ins     []Interval
	DelBase int64
	Del     []Piece
}

// Assign is a whole batch's position assignment, parallel to the batch's
// entries.
type Assign struct {
	Entries []EntryAssign
}

// Bits returns the encoded size: O(log n) bits per interval bound, at most
// |𝒫| insert intervals and |𝒫| delete pieces per entry — the down-phase
// counterpart of Lemma 3.8.
func (a *Assign) Bits() int {
	bits := 16
	for _, e := range a.Entries {
		bits += 2 * 64 // bases
		for _, iv := range e.Ins {
			bits += mathx.BitsFor(uint64(iv.Lo)) + mathx.BitsFor(uint64(max64(iv.Hi, 0))) + 2
		}
		for _, pc := range e.Del {
			bits += 8 + mathx.BitsFor(uint64(pc.Iv.Lo)) + mathx.BitsFor(uint64(max64(pc.Iv.Hi, 0))) + 2
		}
	}
	return bits
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// AssignPositions is Phase 2: the anchor walks the combined batch entry by
// entry, growing the occupied interval of each priority for inserts and
// consuming from the most prioritized non-empty intervals for deletes.
// It mutates the state and returns the assignment.
func (s *AnchorState) AssignPositions(b *Batch) *Assign {
	p := len(s.First)
	if b.P != p {
		panic("batch: batch priority universe does not match anchor state")
	}
	out := &Assign{Entries: make([]EntryAssign, len(b.Entries))}
	for j, e := range b.Entries {
		ea := EntryAssign{Ins: make([]Interval, p)}
		ea.InsBase = s.Count
		for q, c := range e.Ins {
			if s.lifo {
				ea.Ins[q] = Interval{Lo: s.next[q], Hi: s.next[q] + c - 1}
				if c > 0 {
					s.pushRun(q, ea.Ins[q])
					s.next[q] += c
				}
			} else {
				ea.Ins[q] = Interval{Lo: s.Last[q] + 1, Hi: s.Last[q] + c}
				s.Last[q] += c
			}
			s.Count += c
		}
		ea.DelBase = s.Count
		remaining := e.Del
		for step := 0; step < p && remaining > 0; step++ {
			q := step
			if s.maxHeap {
				q = p - 1 - step
			}
			if s.lifo {
				pieces, took := s.popRuns(q, remaining)
				ea.Del = append(ea.Del, pieces...)
				remaining -= took
				continue
			}
			avail := s.Last[q] - s.First[q] + 1
			if avail <= 0 {
				continue
			}
			take := remaining
			if take > avail {
				take = avail
			}
			ea.Del = append(ea.Del, Piece{P: q, Iv: Interval{Lo: s.First[q], Hi: s.First[q] + take - 1}})
			s.First[q] += take
			remaining -= take
		}
		s.Count += e.Del
		out.Entries[j] = ea
	}
	return out
}

// pushRun appends a run of freshly assigned storage indices to priority
// q's live stack, merging with the top run when contiguous.
func (s *AnchorState) pushRun(q int, iv Interval) {
	rs := s.runs[q]
	if n := len(rs); n > 0 && rs[n-1].Hi+1 == iv.Lo {
		rs[n-1].Hi = iv.Hi
		s.runs[q] = rs
		return
	}
	s.runs[q] = append(rs, iv)
}

// popRuns removes up to want indices from the top of priority q's live
// stack, newest first, returning descending delete pieces.
func (s *AnchorState) popRuns(q int, want int64) (pieces []Piece, took int64) {
	rs := s.runs[q]
	for want > 0 && len(rs) > 0 {
		top := &rs[len(rs)-1]
		take := want
		if sz := top.Size(); take > sz {
			take = sz
		}
		pieces = append(pieces, Piece{P: q, Iv: Interval{Lo: top.Hi - take + 1, Hi: top.Hi}, Desc: true})
		top.Hi -= take
		took += take
		want -= take
		if top.Empty() {
			rs = rs[:len(rs)-1]
		}
	}
	s.runs[q] = rs
	return pieces, took
}

// Decompose is Phase 3 at one tree node: given the assignment for the
// combined batch of this subtree, split it into the node's own part and
// one part per child sub-batch, in the own-first order used by Combine.
// kidBatches must be the memorized sub-batches in the order they were
// combined. A consumer gets one entry per entry of its own batch (at most
// the combined length); all entries, insert intervals and delete pieces of
// the parts are carved out of three arrays sized up front.
func Decompose(combined *Assign, own *Batch, kidBatches []*Batch) (ownA *Assign, kidA []*Assign) {
	p := own.P
	nE := len(combined.Entries)
	consumer := func(c int) *Batch {
		if c == 0 {
			return own
		}
		return kidBatches[c-1]
	}
	parts := make([]Assign, 1+len(kidBatches))
	nEntries, nPieces := 0, 0
	for c := range parts {
		nEntries += min(nE, consumer(c).Len())
	}
	for _, ea := range combined.Entries {
		// The consumers cut the entry's pieces into at most
		// len(ea.Del)+len(parts)-1 parts.
		if len(ea.Del) > 0 {
			nPieces += len(ea.Del) + len(parts) - 1
		}
	}
	var entries []EntryAssign
	if nE > 0 {
		entries = make([]EntryAssign, nEntries)
	}
	ins := make([]Interval, nEntries*p)
	pieces := make([]Piece, 0, nPieces)
	for c, off := 0, 0; c < len(parts); c++ {
		l := min(nE, consumer(c).Len())
		parts[c].Entries = entries[off : off+l : off+l]
		for k := range parts[c].Entries {
			i := (off + k) * p
			parts[c].Entries[k].Ins = ins[i : i+p : i+p]
		}
		off += l
	}

	for j, ea := range combined.Entries {
		insBase, delBase := ea.InsBase, ea.DelBase
		// rest[0] is the next delete piece, cut positions of which are
		// already handed out.
		rest, cut := ea.Del, int64(0)
		var prev []Interval // the previous consumer's insert intervals
		for c := range parts {
			if j >= len(parts[c].Entries) {
				continue // no entry j: a zero contribution
			}
			e, out := &consumer(c).Entries[j], &parts[c].Entries[j]
			out.InsBase, out.DelBase = insBase, delBase
			for q, n := range e.Ins {
				lo := ea.Ins[q].Lo
				if prev != nil {
					lo = prev[q].Hi + 1
				}
				out.Ins[q] = Interval{Lo: lo, Hi: lo + n - 1}
				insBase += n
			}
			prev = out.Ins
			delBase += e.Del
			// Surplus deletes beyond the pieces get no position and return
			// ⊥; descending pieces (stack mode) are consumed top-down.
			start := len(pieces)
			for want := e.Del; want > 0 && len(rest) > 0; {
				pc := rest[0]
				if pc.Desc {
					pc.Iv.Hi -= cut
				} else {
					pc.Iv.Lo += cut
				}
				if sz := pc.Iv.Size(); sz <= want {
					pieces = append(pieces, pc)
					want -= sz
					rest, cut = rest[1:], 0
					continue
				}
				if pc.Desc {
					pc.Iv.Lo = pc.Iv.Hi - want + 1
				} else {
					pc.Iv.Hi = pc.Iv.Lo + want - 1
				}
				pieces = append(pieces, pc)
				cut += want
				want = 0
			}
			if n := len(pieces); n > start {
				out.Del = pieces[start:n:n]
			}
		}
		for q, iv := range ea.Ins {
			end := iv.Lo - 1
			if prev != nil {
				end = prev[q].Hi
			}
			if end != iv.Hi {
				panic("batch: insert decomposition does not cover the interval")
			}
		}
	}
	kidA = make([]*Assign, len(kidBatches))
	for i := range kidA {
		kidA[i] = &parts[1+i]
	}
	return &parts[0], kidA
}

// PieceTotal returns the number of positions covered by pieces.
func PieceTotal(pieces []Piece) int64 {
	var t int64
	for _, pc := range pieces {
		t += pc.Iv.Size()
	}
	return t
}
