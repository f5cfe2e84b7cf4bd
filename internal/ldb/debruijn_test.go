package ldb

import (
	"testing"
	"testing/quick"
)

// The classical d-dimensional de Bruijn graph and its bitshift routing
// (paper §2.1, Definition 2.1): the routing blueprint the LDB overlay
// emulates (Lemma 2.2(v), Lemma A.3), and the reference the emulation
// tests check it against.

// dbNode is a vertex of the d-dimensional de Bruijn graph: a bitstring
// (x₁,…,x_d) packed into the low d bits of an integer, x₁ being the most
// significant of those bits.
type dbNode uint64

// deBruijn is the standard binary de Bruijn graph of dimension d with 2^d
// nodes.
type deBruijn struct {
	d int
}

// newDeBruijn returns the d-dimensional de Bruijn graph. d must be in [1,62].
func newDeBruijn(d int) deBruijn {
	if d < 1 || d > 62 {
		panic("de Bruijn graph: dimension out of range")
	}
	return deBruijn{d: d}
}

// Dim returns the dimension d.
func (g deBruijn) Dim() int { return g.d }

// Size returns the number of nodes, 2^d.
func (g deBruijn) Size() int { return 1 << g.d }

// Neighbors returns the two out-neighbours of x: (j, x₁, …, x_{d-1}) for
// j ∈ {0,1}, i.e. a right-shift of the bitstring with j prepended.
func (g deBruijn) Neighbors(x dbNode) [2]dbNode {
	shifted := x >> 1
	hi := dbNode(1) << (g.d - 1)
	return [2]dbNode{shifted, shifted | hi}
}

// HasEdge reports whether (x,y) is an edge of the graph.
func (g deBruijn) HasEdge(x, y dbNode) bool {
	n := g.Neighbors(x)
	return y == n[0] || y == n[1]
}

// Route returns the bitshift routing path from s to t: exactly d hops, each
// prepending the next bit of t (from its least-significant position
// upward), as in the worked d=3 example of §2.1. The returned path includes
// both endpoints and has length d+1.
func (g deBruijn) Route(s, t dbNode) []dbNode {
	path := make([]dbNode, 0, g.d+1)
	cur := s
	path = append(path, cur)
	hi := dbNode(1) << (g.d - 1)
	for i := 0; i < g.d; i++ {
		bit := (t >> i) & 1
		cur = cur >> 1
		if bit == 1 {
			cur |= hi
		}
		path = append(path, cur)
	}
	return path
}

// Bits returns the bitstring (x₁,…,x_d) of node x, most significant first.
func (g deBruijn) Bits(x dbNode) []int {
	bits := make([]int, g.d)
	for i := 0; i < g.d; i++ {
		bits[i] = int((x >> (g.d - 1 - i)) & 1)
	}
	return bits
}

// FromBits packs a bitstring (x₁,…,x_d) into a dbNode.
func (g deBruijn) FromBits(bits []int) dbNode {
	if len(bits) != g.d {
		panic("de Bruijn graph: wrong bitstring length")
	}
	var x dbNode
	for _, b := range bits {
		x = x<<1 | dbNode(b&1)
	}
	return x
}

// Point maps node x to the point 0.x₁x₂…x_d ∈ [0,1), the continuous
// embedding used by the continuous–discrete approach (Appendix A): the de
// Bruijn edges of x are exactly the points x/2 and (x+1)/2.
func (g deBruijn) Point(x dbNode) float64 {
	return float64(x) / float64(uint64(1)<<g.d)
}

// FromPoint maps a point in [0,1) to the node whose interval contains it.
func (g deBruijn) FromPoint(p float64) dbNode {
	if p < 0 || p >= 1 {
		panic("de Bruijn graph: point out of [0,1)")
	}
	return dbNode(p * float64(uint64(1)<<g.d))
}

func TestPaperRoutingExample(t *testing.T) {
	// §2.1: for d=3, route from s=(s1,s2,s3) to t=(t1,t2,t3) via
	// ((s1,s2,s3),(t3,s1,s2),(t2,t3,s1),(t1,t2,t3)).
	g := newDeBruijn(3)
	s := g.FromBits([]int{1, 0, 1})
	tt := g.FromBits([]int{0, 1, 1})
	path := g.Route(s, tt)
	want := [][]int{
		{1, 0, 1},
		{1, 1, 0}, // (t3,s1,s2)
		{1, 1, 1}, // (t2,t3,s1)
		{0, 1, 1}, // (t1,t2,t3)
	}
	if len(path) != 4 {
		t.Fatalf("path length %d", len(path))
	}
	for i, w := range want {
		if path[i] != g.FromBits(w) {
			t.Fatalf("hop %d: got %v want %v", i, g.Bits(path[i]), w)
		}
	}
}

func TestRouteReachesTarget(t *testing.T) {
	f := func(sRaw, tRaw uint16, dRaw uint8) bool {
		d := int(dRaw%10) + 1
		g := newDeBruijn(d)
		s := dbNode(uint64(sRaw) % uint64(g.Size()))
		tt := dbNode(uint64(tRaw) % uint64(g.Size()))
		path := g.Route(s, tt)
		return len(path) == d+1 && path[0] == s && path[len(path)-1] == tt
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRouteFollowsEdges(t *testing.T) {
	f := func(sRaw, tRaw uint16) bool {
		g := newDeBruijn(8)
		s := dbNode(uint64(sRaw) % uint64(g.Size()))
		tt := dbNode(uint64(tRaw) % uint64(g.Size()))
		path := g.Route(s, tt)
		for i := 1; i < len(path); i++ {
			if !g.HasEdge(path[i-1], path[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNeighborsAreShifts(t *testing.T) {
	g := newDeBruijn(3)
	// (x1,x2,x3) -> (j,x1,x2): node 0b101 -> 0b010 and 0b110.
	n := g.Neighbors(g.FromBits([]int{1, 0, 1}))
	if n[0] != g.FromBits([]int{0, 1, 0}) || n[1] != g.FromBits([]int{1, 1, 0}) {
		t.Fatalf("neighbors wrong: %v %v", g.Bits(n[0]), g.Bits(n[1]))
	}
}

func TestBitsRoundTrip(t *testing.T) {
	f := func(x uint16, dRaw uint8) bool {
		d := int(dRaw%12) + 1
		g := newDeBruijn(d)
		v := dbNode(uint64(x) % uint64(g.Size()))
		return g.FromBits(g.Bits(v)) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPointRoundTrip(t *testing.T) {
	g := newDeBruijn(10)
	for x := 0; x < g.Size(); x += 17 {
		if g.FromPoint(g.Point(dbNode(x))) != dbNode(x) {
			t.Fatalf("point round trip failed for %d", x)
		}
	}
}

func TestPointIsDeBruijnContinuous(t *testing.T) {
	// The de Bruijn neighbours of point p are p/2 and (p+1)/2: the
	// continuous embedding behind the LDB's virtual edges.
	g := newDeBruijn(6)
	for x := 0; x < g.Size(); x++ {
		n := g.Neighbors(dbNode(x))
		p := g.Point(dbNode(x))
		got0, got1 := g.Point(n[0]), g.Point(n[1])
		// Truncation to d bits of p/2 and (p+1)/2.
		want0 := g.Point(g.FromPoint(p / 2))
		want1 := g.Point(g.FromPoint((p + 1) / 2))
		if got0 != want0 || got1 != want1 {
			t.Fatalf("x=%d: got (%v,%v) want (%v,%v)", x, got0, got1, want0, want1)
		}
	}
}

func TestDimensionValidation(t *testing.T) {
	for _, d := range []int{0, -1, 63} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("newDeBruijn(%d) must panic", d)
				}
			}()
			newDeBruijn(d)
		}()
	}
}
