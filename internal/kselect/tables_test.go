package kselect

import (
	"fmt"
	"strings"
	"testing"

	"dpq/internal/hashutil"
	"dpq/internal/ldb"
	"dpq/internal/mathx"
	"dpq/internal/prio"
	"dpq/internal/sim"
)

// checkEpochTables fails t unless the ended epoch's tables are complete:
// all n′² holders installed and aggregated, all n′(n′−1)/2 pairs compared
// and every sorting root's order known.
func checkEpochTables(t *testing.T, tb *sortTables) {
	t.Helper()
	np := tb.nPrime
	holders, pairs, roots := int64(0), int64(0), int64(0)
	for _, h := range tb.holders {
		if h.state == entryDone {
			holders++
		}
	}
	for _, mp := range tb.meet {
		if mp.state == entryDone {
			pairs++
		}
	}
	for _, rt := range tb.roots {
		if rt.state == entryDone {
			roots++
		}
	}
	if holders != np*np || pairs != np*(np-1)/2 || roots != np {
		t.Errorf("n′=%d: %d holders aggregated, %d pairs compared, %d roots ordered; want %d, %d, %d",
			np, holders, pairs, roots, np*np, np*(np-1)/2, np)
	}
}

// TestSortTableInvariants: at a fixed seed whose selection runs phase-2
// epochs and then the exact phase, every sorting epoch installs exactly n′²
// holders (counted by HoldersCreated, apart from the tables) and compares
// exactly n′(n′−1)/2 pairs; and each of the sort's invariant panics fires
// when its message is fed directly.
func TestSortTableInvariants(t *testing.T) {
	t.Run("epochs", func(t *testing.T) {
		ov := ldb.New(16, hashutil.New(5))
		sel := New(ov, hashutil.New(6))
		elems := sel.LoadUniform(512, 4*512, 7)
		eng := sel.NewSyncEngine(8)
		created := func() (c int64) {
			for _, nd := range sel.nodes {
				c += int64(nd.HoldersCreated())
			}
			return c
		}
		var installed int64
		phase2, exact := 0, 0
		done := watchEpochs(sel, func(tb *sortTables) {
			checkEpochTables(t, tb)
			if c := created(); c-installed != tb.nPrime*tb.nPrime {
				t.Errorf("epoch %d: %d holders installed, want n′²=%d", sel.SortingRounds(), c-installed, tb.nPrime*tb.nPrime)
			}
			installed = created()
			if sel.exact {
				exact++
			} else {
				phase2++
			}
		})
		sel.Start(eng.Context(sel.Anchor()), 256)
		if !eng.RunUntil(done, 3000*(mathx.Log2Ceil(16)+4)) {
			t.Fatal("selection did not finish")
		}
		if installed != created() {
			t.Fatalf("%d holders installed outside the observed epochs", created()-installed)
		}
		t.Logf("%d phase-2 and %d exact epochs, %d holders", phase2, exact, installed)
		if phase2 == 0 || exact != 1 {
			t.Fatalf("observed %d phase-2 and %d exact epochs, want some and 1", phase2, exact)
		}
		if want := expected(elems, 256); sel.Result().Elem != want {
			t.Fatalf("got %v want %v", sel.Result().Elem, want)
		}
	})

	t.Run("panics", func(t *testing.T) {
		ov := ldb.New(4, hashutil.New(1))
		sel := New(ov, hashutil.New(2))
		eng := sel.NewSyncEngine(3)
		const epoch = 2
		sel.tables.reset(4)
		for _, nd := range sel.nodes {
			nd.epoch = epoch
		}
		a, b := sim.NodeID(0), sim.NodeID(1)
		feed := func(at sim.NodeID, msg sim.Message) {
			if _, routed := msg.(*CopyMsg); routed {
				sel.nodes[at].HandleRouted(eng.Context(at), ov.Info(at), msg)
				return
			}
			sel.nodes[at].Handle(eng.Context(at), at, sim.None, msg)
		}
		mustPanic := func(want string, at sim.NodeID, msg sim.Message) {
			t.Helper()
			defer func() {
				t.Helper()
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
					t.Errorf("%T at node %d: panic %v, want %q", msg, at, r, want)
				}
			}()
			feed(at, msg)
		}
		arrive := func(ep uint64, root, j int64) *DistArriveMsg {
			return &DistArriveMsg{Epoch: ep, Root: root, Lo: j, Hi: j, Key: prio.Key{Prio: 5, ID: prio.ElemID(root)}, Parent: b, ParentJ: 1}
		}
		copyOf := func(i, j int64, holder sim.NodeID) *CopyMsg {
			return &CopyMsg{Epoch: epoch, I: i, J: j, Key: prio.Key{Prio: 5, ID: prio.ElemID(i)}, Holder: holder}
		}

		// 1. A message of an older epoch; a node that a sample's start
		// skipped adopts a later one from the first sorting message.
		mustPanic("stale epoch", a, arrive(epoch-1, 1, 2))
		mustPanic("stale epoch", a, &VecMsg{Epoch: epoch - 1, Root: 1, J: 2})
		mustPanic("stale epoch", a, &CopyMsg{Epoch: epoch - 1, I: 1, J: 2})
		skipped := sim.NodeID(2)
		sel.nodes[skipped].epoch = epoch - 1
		feed(skipped, copyOf(2, 4, skipped))
		if got := sel.nodes[skipped].epoch; got != epoch {
			t.Errorf("a skipped node at epoch %d kept epoch %d after a copy of epoch %d", epoch-1, got, epoch)
		}
		mustPanic("stale epoch", skipped, arrive(epoch-1, 2, 2))

		// 2. A second holder for one copy, at its node or another.
		feed(a, arrive(epoch, 1, 2))
		mustPanic("duplicate holder", a, arrive(epoch, 1, 2))
		mustPanic("duplicate holder", b, arrive(epoch, 1, 2))

		// 3. A vector for a holder that is not installed, hosted
		// elsewhere, already aggregated, or outside the table.
		mustPanic("vector for unknown holder", a, &VecMsg{Epoch: epoch, Root: 3, J: 3})
		mustPanic("hosted by another node", b, &VecMsg{Epoch: epoch, Root: 1, J: 2, L: 1})
		feed(a, &VecMsg{Epoch: epoch, Root: 1, J: 2, L: 1})
		mustPanic("vector for unknown holder", a, &VecMsg{Epoch: epoch, Root: 1, J: 2, L: 1})
		mustPanic("vector for unknown holder", a, &VecMsg{Epoch: epoch, Root: 5, J: 1})

		// 4. A third copy at a meeting point, and the two copies of a
		// pair at two nodes.
		feed(a, copyOf(3, 4, a))
		feed(a, copyOf(4, 3, b))
		mustPanic("more than two copies", a, copyOf(3, 4, a))
		feed(a, copyOf(1, 3, a))
		mustPanic("two meeting points", b, copyOf(3, 1, b))
	})
}

// FuzzKSelect checks KSelect against a local rank count over n ∈ [1, 40]
// processes, m ∈ [1, max(6n, n²)] elements, so that both sides of phase
// 1's m > n^{3/2} condition run, k ∈ [1, m], priorities in [1, bound]
// with bound ≤ 16 so that ties are common, and the seed; every sorting
// epoch's tables must end complete. The seeds include k = 1 and k = m, the
// windows without c_l or c_r, with and without phase 1.
//
//	go test ./internal/kselect -run '^$' -fuzz FuzzKSelect -fuzztime 30s
func FuzzKSelect(f *testing.F) {
	f.Add(uint8(4), uint16(50), uint16(10), uint8(3), uint64(1))
	f.Add(uint8(1), uint16(1), uint16(1), uint8(1), uint64(2))
	f.Add(uint8(39), uint16(239), uint16(120), uint8(15), uint64(3))
	f.Add(uint8(16), uint16(95), uint16(0), uint8(0), uint64(4))
	f.Add(uint8(31), uint16(1023), uint16(0), uint8(15), uint64(5))    // n=32, m=1024: phase 1, k=1
	f.Add(uint8(31), uint16(1023), uint16(1023), uint8(15), uint64(6)) // k=m
	f.Add(uint8(24), uint16(99), uint16(0), uint8(7), uint64(7))       // n=25, m=100: no phase 1, k=1
	f.Add(uint8(24), uint16(99), uint16(99), uint8(7), uint64(8))      // k=m
	f.Fuzz(func(t *testing.T, nRaw uint8, mRaw, kRaw uint16, boundRaw uint8, seed uint64) {
		n := int(nRaw)%40 + 1
		m := int(mRaw)%max(6*n, n*n) + 1
		k := int64(kRaw)%int64(m) + 1
		bound := uint64(boundRaw)%16 + 1
		sel := New(ldb.New(n, hashutil.New(seed)), hashutil.New(seed+1))
		elems := sel.LoadUniform(m, bound, seed+2)
		eng := sel.NewSyncEngine(seed + 3)
		done := watchEpochs(sel, func(tb *sortTables) { checkEpochTables(t, tb) })
		sel.Start(eng.Context(sel.Anchor()), k)
		if !eng.RunUntil(done, 3000*(mathx.Log2Ceil(n)+4)) {
			t.Fatalf("n=%d m=%d k=%d bound=%d: selection did not finish", n, m, k, bound)
		}
		got := sel.Result().Elem
		smaller, present := int64(0), false
		for _, e := range elems {
			if e.Less(got) {
				smaller++
			}
			present = present || e == got
		}
		if !present || smaller != k-1 {
			t.Fatalf("n=%d m=%d k=%d bound=%d: got %v, which %d loaded elements precede (present %v)", n, m, k, bound, got, smaller, present)
		}
	})
}
