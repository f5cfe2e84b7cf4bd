package main

import (
	"bytes"
	"strings"
	"testing"

	"dpq/internal/aggtree"
	"dpq/internal/dht"
	"dpq/internal/hashutil"
	"dpq/internal/kselect"
	"dpq/internal/ldb"
	"dpq/internal/prio"
	"dpq/internal/sim"
	"dpq/internal/skeap"
)

// runTracedSkeapBatch drives one Skeap batch with a timeline attached.
func runTracedSkeapBatch(t *testing.T) *Timeline {
	t.Helper()
	h := skeap.New(skeap.Config{N: 8, P: 2, Seed: 61})
	h.SetAutoRepeat(false)
	rnd := hashutil.NewRand(62)
	id := prio.ElemID(1)
	for host := 0; host < 8; host++ {
		if rnd.Bool(0.7) {
			h.InjectInsert(host, id, rnd.Intn(2), "")
			id++
		} else {
			h.InjectDelete(host)
		}
	}
	tl := NewTimeline()
	eng := h.NewSyncEngine()
	eng.SetObserver(tl.Observer())
	h.StartIteration(eng.Context(h.Overlay().Anchor))
	if !eng.RunQuiescent(h.Done, 100000) {
		t.Fatal("batch incomplete")
	}
	return tl
}

func TestSkeapPhaseStructure(t *testing.T) {
	tl := runTracedSkeapBatch(t)
	// The four phases are visible in the timeline: tree-up traffic ends
	// before tree-down traffic ends, and DHT puts/gets start only after
	// the scatter began.
	upLast := tl.LastRound("tree/up[1]")
	downFirst := tl.FirstRound("tree/down[1]")
	putFirst := tl.FirstRound("route/put")
	if upLast == 0 || downFirst == 0 {
		t.Fatal("tree traffic missing")
	}
	if downFirst <= tl.FirstRound("tree/up[1]") {
		t.Fatal("scatter cannot begin before the first gather message")
	}
	if putFirst != 0 && putFirst <= tl.FirstRound("tree/down[1]") {
		t.Fatalf("DHT puts (round %d) before the scatter began (round %d)", putFirst, downFirst)
	}
}

func TestTimelineCounts(t *testing.T) {
	tl := runTracedSkeapBatch(t)
	// The batch skips the right leaves, which buffer no operation
	// (aggtree.SkipRightLeaves): it runs on the left and middle nodes of
	// the 8 hosts, the anchor and 2·8−1 others.
	const others = 2*8 - 1
	// Gather: every other node it runs on sends exactly one UpMsg.
	if got := tl.Count("tree/up[1]"); got != others {
		t.Fatalf("up messages %d, want %d", got, others)
	}
	// Scatter: one DownMsg per such node as well.
	if got := tl.Count("tree/down[1]"); got != others {
		t.Fatalf("down messages %d, want %d", got, others)
	}
	// Starts: one per such node.
	if got := tl.Count("tree/start[1]"); got != others {
		t.Fatalf("start messages %d, want %d", got, others)
	}
}

func TestSpansCompress(t *testing.T) {
	tl := NewTimeline()
	obs := tl.Observer()
	// Rounds 1-3 identical, round 4 different.
	for r := 1; r <= 3; r++ {
		obs(sim.Delivery{Round: r, Msg: &fakeMsg{}})
	}
	obs(sim.Delivery{Round: 4, Msg: &fakeMsg{}})
	obs(sim.Delivery{Round: 4, Msg: &fakeMsg{}})
	spans := tl.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans %+v", spans)
	}
	if spans[0].From != 1 || spans[0].To != 3 || spans[1].From != 4 || spans[1].To != 4 {
		t.Fatalf("span boundaries %+v", spans)
	}
}

func TestRenderFormat(t *testing.T) {
	tl := NewTimeline()
	tl.Observer()(sim.Delivery{Round: 1, Msg: &fakeMsg{}})
	var buf bytes.Buffer
	tl.Render(&buf)
	if !strings.Contains(buf.String(), "rounds") || !strings.Contains(buf.String(), "×1") {
		t.Fatalf("render output %q", buf.String())
	}
}

type fakeMsg struct{}

func (f *fakeMsg) Bits() int { return 1 }

func TestKindTable(t *testing.T) {
	// Every protocol message type must classify to a stable label.
	cases := map[string]interface{ Bits() int }{
		"tree/start[3]":     &aggtree.StartMsg{Tag: 3},
		"tree/up[4]":        &aggtree.UpMsg{Tag: 4, V: aggtree.NilVal{}},
		"tree/down[5]":      &aggtree.DownMsg{Tag: 5, V: aggtree.NilVal{}},
		"route/put":         &ldb.RouteMsg{Payload: &dht.PutMsg{}},
		"route/get":         &ldb.RouteMsg{Payload: &dht.GetMsg{}},
		"route/sample-root": &ldb.RouteMsg{Payload: &kselect.SampleRootMsg{}},
		"route/copy":        &ldb.RouteMsg{Payload: &kselect.CopyMsg{}},
		"dht/reply":         &dht.ReplyMsg{},
		"sort/seek":         &kselect.DistSeekMsg{},
		"sort/arrive":       &kselect.DistArriveMsg{},
		"sort/vector":       &kselect.VecMsg{},
	}
	for want, msg := range cases {
		if got := sim.KindOf(msg); got != want {
			t.Errorf("KindOf(%T) = %q, want %q", msg, got, want)
		}
	}
	if got := sim.KindOf(&fakeMsg{}); got == "" {
		t.Error("unknown types must still get a label")
	}
}
