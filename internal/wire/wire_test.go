package wire_test

// The test package is external so it can import every protocol package for
// its init-time registrations without creating an import cycle.

import (
	"bytes"
	"reflect"
	"testing"

	"dpq/internal/sim"
	"dpq/internal/wire"

	_ "dpq/internal/aggtree"
	_ "dpq/internal/batch"
	_ "dpq/internal/dht"
	_ "dpq/internal/kselect"
	_ "dpq/internal/ldb"
	_ "dpq/internal/relax"
	_ "dpq/internal/seap"
)

// wantKinds is the full protocol-message inventory of the repo. A new
// message type must be registered and added here, or this test fails —
// the registry can never silently fall behind the protocols.
var wantKinds = []string{
	"xport/msg", "xport/ack",
	"tree/start", "tree/up", "tree/down",
	"val/int", "val/int2", "val/key", "val/keyrange", "val/interval", "val/nil",
	"batch/batch", "batch/assign",
	"ldb/route", "ldb/splice", "ldb/leave", "ldb/midpred",
	"dht/put", "dht/get", "dht/reply",
	"sort/sample-root", "sort/seek", "sort/arrive", "sort/copy", "sort/vector", "sort/ordered",
	"kselect/window-params", "kselect/sample-params", "kselect/pos-share", "kselect/done",
	"seap/val-share", "seap/assign-params",
	"skeap/reset", "skeap/quiet", "skeap/wake",
	"relax/probe", "relax/probe-reply", "relax/pop", "relax/pop-reply",
	"relax/steal", "relax/steal-reply",
}

func TestRegistryCoversAllProtocols(t *testing.T) {
	got := map[string]bool{}
	for _, n := range wire.RegisteredNames() {
		got[n] = true
	}
	for _, n := range wantKinds {
		if !got[n] {
			t.Errorf("kind %q not registered", n)
		}
		delete(got, n)
	}
	for n := range got {
		t.Errorf("kind %q registered but missing from the test inventory", n)
	}
}

func TestRoundTripAllRegistered(t *testing.T) {
	for _, name := range wire.RegisteredNames() {
		samples := wire.Samples(name)
		if len(samples) == 0 {
			t.Errorf("%s: no samples", name)
			continue
		}
		for i, msg := range samples {
			data, err := wire.Marshal(msg)
			if err != nil {
				t.Errorf("%s[%d]: marshal: %v", name, i, err)
				continue
			}
			back, err := wire.Unmarshal(data)
			if err != nil {
				t.Errorf("%s[%d]: unmarshal: %v", name, i, err)
				continue
			}
			if !reflect.DeepEqual(msg, back) {
				t.Errorf("%s[%d]: round trip mismatch:\n  sent %#v\n  got  %#v", name, i, msg, back)
			}
			again, err := wire.Marshal(back)
			if err != nil || !bytes.Equal(data, again) {
				t.Errorf("%s[%d]: re-marshal not canonical (err=%v)", name, i, err)
			}
		}
	}
}

// TestTruncatedInputs checks that every strict prefix of a valid encoding
// errors cleanly (never panics, never succeeds: all messages have a
// non-empty body behind the kind id, except zero-body kinds which are
// exactly the id).
func TestTruncatedInputs(t *testing.T) {
	for _, name := range wire.RegisteredNames() {
		for i, msg := range wire.Samples(name) {
			data, err := wire.Marshal(msg)
			if err != nil {
				t.Fatalf("%s[%d]: marshal: %v", name, i, err)
			}
			for cut := 0; cut < len(data); cut++ {
				prefix := data[:cut]
				back, err := wire.Unmarshal(prefix)
				if err == nil {
					// A prefix may only decode if it is itself a complete
					// encoding of some message — impossible for a strict
					// prefix of a canonical encoding unless it re-encodes
					// to itself, which the canonical property rules out
					// for proper prefixes of data. Defensive check:
					again, _ := wire.Marshal(back)
					if bytes.Equal(again, data) {
						t.Errorf("%s[%d]: prefix of %d/%d bytes decoded to the full message", name, i, cut, len(data))
					}
				}
			}
		}
	}
}

func TestTrailingBytesRejected(t *testing.T) {
	data, err := wire.Marshal(&sim.TransportAck{Seq: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wire.Unmarshal(append(data, 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestUnknownKindRejected(t *testing.T) {
	if _, err := wire.Unmarshal([]byte{0xde, 0xad, 0xbe, 0xef, 1, 2, 3}); err == nil {
		t.Fatal("unknown kind id accepted")
	}
}

func TestNilAndEmptyRejected(t *testing.T) {
	if _, err := wire.Unmarshal(nil); err == nil {
		t.Fatal("empty input accepted")
	}
	// id 0 is the reserved nil message — invalid at top level.
	if _, err := wire.Unmarshal([]byte{0, 0, 0, 0}); err == nil {
		t.Fatal("nil message accepted at top level")
	}
	if _, err := wire.Marshal(nil); err == nil {
		t.Fatal("marshal of nil accepted")
	}
}

func TestNestingDepthBounded(t *testing.T) {
	// Build a transport frame nested beyond MaxNesting. The encoder allows
	// it (it cannot occur in the runtime), the decoder must reject it
	// rather than recurse unboundedly.
	var msg sim.Message = &sim.TransportAck{Seq: 1}
	for i := 0; i < wire.MaxNesting+2; i++ {
		msg = &sim.TransportMsg{Seq: uint64(i), Payload: msg}
	}
	data, err := wire.Marshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wire.Unmarshal(data); err == nil {
		t.Fatal("over-deep nesting accepted")
	}
}

// FuzzRoundTrip asserts the canonical-encoding property on arbitrary
// bytes: whenever Unmarshal accepts an input, re-marshaling the decoded
// message must reproduce the input exactly. (Byte comparison rather than
// DeepEqual sidesteps NaN float fields, which compare unequal to
// themselves but round-trip bit-exactly.)
func FuzzRoundTrip(f *testing.F) {
	for _, name := range wire.RegisteredNames() {
		for _, msg := range wire.Samples(name) {
			data, err := wire.Marshal(msg)
			if err != nil {
				f.Fatalf("%s: marshal: %v", name, err)
			}
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := wire.Unmarshal(data)
		if err != nil {
			return
		}
		again, err := wire.Marshal(msg)
		if err != nil {
			t.Fatalf("decoded message %T does not re-marshal: %v", msg, err)
		}
		if !bytes.Equal(data, again) {
			t.Fatalf("non-canonical accept: %x decoded to %T, re-marshals to %x", data, msg, again)
		}
	})
}
