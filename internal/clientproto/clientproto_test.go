package clientproto

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestRequestRoundTrip(t *testing.T) {
	cases := []*Request{
		{Op: OpInsert, ReqID: 7, Prio: 3, Payload: "hello"},
		{Op: OpInsert, ReqID: 0, Prio: 0},
		{Op: OpDelete, ReqID: 9},
		{Op: OpAck, ReqID: 10, ID: 1<<40 | 17},
		{Op: OpNack, ReqID: 11, ID: 42},
	}
	for _, req := range cases {
		var buf bytes.Buffer
		if err := WriteRequest(&buf, req); err != nil {
			t.Fatal(err)
		}
		got, err := ReadRequest(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if *got != *req {
			t.Fatalf("round trip: sent %+v got %+v", req, got)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	cases := []*Response{
		{ReqID: 7, Status: StatusInserted, ID: 12, Value: 3},
		{ReqID: 8, Status: StatusElem, ID: 12, Prio: 2, Value: 9, Deliveries: 1},
		{ReqID: 9, Status: StatusBottom, Value: 11},
		{ReqID: 10, Status: StatusElem, ID: 13, Prio: 1, Value: 12, Deliveries: 3},
		{ReqID: 11, Status: StatusAcked, ID: 13},
		{ReqID: 12, Status: StatusNacked, ID: 14},
	}
	for _, resp := range cases {
		var buf bytes.Buffer
		if err := WriteResponse(&buf, resp); err != nil {
			t.Fatal(err)
		}
		got, err := ReadResponse(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if *got != *resp {
			t.Fatalf("round trip: sent %+v got %+v", resp, got)
		}
	}
}

// TestErrorCodeRoundTrip round-trips a StatusError response for every
// defined code and checks Response.Err surfaces the typed error.
func TestErrorCodeRoundTrip(t *testing.T) {
	codes := Codes()
	if len(codes) != errCodeCount-1 {
		t.Fatalf("Codes() returned %d codes, want %d", len(codes), errCodeCount-1)
	}
	for _, code := range codes {
		resp := &Response{ReqID: 41, Status: StatusError, Code: code}
		var buf bytes.Buffer
		if err := WriteResponse(&buf, resp); err != nil {
			t.Fatal(err)
		}
		got, err := ReadResponse(&buf)
		if err != nil {
			t.Fatalf("code %s: %v", code, err)
		}
		if *got != *resp {
			t.Fatalf("code %s: round trip %+v → %+v", code, resp, got)
		}
		var pe *ProtoError
		if err := got.Err(); !errors.As(err, &pe) || pe.Code != code || pe.ReqID != 41 {
			t.Fatalf("code %s: Err() = %v", code, err)
		}
		if !strings.Contains(pe.Error(), code.String()) {
			t.Fatalf("error text %q does not name the code %q", pe.Error(), code)
		}
	}
	// An ok status must not carry a code; an error status must carry one.
	var buf bytes.Buffer
	if err := WriteResponse(&buf, &Response{Status: StatusElem, Code: ErrBadOp}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadResponse(&buf); err == nil {
		t.Fatal("ok status with error code accepted")
	}
	buf.Reset()
	if err := WriteResponse(&buf, &Response{Status: StatusError, Code: ErrNone}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadResponse(&buf); err == nil {
		t.Fatal("error status without code accepted")
	}
	if (&Response{Status: StatusElem}).Err() != nil {
		t.Fatal("ok response reported an error")
	}
}

// TestReqErrorKeepsStreamUsable checks the recoverable-rejection contract:
// after a well-delimited invalid frame ReadRequest returns *ReqError with
// the right code and the next frame on the same stream decodes cleanly.
func TestReqErrorKeepsStreamUsable(t *testing.T) {
	var stream bytes.Buffer

	// Frame 1: unknown op (well-delimited).
	var bad bytes.Buffer
	if err := WriteRequest(&bad, &Request{Op: OpInsert, ReqID: 5, Payload: "x"}); err != nil {
		t.Fatal(err)
	}
	frame := bad.Bytes()
	frame[4] = 99
	stream.Write(frame)
	// Frame 2: trailing garbage inside the frame body.
	var trail bytes.Buffer
	if err := WriteRequest(&trail, &Request{Op: OpDelete, ReqID: 6}); err != nil {
		t.Fatal(err)
	}
	tf := append(trail.Bytes(), 0xAB)
	tf[3] += 1 // grow the declared length to cover the garbage byte
	stream.Write(tf)
	// Frame 3: a valid request that must still decode.
	if err := WriteRequest(&stream, &Request{Op: OpDelete, ReqID: 7}); err != nil {
		t.Fatal(err)
	}

	var re *ReqError
	if _, err := ReadRequest(&stream); !errors.As(err, &re) || re.Code != ErrBadOp || re.ReqID != 5 {
		t.Fatalf("bad op: got %v", err)
	}
	if _, err := ReadRequest(&stream); !errors.As(err, &re) || re.Code != ErrMalformed || re.ReqID != 6 {
		t.Fatalf("trailing bytes: got %v", err)
	}
	req, err := ReadRequest(&stream)
	if err != nil || req.ReqID != 7 || req.Op != OpDelete {
		t.Fatalf("stream desynced after rejections: %+v, %v", req, err)
	}
}

// TestPayloadTooLarge checks both directions refuse oversized payloads
// with the typed code.
func TestPayloadTooLarge(t *testing.T) {
	big := strings.Repeat("p", MaxPayload+1)
	var re *ReqError
	var buf bytes.Buffer
	if err := WriteRequest(&buf, &Request{Op: OpInsert, ReqID: 3, Payload: big}); !errors.As(err, &re) || re.Code != ErrPayloadTooLarge {
		t.Fatalf("WriteRequest: got %v", err)
	}
	// Hand-build the oversized frame to exercise the read side.
	ok := &Request{Op: OpInsert, ReqID: 3, Payload: strings.Repeat("p", MaxPayload)}
	if err := WriteRequest(&buf, ok); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadRequest(&buf); err != nil {
		t.Fatalf("payload at the bound rejected: %v", err)
	}
}

func TestMalformedInputs(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteRequest(&buf, &Request{Op: OpInsert, ReqID: 1, Payload: "x"}); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut++ {
		if _, err := ReadRequest(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("prefix of %d/%d bytes accepted", cut, len(full))
		}
	}
	// Unknown op code.
	bad := append([]byte(nil), full...)
	bad[4] = 99
	if _, err := ReadRequest(bytes.NewReader(bad)); err == nil {
		t.Fatal("unknown op accepted")
	}
	// Unknown status.
	buf.Reset()
	if err := WriteResponse(&buf, &Response{ReqID: 1, Status: StatusElem}); err != nil {
		t.Fatal(err)
	}
	bad = buf.Bytes()
	bad[4+8] = 77
	if _, err := ReadResponse(bytes.NewReader(bad)); err == nil {
		t.Fatal("unknown status accepted")
	}
	// Oversized frame length.
	if _, err := ReadRequest(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff, 0, 0})); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

// FuzzReadRequest decodes a stream of frames through one Decoder into one
// reused Request and requires, frame by frame, what ReadRequest returns on
// the same bytes, errors included, with both at the same stream offset.
// Every payload decoded so far must still read as it did when its frame
// was decoded: a payload that pointed into the decoder's reused buffer
// would change when a later frame overwrote it.
func FuzzReadRequest(f *testing.F) {
	frames := func(reqs ...*Request) []byte {
		var buf bytes.Buffer
		for _, r := range reqs {
			if err := WriteRequest(&buf, r); err != nil {
				f.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	f.Add(frames(
		&Request{Op: OpInsert, ReqID: 1, Prio: 2, Payload: "first"},
		&Request{Op: OpInsert, ReqID: 2, Prio: 0, Payload: "second, longer"},
		&Request{Op: OpDelete, ReqID: 3},
		&Request{Op: OpAck, ReqID: 4, ID: 1 << 40},
		&Request{Op: OpNack, ReqID: 5, ID: 7},
		&Request{Op: OpLeaseScan, ReqID: 6, ID: 9},
	))
	badOp := frames(&Request{Op: OpDelete, ReqID: 7})
	badOp[4] = 99
	f.Add(append(badOp, frames(&Request{Op: OpInsert, ReqID: 8, Payload: "after"})...))
	trailing := append(frames(&Request{Op: OpDelete, ReqID: 9}), 0xAB)
	trailing[3]++
	f.Add(append(trailing, frames(&Request{Op: OpInsert, ReqID: 10, Payload: "x"})...))
	big := frames(&Request{Op: OpInsert, ReqID: 11, Payload: strings.Repeat("b", keepFrame)})
	f.Add(append(big, frames(&Request{Op: OpInsert, ReqID: 12, Payload: "small"})...))
	f.Add(frames(&Request{Op: OpInsert, ReqID: 13, Payload: "cut"})[:12])
	f.Fuzz(func(t *testing.T, stream []byte) {
		ref := bytes.NewReader(stream)
		in := bytes.NewReader(stream)
		dec := NewDecoder(in)
		var req Request
		var got, want []string
		for frame := 0; ; frame++ {
			wantReq, wantErr := ReadRequest(ref)
			err := dec.Request(&req)
			if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("frame %d: decoder error %v, ReadRequest error %v", frame, err, wantErr)
			}
			if in.Len() != ref.Len() {
				t.Fatalf("frame %d: decoder left %d bytes, ReadRequest %d", frame, in.Len(), ref.Len())
			}
			if err != nil {
				var re *ReqError
				if errors.As(err, &re) {
					continue
				}
				return
			}
			if req != *wantReq {
				t.Fatalf("frame %d: decoded %+v, ReadRequest %+v", frame, req, *wantReq)
			}
			got, want = append(got, req.Payload), append(want, strings.Clone(wantReq.Payload))
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("frame %d: payload %d changed to %q, was %q", frame, i, got[i], want[i])
				}
			}
		}
	})
}
