// Package clientproto is the client-facing protocol of cmd/dpqd: framed
// Insert/DeleteMin requests and completion responses over one TCP
// connection. Requests on a connection are served in order and pipelining
// is expected — the daemon answers when the heap protocol completes the
// operation, so many requests are usually in flight; the per-connection
// FIFO plus the daemon's per-connection host pinning makes response
// serialization values monotone per connection, which the load generator
// verifies.
//
// Frames reuse the internal/wire primitives: a u32 length prefix followed
// by the body. All decoding errors are returned, never panicked, so a
// daemon survives malformed clients. Rejections travel as typed error
// codes (ErrCode) carried in a StatusError response rather than as closed
// connections or bare strings: a well-delimited but invalid request frame
// yields a *ReqError on the server, which answers with the code and keeps
// serving, and the matching *ProtoError on the client.
package clientproto

import (
	"encoding/binary"
	"fmt"
	"io"

	"dpq/internal/wire"
)

// Op codes.
const (
	OpInsert = 1
	OpDelete = 2
	OpAck    = 3 // settle a leased element for good (ID names the element)
	OpNack   = 4 // return a leased element for immediate redelivery
	// OpLeaseScan iterates a daemon's live leases for restart
	// reconciliation: ID carries the cursor (scan after this element id)
	// and the response names the smallest leased id above it (StatusElem —
	// the element is only named, NOT leased to the caller) or StatusBottom
	// when the scan is done. Daemons issue it to each other; ordinary
	// clients never need it.
	OpLeaseScan = 5
)

// Response statuses.
const (
	StatusInserted = 1 // insert completed; ID echoes the assigned element id
	StatusElem     = 2 // delete returned an element, now leased to the caller
	StatusBottom   = 3 // delete returned ⊥ (empty heap)
	StatusError    = 4 // request rejected; Code carries the typed reason
	StatusAcked    = 5 // ack settled the element; it will never redeliver
	StatusNacked   = 6 // nack reinserted the element for redelivery
	// StatusUnavailable parks the request retryably: the daemon cannot
	// complete it right now because a peer daemon is down (degraded mode),
	// but retrying the same request later is expected to succeed. Code
	// carries the reason (ErrPeerUnavailable).
	StatusUnavailable = 7
)

// ErrCode is the typed rejection reason carried on the wire with
// StatusError. Codes are part of the protocol: never renumber, only
// append.
type ErrCode uint8

const (
	ErrNone            ErrCode = 0 // no error (required outside StatusError)
	ErrBadOp           ErrCode = 1 // unknown op code
	ErrMalformed       ErrCode = 2 // request body failed to decode
	ErrPayloadTooLarge ErrCode = 3 // insert payload exceeds MaxPayload
	ErrShuttingDown    ErrCode = 4 // daemon is draining; no new operations
	ErrOverloaded      ErrCode = 5 // too many operations in flight
	ErrUnknownLease    ErrCode = 6 // ack/nack named an element not leased here
	ErrPeerUnavailable ErrCode = 7 // replicating the ack to the owner daemon failed; retry
)

// errCodeCount is the number of defined codes (fuzz/round-trip tests
// iterate the full range).
const errCodeCount = 8

func (c ErrCode) String() string {
	switch c {
	case ErrNone:
		return "none"
	case ErrBadOp:
		return "bad-op"
	case ErrMalformed:
		return "malformed-request"
	case ErrPayloadTooLarge:
		return "payload-too-large"
	case ErrShuttingDown:
		return "shutting-down"
	case ErrOverloaded:
		return "overloaded"
	case ErrUnknownLease:
		return "unknown-lease"
	case ErrPeerUnavailable:
		return "peer-unavailable"
	default:
		return fmt.Sprintf("err-code-%d", uint8(c))
	}
}

// Codes returns every defined error code except ErrNone, for exhaustive
// tests and diagnostics.
func Codes() []ErrCode {
	out := make([]ErrCode, 0, errCodeCount-1)
	for c := ErrCode(1); c < errCodeCount; c++ {
		out = append(out, c)
	}
	return out
}

// ProtoError is the client-side form of a StatusError response.
type ProtoError struct {
	Code  ErrCode
	ReqID uint64
}

func (e *ProtoError) Error() string {
	return fmt.Sprintf("clientproto: server rejected request %d: %s", e.ReqID, e.Code)
}

// ReqError is returned by ReadRequest when the frame was well-delimited
// but its body is invalid. The stream is still in sync (the whole frame
// was consumed), so a server answers with Code in a StatusError response
// and keeps serving the connection.
type ReqError struct {
	Code  ErrCode
	ReqID uint64 // 0 when the body broke before the request id
	Cause string
}

func (e *ReqError) Error() string {
	return fmt.Sprintf("clientproto: bad request %d (%s): %s", e.ReqID, e.Code, e.Cause)
}

// MaxPayload bounds an insert payload; longer payloads are rejected with
// ErrPayloadTooLarge while the connection keeps serving.
const MaxPayload = 1 << 16

// maxFrame bounds any client protocol frame.
const maxFrame = 1 << 20

// Request is one client operation.
type Request struct {
	Op      uint8
	ReqID   uint64
	Prio    uint64 // insert only; Skeap interprets it as a 0-based index
	Payload string // insert only
	ID      uint64 // ack/nack only: the leased element id being settled
}

// Response reports one completed or rejected operation.
type Response struct {
	ReqID  uint64
	Status uint8
	Code   ErrCode // StatusError only; ErrNone otherwise
	ID     uint64  // element id (inserted, deleted, or ack/nack echo)
	Prio   uint64  // deleted element's priority
	Value  int64   // protocol serialization value of the operation
	// Deliveries counts how many times the element of a StatusElem
	// response has been handed out, this delivery included: 1 on first
	// delivery, more after nacks or expired leases.
	Deliveries uint32
}

// Err returns the typed error of a StatusError or StatusUnavailable
// response, nil otherwise. StatusUnavailable errors carry
// ErrPeerUnavailable, which clients treat as retryable.
func (r *Response) Err() error {
	if r.Status != StatusError && r.Status != StatusUnavailable {
		return nil
	}
	return &ProtoError{Code: r.Code, ReqID: r.ReqID}
}

// Retryable reports whether the response is a transient degraded-mode
// rejection worth retrying with backoff.
func (r *Response) Retryable() bool {
	return r.Status == StatusUnavailable ||
		(r.Status == StatusError && r.Code == ErrPeerUnavailable)
}

// writeFrame sets the length word that opens b (written as 0 before the
// body) and writes the frame with one Write.
func writeFrame(w io.Writer, b *wire.Writer) error {
	frame := b.Bytes()
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))
	_, err := w.Write(frame)
	return err
}

// WriteRequest frames and writes one request.
func WriteRequest(w io.Writer, req *Request) error {
	if len(req.Payload) > MaxPayload {
		return &ReqError{Code: ErrPayloadTooLarge, ReqID: req.ReqID,
			Cause: fmt.Sprintf("payload %d bytes, max %d", len(req.Payload), MaxPayload)}
	}
	b := wire.GetWriter()
	defer wire.PutWriter(b)
	b.U32(0)
	b.U8(req.Op)
	b.U64(req.ReqID)
	switch req.Op {
	case OpInsert:
		b.U64(req.Prio)
		b.String(req.Payload)
	case OpAck, OpNack, OpLeaseScan:
		b.U64(req.ID)
	}
	return writeFrame(w, b)
}

// WriteResponse frames and writes one response.
func WriteResponse(w io.Writer, resp *Response) error {
	b := wire.GetWriter()
	defer wire.PutWriter(b)
	b.U32(0)
	b.U64(resp.ReqID)
	b.U8(resp.Status)
	b.U8(uint8(resp.Code))
	b.U64(resp.ID)
	b.U64(resp.Prio)
	b.I64(resp.Value)
	b.U32(resp.Deliveries)
	return writeFrame(w, b)
}

// keepFrame is the largest frame buffer a Decoder keeps for the next
// frame; a larger frame gets a buffer of its own, so one oversized insert
// does not pin its size for the rest of the connection.
const keepFrame = 4 << 10

// Decoder reads the frames of one stream into a buffer it reuses, so a
// connection decodes request after request without allocating. Nothing a
// decoded Request or Response holds points into that buffer: an insert's
// payload, which outlives the request, is copied out.
type Decoder struct {
	r    io.Reader
	head [4]byte
	buf  []byte
	fr   wire.Reader
}

// NewDecoder decodes the frames r delivers. It reads exactly one frame
// per call, so r may be read by other means between calls.
func NewDecoder(r io.Reader) *Decoder { return &Decoder{r: r} }

// frame reads one frame and points d.fr at its body.
func (d *Decoder) frame() error {
	if _, err := io.ReadFull(d.r, d.head[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(d.head[:])
	if n == 0 || n > maxFrame {
		return fmt.Errorf("clientproto: implausible frame length %d", n)
	}
	body := d.buf
	if int(n) > cap(body) {
		body = make([]byte, n)
		if n <= keepFrame {
			d.buf = body
		}
	}
	body = body[:n]
	if _, err := io.ReadFull(d.r, body); err != nil {
		return err
	}
	d.fr.Reset(body)
	return nil
}

// Request decodes the next frame into req, overwriting all of it. A
// *ReqError return means the frame itself was consumed and the stream is
// still usable; any other error is fatal for the connection.
func (d *Decoder) Request(req *Request) error {
	if err := d.frame(); err != nil {
		return err
	}
	fr := &d.fr
	*req = Request{}
	req.Op = fr.U8()
	req.ReqID = fr.U64()
	if err := fr.Err(); err != nil {
		return &ReqError{Code: ErrMalformed, Cause: err.Error()}
	}
	switch req.Op {
	case OpInsert:
		req.Prio = fr.U64()
		req.Payload = fr.String()
	case OpDelete:
	case OpAck, OpNack, OpLeaseScan:
		req.ID = fr.U64()
	default:
		return &ReqError{Code: ErrBadOp, ReqID: req.ReqID, Cause: fmt.Sprintf("op %d", req.Op)}
	}
	if err := fr.Err(); err != nil {
		return &ReqError{Code: ErrMalformed, ReqID: req.ReqID, Cause: err.Error()}
	}
	if fr.Remaining() > 0 {
		return &ReqError{Code: ErrMalformed, ReqID: req.ReqID,
			Cause: fmt.Sprintf("%d trailing bytes in request", fr.Remaining())}
	}
	if len(req.Payload) > MaxPayload {
		return &ReqError{Code: ErrPayloadTooLarge, ReqID: req.ReqID,
			Cause: fmt.Sprintf("payload %d bytes, max %d", len(req.Payload), MaxPayload)}
	}
	return nil
}

// Response decodes the next frame into resp, overwriting all of it.
// StatusError responses are values, not errors — callers route them with
// Response.Err.
func (d *Decoder) Response(resp *Response) error {
	if err := d.frame(); err != nil {
		return err
	}
	fr := &d.fr
	resp.ReqID = fr.U64()
	resp.Status = fr.U8()
	resp.Code = ErrCode(fr.U8())
	resp.ID = fr.U64()
	resp.Prio = fr.U64()
	resp.Value = fr.I64()
	resp.Deliveries = fr.U32()
	if err := fr.Err(); err != nil {
		return err
	}
	if fr.Remaining() > 0 {
		return fmt.Errorf("clientproto: %d trailing bytes in response", fr.Remaining())
	}
	switch resp.Status {
	case StatusInserted, StatusElem, StatusBottom, StatusAcked, StatusNacked:
		if resp.Code != ErrNone {
			return fmt.Errorf("clientproto: status %d carries error code %s", resp.Status, resp.Code)
		}
		return nil
	case StatusError, StatusUnavailable:
		if resp.Code == ErrNone || resp.Code >= errCodeCount {
			return fmt.Errorf("clientproto: error response with invalid code %d", uint8(resp.Code))
		}
		return nil
	default:
		return fmt.Errorf("clientproto: unknown status %d", resp.Status)
	}
}

// ReadRequest reads one framed request (Decoder.Request on a decoder of
// its own).
func ReadRequest(r io.Reader) (*Request, error) {
	req := new(Request)
	if err := NewDecoder(r).Request(req); err != nil {
		return nil, err
	}
	return req, nil
}

// ReadResponse reads one framed response (Decoder.Response on a decoder
// of its own).
func ReadResponse(r io.Reader) (*Response, error) {
	resp := new(Response)
	if err := NewDecoder(r).Response(resp); err != nil {
		return nil, err
	}
	return resp, nil
}
