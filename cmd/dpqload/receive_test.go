package main

import (
	"bufio"
	"bytes"
	"io"
	"sync/atomic"
	"testing"
	"time"

	"dpq/internal/clientproto"
)

// TestReceiveAllocatesNothing: once warm, reading a response — an insert's
// confirmation, or a delivery whose ack it chains — allocates nothing: one
// Decoder per connection decodes into one reused Response.
func TestReceiveAllocatesNothing(t *testing.T) {
	const runs = 1000
	var stream bytes.Buffer
	c := &conn{
		dec:       clientproto.NewDecoder(&stream),
		bw:        bufio.NewWriter(io.Discard),
		sent:      map[uint64]pendingReq{},
		mode:      "ack",
		consumed:  new(atomic.Int64),
		values:    make([]seqVal, 0, 2*runs+2),
		insertIDs: make([]uint64, 0, 2*runs+2),
		deleteIDs: make([]uint64, 0, 2*runs+2),
		latencies: make([]time.Duration, 0, 2*runs+2),
	}
	// AllocsPerRun calls the function once more than runs to warm up.
	for i := 0; i <= runs; i++ {
		id := c.nextReqID()
		resp := clientproto.Response{ReqID: id, ID: uint64(i + 1), Value: int64(i)}
		if i%2 == 0 {
			c.sent[id] = pendingReq{op: clientproto.OpInsert}
			resp.Status = clientproto.StatusInserted
		} else {
			c.sent[id] = pendingReq{op: clientproto.OpDelete}
			resp.Status, resp.Deliveries = clientproto.StatusElem, 1
		}
		if err := clientproto.WriteResponse(&stream, &resp); err != nil {
			t.Fatal(err)
		}
	}
	var err error
	allocs := testing.AllocsPerRun(runs, func() {
		if e := c.readOne(); e != nil {
			err = e
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("%.1f allocations per response, want 0", allocs)
	}
	if len(c.insertIDs) != runs/2+1 || len(c.deleteIDs) != runs/2 {
		t.Fatalf("read %d inserts and %d deliveries, want %d and %d", len(c.insertIDs), len(c.deleteIDs), runs/2+1, runs/2)
	}
}
