// Write-ahead log and snapshots: the durable form of a daemon's pending
// set. Durability is deliberately *logical* — the WAL records accepted
// client operations (inserts and acks), not protocol messages, so recovery
// rebuilds the pending set and re-injects it into a fresh heap instead of
// trying to resurrect mid-protocol distributed state. Two record types
// suffice:
//
//	INSERT(id, prio, payload) — the element entered the pending set; logged
//	                            before the client's StatusInserted response.
//	ACK(id)                   — the element left the pending set for good;
//	                            logged before the StatusAcked response.
//
// Deletes, nacks and lease expiries never touch the log: a delivered
// element is still pending until acked (its lease implicitly expires at a
// crash), and a nack/expiry reinsertion is already covered by the
// element's original INSERT. The pending set at any instant is exactly
// {INSERTs} − {ACKs}.
//
// On-disk format. Both files live in one directory and start with an
// 8-byte magic. Every record and the snapshot body use the same frame:
//
//	u32 bodyLen | u32 crc32c(body) | body
//
// A WAL record body is `u64 seq | u8 type | u64 id [| u64 prio | string
// payload]`; the snapshot body is `u64 lastSeq | u64 maxID | u32 count |
// count × element`. Seqs increase monotonically across the daemon's life;
// the snapshot's lastSeq says which prefix of the log it already reflects,
// so replay skips records with seq ≤ lastSeq and the two files never need
// to be mutually consistent at a crash instant. maxID is the high-water
// mark of every element id ever logged — acked elements included, which is
// why the pending set alone cannot reconstruct it — so a restarted daemon
// can seed its id counter past everything a previous incarnation minted
// instead of re-minting ids that still name live WAL records. A torn tail (partial final
// record, CRC mismatch at end of log) is discarded silently — those
// records were never acknowledged durable to anyone.
//
// Group commit: Append* encodes under the mutex and returns immediately;
// a dedicated sync goroutine writes and fsyncs whatever accumulated, so
// concurrent appenders share fsyncs. Callers gate client-visible
// acknowledgements on WaitDurable(seq).
package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"dpq/internal/prio"
)

// WAL record types.
const (
	recInsert = 1
	recAck    = 2
)

const (
	walMagic  = "dpqwal01"
	snapMagic = "dpqsnap2"
	// snapMagicV1 names the original snapshot layout, which lacked the
	// maxID field (`u64 lastSeq | u32 count | count × element`). Open
	// still reads it — the id high-water mark is then reconstructed from
	// the recovered elements and the log, which under-states ids that
	// were acked before the snapshot; v1 predates id-reuse hardening, so
	// this matches the guarantee those directories ever had. The first
	// compaction rewrites the directory at v2.
	snapMagicV1 = "dpqsnap1"
	// maxWalFrame bounds any WAL or snapshot frame; snapshot bodies of
	// large pending sets are split implicitly by this never being hit in
	// practice (a frame holds one record; snapshots count toward it too,
	// so cap generously).
	maxWalFrame = 1 << 28
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// WALStats counts durability work for the observability export.
type WALStats struct {
	Records        int64 `json:"records"`        // records appended this run
	Syncs          int64 `json:"syncs"`          // fsync batches (group commits)
	Snapshots      int64 `json:"snapshots"`      // snapshots written this run
	Recovered      int   `json:"recovered"`      // elements recovered at Open
	DiscardedBytes int64 `json:"discardedBytes"` // torn tail dropped at Open
}

// WAL is the open write-ahead log of one daemon. Safe for concurrent use.
type WAL struct {
	dir string

	mu      sync.Mutex
	cond    *sync.Cond
	f       *os.File
	buf     []byte // encoded records not yet handed to the sync loop
	spare   []byte // the buffer the sync loop last wrote, for buf's next turn
	rec     []byte // append's record body, reused
	next    uint64 // next seq to assign
	encoded uint64 // last seq encoded into buf
	durable uint64 // last seq written and fsynced
	maxID   uint64 // high-water element id over every insert ever logged
	syncing bool   // sync loop is writing outside the lock
	err     error  // sticky I/O error; appends and waits fail fast
	closed  bool
	stats   WALStats

	wg sync.WaitGroup
}

// Open recovers the durable pending set from dir (creating it when
// missing), compacts it into a fresh snapshot + empty log, and returns the
// WAL ready for appends together with the recovered elements sorted by id.
func Open(dir string) (*WAL, []prio.Element, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("serve: wal dir: %v", err)
	}
	pending, lastSeq, maxID, err := loadSnapshot(filepath.Join(dir, "snapshot"))
	if err != nil {
		return nil, nil, err
	}
	w := &WAL{dir: dir}
	w.cond = sync.NewCond(&w.mu)
	maxSeq, logMaxID, discarded, err := replayLog(filepath.Join(dir, "wal"), lastSeq, pending)
	if err != nil {
		return nil, nil, err
	}
	if maxSeq < lastSeq {
		maxSeq = lastSeq
	}
	if logMaxID > maxID {
		maxID = logMaxID
	}
	elems := make([]prio.Element, 0, len(pending))
	for _, e := range pending {
		elems = append(elems, e)
		if uint64(e.ID) > maxID {
			maxID = uint64(e.ID)
		}
	}
	sort.Slice(elems, func(i, j int) bool { return elems[i].ID < elems[j].ID })

	// Compact: everything recovered goes into one snapshot at maxSeq and
	// the log restarts empty. Order matters — the snapshot must be durable
	// before the log it subsumes is truncated.
	if err := writeSnapshot(dir, maxSeq, maxID, elems); err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, "wal"), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: wal: %v", err)
	}
	if _, err := f.Write([]byte(walMagic)); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("serve: wal init: %v", err)
	}
	w.f = f
	w.next = maxSeq + 1
	w.durable = maxSeq
	w.encoded = maxSeq
	w.maxID = maxID
	w.stats.Recovered = len(elems)
	w.stats.DiscardedBytes = discarded
	w.wg.Add(1)
	go w.syncLoop()
	return w, elems, nil
}

// AppendInsert logs an element entering the pending set and returns the
// record's seq for WaitDurable.
func (w *WAL) AppendInsert(e prio.Element) uint64 {
	return w.append(recInsert, e)
}

// AppendAck logs an element leaving the pending set for good.
func (w *WAL) AppendAck(id prio.ElemID) uint64 {
	return w.append(recAck, prio.Element{ID: id})
}

func (w *WAL) append(typ uint8, e prio.Element) uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.next++
	seq := w.next - 1
	body := binary.BigEndian.AppendUint64(w.rec[:0], seq)
	body = append(body, typ)
	body = binary.BigEndian.AppendUint64(body, uint64(e.ID))
	if typ == recInsert {
		body = binary.BigEndian.AppendUint64(body, uint64(e.Prio))
		body = binary.BigEndian.AppendUint32(body, uint32(len(e.Payload)))
		body = append(body, e.Payload...)
		if uint64(e.ID) > w.maxID {
			w.maxID = uint64(e.ID)
		}
	}
	w.buf = appendFrame(w.buf, body)
	w.rec = body
	w.encoded = seq
	w.stats.Records++
	w.cond.Broadcast()
	return seq
}

// WaitDurable blocks until the record with the given seq is fsynced (or
// the log hit an I/O error / was closed first).
func (w *WAL) WaitDurable(seq uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.durable < seq && w.err == nil && !(w.closed && w.encoded < seq) {
		w.cond.Wait()
	}
	if w.durable >= seq {
		return nil
	}
	if w.err != nil {
		return w.err
	}
	return errors.New("serve: wal closed before record was durable")
}

// syncLoop is the single writer of the log file: it batches whatever
// appenders encoded since the last fsync into one write+sync (group
// commit) and wakes the waiters.
func (w *WAL) syncLoop() {
	defer w.wg.Done()
	for {
		w.mu.Lock()
		for len(w.buf) == 0 && !w.closed && w.err == nil {
			w.cond.Wait()
		}
		if (w.closed || w.err != nil) && len(w.buf) == 0 {
			w.mu.Unlock()
			return
		}
		buf := w.buf
		seq := w.encoded
		w.buf, w.spare = w.spare[:0], nil
		w.syncing = true
		w.mu.Unlock()

		_, err := w.f.Write(buf)
		if err == nil {
			err = w.f.Sync()
		}

		w.mu.Lock()
		w.spare = buf
		w.syncing = false
		if err != nil {
			w.err = fmt.Errorf("serve: wal sync: %v", err)
		} else {
			w.durable = seq
			w.stats.Syncs++
		}
		w.cond.Broadcast()
		w.mu.Unlock()
	}
}

// Snapshot writes the given pending set (captured by the caller together
// with atSeq, the last WAL seq reflected in it) as the new snapshot. When
// the log holds nothing beyond atSeq it is also truncated; otherwise the
// newer records stay and recovery skips the subsumed prefix by seq.
func (w *WAL) Snapshot(pending []prio.Element, atSeq uint64) error {
	sorted := append([]prio.Element(nil), pending...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	w.mu.Lock()
	// The id high-water mark may run ahead of atSeq (an insert appended
	// after the caller's capture); over-stating it in the snapshot is safe,
	// a restart merely skips a few ids.
	maxID := w.maxID
	w.mu.Unlock()
	if err := writeSnapshot(w.dir, atSeq, maxID, sorted); err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.stats.Snapshots++
	// Opportunistic compaction: safe only when the sync loop is idle and
	// every record in the file is ≤ atSeq.
	if !w.syncing && len(w.buf) == 0 && w.encoded == atSeq && w.durable == atSeq && w.err == nil && !w.closed {
		if err := w.f.Truncate(int64(len(walMagic))); err == nil {
			if _, serr := w.f.Seek(int64(len(walMagic)), io.SeekStart); serr != nil {
				// Appending at the stale offset would leave a zero-filled
				// gap that replay reads as a torn frame, silently dropping
				// every later durable record — fail stop instead.
				w.err = fmt.Errorf("serve: wal compact seek: %v", serr)
				w.cond.Broadcast()
			} else {
				w.f.Sync()
			}
		}
	}
	return nil
}

// MaxID returns the high-water element id over every insert the log has
// ever recorded, acked elements included. Immediately after Open this is
// the recovered maximum — the value a restarted daemon seeds its id
// counter past so new inserts cannot reuse an id still named by live WAL
// records.
func (w *WAL) MaxID() prio.ElemID {
	w.mu.Lock()
	defer w.mu.Unlock()
	return prio.ElemID(w.maxID)
}

// LastSeq returns the seq of the most recently appended record.
func (w *WAL) LastSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.encoded
}

// Stats returns a copy of the durability counters.
func (w *WAL) Stats() WALStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

// Close drains outstanding appends to disk and closes the file.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	w.cond.Broadcast()
	w.mu.Unlock()
	w.wg.Wait()
	w.mu.Lock()
	err := w.err
	w.mu.Unlock()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// appendFrame encodes one CRC frame onto buf.
func appendFrame(buf, body []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(body)))
	buf = binary.BigEndian.AppendUint32(buf, crc32.Checksum(body, crcTable))
	return append(buf, body...)
}

// readFrame reads one CRC frame. io.EOF means a clean end; errTorn wraps
// any partial or corrupt tail.
var errTorn = errors.New("torn frame")

func readFrame(r io.Reader) ([]byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: short header: %v", errTorn, err)
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n == 0 || n > maxWalFrame {
		return nil, fmt.Errorf("%w: implausible frame length %d", errTorn, n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, fmt.Errorf("%w: short body: %v", errTorn, err)
	}
	if crc32.Checksum(body, crcTable) != binary.BigEndian.Uint32(hdr[4:]) {
		return nil, fmt.Errorf("%w: crc mismatch", errTorn)
	}
	return body, nil
}

// writeSnapshot atomically replaces dir/snapshot with the given set.
func writeSnapshot(dir string, lastSeq, maxID uint64, elems []prio.Element) error {
	body := make([]byte, 0, 32+32*len(elems))
	body = binary.BigEndian.AppendUint64(body, lastSeq)
	body = binary.BigEndian.AppendUint64(body, maxID)
	body = binary.BigEndian.AppendUint32(body, uint32(len(elems)))
	for _, e := range elems {
		body = binary.BigEndian.AppendUint64(body, uint64(e.ID))
		body = binary.BigEndian.AppendUint64(body, uint64(e.Prio))
		body = binary.BigEndian.AppendUint32(body, uint32(len(e.Payload)))
		body = append(body, e.Payload...)
	}
	tmp := filepath.Join(dir, "snapshot.tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("serve: snapshot: %v", err)
	}
	_, err = f.Write(append([]byte(snapMagic), appendFrame(nil, body)...))
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, filepath.Join(dir, "snapshot"))
	}
	if err == nil {
		// Make the rename itself durable.
		if d, derr := os.Open(dir); derr == nil {
			d.Sync()
			d.Close()
		}
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("serve: snapshot: %v", err)
	}
	return nil
}

// loadSnapshot reads dir's snapshot into a fresh pending map. A missing
// file is an empty set; a corrupt snapshot is an error (it was written
// atomically, so corruption is real damage, not a torn write).
func loadSnapshot(path string) (map[prio.ElemID]prio.Element, uint64, uint64, error) {
	pending := map[prio.ElemID]prio.Element{}
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return pending, 0, 0, nil
	}
	if err != nil {
		return nil, 0, 0, fmt.Errorf("serve: snapshot: %v", err)
	}
	defer f.Close()
	magic := make([]byte, len(snapMagic))
	if _, err := io.ReadFull(f, magic); err != nil {
		return nil, 0, 0, fmt.Errorf("serve: snapshot: bad magic")
	}
	v1 := string(magic) == snapMagicV1
	if !v1 && string(magic) != snapMagic {
		return nil, 0, 0, fmt.Errorf("serve: snapshot: bad magic")
	}
	body, err := readFrame(f)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("serve: snapshot: %v", err)
	}
	r := snapReader{buf: body}
	lastSeq := r.u64()
	var maxID uint64
	if !v1 {
		maxID = r.u64()
	}
	count := r.u32()
	for i := uint32(0); i < count; i++ {
		var e prio.Element
		e.ID = prio.ElemID(r.u64())
		e.Prio = prio.Priority(r.u64())
		e.Payload = r.str()
		if r.err != nil {
			return nil, 0, 0, fmt.Errorf("serve: snapshot: truncated element %d", i)
		}
		pending[e.ID] = e
	}
	if r.err != nil || len(r.buf[r.off:]) != 0 {
		return nil, 0, 0, fmt.Errorf("serve: snapshot: malformed body")
	}
	return pending, lastSeq, maxID, nil
}

// replayLog applies dir/wal records with seq > lastSeq onto pending.
// Returns the highest applied seq, the highest element id seen in any
// insert record (even snapshot-subsumed or later-acked ones — the id
// counter of a restarted daemon must clear those too), and the number of
// torn-tail bytes discarded. A missing log is empty; a bad magic is an
// error.
func replayLog(path string, lastSeq uint64, pending map[prio.ElemID]prio.Element) (uint64, uint64, int64, error) {
	maxSeq, maxID := lastSeq, uint64(0)
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return maxSeq, 0, 0, nil
	}
	if err != nil {
		return 0, 0, 0, fmt.Errorf("serve: wal: %v", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, 0, 0, fmt.Errorf("serve: wal: %v", err)
	}
	if st.Size() == 0 {
		// A crash right after O_TRUNC can leave an empty file; same as none.
		return maxSeq, 0, 0, nil
	}
	magic := make([]byte, len(walMagic))
	if _, err := io.ReadFull(f, magic); err != nil || string(magic) != walMagic {
		return 0, 0, 0, fmt.Errorf("serve: wal: bad magic")
	}
	read := int64(len(walMagic))
	for {
		body, err := readFrame(f)
		if err == io.EOF {
			return maxSeq, maxID, 0, nil
		}
		if errors.Is(err, errTorn) {
			// Unacknowledged tail of a crashed run: drop it.
			return maxSeq, maxID, st.Size() - read, nil
		}
		if err != nil {
			return 0, 0, 0, fmt.Errorf("serve: wal: %v", err)
		}
		read += int64(8 + len(body))
		r := snapReader{buf: body}
		seq := r.u64()
		typ := r.u8()
		id := prio.ElemID(r.u64())
		var e prio.Element
		switch typ {
		case recInsert:
			e.ID = id
			e.Prio = prio.Priority(r.u64())
			e.Payload = r.str()
			if uint64(id) > maxID {
				maxID = uint64(id)
			}
		case recAck:
		default:
			return 0, 0, 0, fmt.Errorf("serve: wal: unknown record type %d", typ)
		}
		if r.err != nil {
			return 0, 0, 0, fmt.Errorf("serve: wal: malformed record seq %d", seq)
		}
		if seq <= lastSeq {
			continue // already reflected in the snapshot
		}
		if seq <= maxSeq {
			return 0, 0, 0, fmt.Errorf("serve: wal: seq %d out of order (have %d)", seq, maxSeq)
		}
		maxSeq = seq
		if typ == recInsert {
			pending[id] = e
		} else {
			delete(pending, id)
		}
	}
}

// snapReader is a minimal cursor over a decoded frame body.
type snapReader struct {
	buf []byte
	off int
	err error
}

func (r *snapReader) take(n int) []byte {
	if r.err != nil || r.off+n > len(r.buf) {
		r.err = errors.New("short body")
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *snapReader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *snapReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (r *snapReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (r *snapReader) str() string {
	n := r.u32()
	if r.err != nil || n > maxWalFrame {
		r.err = errors.New("bad string length")
		return ""
	}
	b := r.take(int(n))
	if b == nil {
		return ""
	}
	return string(b)
}
