package harness

import (
	"sync"
	"sync/atomic"

	"dpq/internal/hashutil"
	"dpq/internal/prio"
)

const (
	skipMaxLevel       = 24
	skipSweepThreshold = 64 // claimed-but-linked nodes tolerated before a sweep
)

type skipNode struct {
	key  prio.Key
	elem prio.Element
	next []*skipNode
	// claimedBy is 0 while the node is live; a successful DeleteMin CASes
	// its worker id in (the claim step of the two-phase delete); the node
	// is unlinked later under the write lock.
	claimedBy atomic.Int64
}

func (n *skipNode) deleted() bool { return n.claimedBy.Load() != 0 }

// skipPQ is the shared-memory comparator the paper's related-work section
// argues against (§1.3): a concurrent priority queue in the style of
// Shavit & Lotan [SL00], where heap elements live in a skiplist ordered
// by priority and DeleteMin contends for the list head.
//
// The paper's point is architectural: such structures are not
// decentralized — all processors operate on one shared memory, and
// "multiple nodes may compete for the same smallest element with only one
// node being allowed to actually delete it", creating memory contention
// at the head. The implementation counts exactly that contention (lost
// claim races on the minimum) so experiment E19 can show it growing with
// the number of workers, while Seap's per-process load stays flat.
//
// Concurrency design: structural pointers (next) are only written while
// holding the write lock (Insert, garbage sweeps); DeleteMin holds the
// read lock, so any number of deleters traverse simultaneously and race
// on the atomic logical-delete mark of the head node — the [SL00]
// two-phase delete. Claimed nodes are unlinked lazily.
type skipPQ struct {
	mu     sync.RWMutex
	head   *skipNode
	levels int
	rndMu  sync.Mutex
	rnd    *hashutil.Rand

	// retries counts claim attempts that lost the race for the minimum
	// (only visible with true parallelism); foreignSkips counts hot-path
	// traversals over nodes claimed by *other* workers — the
	// dirty-shared-memory scanning that makes the head a contention point
	// even under cooperative scheduling. Both are E19 measures.
	retries      atomic.Int64
	foreignSkips atomic.Int64
	size         atomic.Int64
	garbage      atomic.Int64
}

// newSkipPQ creates an empty skiplist priority queue.
func newSkipPQ(seed uint64) *skipPQ {
	return &skipPQ{
		head:   &skipNode{next: make([]*skipNode, skipMaxLevel)},
		levels: 1,
		rnd:    hashutil.NewRand(seed),
	}
}

func (q *skipPQ) randomLevel() int {
	q.rndMu.Lock()
	defer q.rndMu.Unlock()
	lvl := 1
	for lvl < skipMaxLevel && q.rnd.Bool(0.5) {
		lvl++
	}
	return lvl
}

// Insert adds e to the queue.
func (q *skipPQ) Insert(e prio.Element) {
	lvl := q.randomLevel()
	n := &skipNode{key: prio.KeyOf(e), elem: e, next: make([]*skipNode, lvl)}

	q.mu.Lock()
	defer q.mu.Unlock()
	if lvl > q.levels {
		q.levels = lvl
	}
	update := make([]*skipNode, q.levels)
	cur := q.head
	for l := q.levels - 1; l >= 0; l-- {
		for cur.next[l] != nil && cur.next[l].key.Less(n.key) {
			cur = cur.next[l]
		}
		update[l] = cur
	}
	for l := 0; l < lvl; l++ {
		n.next[l] = update[l].next[l]
		update[l].next[l] = n
	}
	q.size.Add(1)
}

// DeleteMin claims and returns the minimum element, or ok=false when the
// queue is empty. It is DeleteMinAs with an anonymous worker id.
func (q *skipPQ) DeleteMin() (prio.Element, bool) { return q.DeleteMinAs(1) }

// DeleteMinAs is DeleteMin for a named worker (ids must be ≥ 1 and unique
// per concurrent caller). Concurrent deleters traverse under the read
// lock and race on the head node's claim mark; losers retry on the next
// candidate, and every hop over a node some *other* worker claimed is
// counted as contention — the serialization bottleneck of centralized
// concurrent heaps.
func (q *skipPQ) DeleteMinAs(worker int64) (prio.Element, bool) {
	if worker < 1 {
		panic("skiplist: worker ids start at 1")
	}
	for {
		q.mu.RLock()
		cur := q.head.next[0]
		var claimedNode *skipNode
		empty := true
		for cur != nil {
			owner := cur.claimedBy.Load()
			if owner == 0 {
				empty = false
				if cur.claimedBy.CompareAndSwap(0, worker) {
					claimedNode = cur
					break
				}
				// Lost the race for this minimum: direct contention.
				q.retries.Add(1)
				owner = cur.claimedBy.Load()
			}
			if owner != 0 && owner != worker {
				// Scanning memory another worker dirtied.
				q.foreignSkips.Add(1)
			}
			cur = cur.next[0]
		}
		q.mu.RUnlock()
		if claimedNode != nil {
			q.size.Add(-1)
			if q.garbage.Add(1) >= skipSweepThreshold {
				q.sweep()
			}
			return claimedNode.elem, true
		}
		if empty {
			return prio.Element{}, false
		}
		// Everything visible was claimed by others mid-traversal; retry.
	}
}

// sweep physically unlinks logically deleted nodes (write-locked).
func (q *skipPQ) sweep() {
	q.mu.Lock()
	defer q.mu.Unlock()
	for l := q.levels - 1; l >= 0; l-- {
		cur := q.head
		for cur.next[l] != nil {
			if cur.next[l].deleted() {
				cur.next[l] = cur.next[l].next[l]
				continue
			}
			cur = cur.next[l]
		}
	}
	q.garbage.Store(0)
}

// Len returns the number of live elements.
func (q *skipPQ) Len() int { return int(q.size.Load()) }

// Retries returns the accumulated lost-claim count (true parallel races).
func (q *skipPQ) Retries() int64 { return q.retries.Load() }

// ForeignSkips returns how many hot-path hops crossed nodes claimed by
// other workers — the contention measure that is visible even under a
// single-core cooperative scheduler.
func (q *skipPQ) ForeignSkips() int64 { return q.foreignSkips.Load() }

// Min returns the current minimum without removing it.
func (q *skipPQ) Min() (prio.Element, bool) {
	q.mu.RLock()
	defer q.mu.RUnlock()
	for cur := q.head.next[0]; cur != nil; cur = cur.next[0] {
		if !cur.deleted() {
			return cur.elem, true
		}
	}
	return prio.Element{}, false
}

// Valid checks the skiplist invariants (sorted bottom level, higher
// levels are sublists of level 0) — used by property tests.
func (q *skipPQ) Valid() bool {
	q.mu.RLock()
	defer q.mu.RUnlock()
	prev := q.head
	for cur := q.head.next[0]; cur != nil; cur = cur.next[0] {
		if prev != q.head && cur.key.Less(prev.key) {
			return false
		}
		prev = cur
	}
	for l := 1; l < q.levels; l++ {
		for cur := q.head.next[l]; cur != nil; cur = cur.next[l] {
			found := false
			for c0 := q.head.next[0]; c0 != nil; c0 = c0.next[0] {
				if c0 == cur {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
	}
	return true
}
