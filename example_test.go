package dpq_test

import (
	"fmt"

	"dpq"
)

// ExampleNew shows the complete life cycle of a Seap heap: three processes
// insert prioritized work, three others pull it, each Drain runs the batch
// to completion and returns its deliveries in priority order.
func ExampleNew() {
	pq, err := dpq.New(dpq.Seap, dpq.Options{Nodes: 8, Seed: 1})
	if err != nil {
		panic(err)
	}
	pq.At(0).Insert(300, "write tests")
	pq.At(2).Insert(10, "fix the outage")
	pq.At(5).Insert(70, "review the PR")
	if _, err := pq.Drain(); err != nil {
		panic(err)
	}

	pq.At(1).DeleteMin()
	pq.At(4).DeleteMin()
	pq.At(7).DeleteMin()
	deliveries, err := pq.Drain()
	if err != nil {
		panic(err)
	}

	for _, d := range deliveries {
		fmt.Printf("%s (priority %d)\n", d.Payload, d.Priority)
	}
	if err := pq.Verify(); err != nil {
		panic(err)
	}
	// Output:
	// fix the outage (priority 10)
	// review the PR (priority 70)
	// write tests (priority 300)
}

// ExamplePQ_At shows builder chaining: each call issues one operation at
// the host and returns the builder for the next.
func ExamplePQ_At() {
	pq, err := dpq.New(dpq.Skeap, dpq.Options{
		Nodes:      8,
		Priorities: 3,
		Seed:       1,
	})
	if err != nil {
		panic(err)
	}
	pq.At(0).Insert(2, "medium").Insert(1, "urgent")
	pq.At(3).Insert(3, "background").DeleteMin()
	deliveries, err := pq.Drain()
	if err != nil {
		panic(err)
	}
	fmt.Println(deliveries[0].Payload)
	// Output:
	// urgent
}

// ExamplePQ_Verify demonstrates that every run can be checked against the
// paper's correctness definitions after the fact.
func ExamplePQ_Verify() {
	pq, _ := dpq.New(dpq.Skeap, dpq.Options{Nodes: 4, Priorities: 2, Seed: 3})
	pq.At(0).Insert(1, "a")
	pq.At(2).DeleteMin()
	if _, err := pq.Drain(); err != nil {
		panic(err)
	}
	if err := pq.Verify(); err == nil {
		fmt.Println("sequentially consistent and heap consistent")
	}
	// Output:
	// sequentially consistent and heap consistent
}

// ExampleSelect runs the standalone KSelect protocol: the rank-3 element
// of a small distributed set.
func ExampleSelect() {
	elems := []dpq.Element{
		{ID: 1, Prio: 50}, {ID: 2, Prio: 10}, {ID: 3, Prio: 40},
		{ID: 4, Prio: 20}, {ID: 5, Prio: 30},
	}
	res, err := dpq.Select(4, elems, 3, 7)
	if err != nil {
		panic(err)
	}
	fmt.Printf("rank 3 has priority %d\n", res.Elem.Prio)
	// Output:
	// rank 3 has priority 30
}

// ExampleNewQueue shows the Skueue-derived distributed FIFO queue.
func ExampleNewQueue() {
	q := dpq.NewQueue(4, 2)
	eng := q.NewSyncEngine()

	q.Enqueue(0, 1, "first")
	q.Enqueue(0, 2, "second")
	eng.RunUntil(q.Done, 100000)

	q.Dequeue(3)
	eng.RunUntil(q.Done, 100000)

	if rep := dpq.CheckQueue(q.Trace()); rep.Ok() {
		fmt.Println("FIFO verified")
	}
	// Output:
	// FIFO verified
}
