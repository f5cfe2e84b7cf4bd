//go:build race

package serve

// Under the race detector sync.Pool drops items at random and the runtime
// allocates for its own bookkeeping, so allocation counts are not the
// program's: TestServeAllocationBudget still runs, but only logs them.
func init() { raceEnabled = true }
