//go:build !race

package competitive

import "testing"

// The allocation gates live in a file the race build leaves out: under the
// race detector sync.Pool drops a quarter of what is Put into it, so there
// the counts below are not a function of the code. alloc_race_test.go holds
// the budget that does not depend on the pool.

// A bench-shaped sweep — the 6×6 figure-1 grid over DefaultBattery, eight
// battery seeds in rotation — allocates what it returns and what describes
// the instance (the battery, the compiled plans, the count and cost
// tables), not what it computes with: the DP rows and the price table come
// from internal/opt's workspace pool and an algorithm's allocation schedule
// is reduced to its counts step by step. Before that a sweep was 532 645 B
// in 342 mallocs and a GC cycle every 5.7 sweeps.
func TestSweepAllocationBudget(t *testing.T) {
	const sweeps = 200
	benchSweeps(t, 1, 1) // fills the pool
	bytes, mallocs, gcCycles := benchSweeps(t, sweeps, 1)
	bytes, mallocs = bytes/sweeps, mallocs/sweeps
	t.Logf("%d B and %d mallocs per sweep, %d GC cycles in %d sweeps", bytes, mallocs, gcCycles, sweeps)
	if bytes > 96<<10 || mallocs > 260 {
		t.Errorf("a serial 6x6 sweep allocated %d B in %d mallocs, budget is 96 KiB in 260", bytes, mallocs)
	}
}
