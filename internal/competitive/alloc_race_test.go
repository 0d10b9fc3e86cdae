//go:build race

package competitive

import (
	"context"
	"testing"
)

// Under the race detector sync.Pool drops a quarter of what is Put into it,
// so the byte and malloc budget of alloc_norace_test.go cannot be held
// here. What can is the budget of the design, which no pool miss reaches:
// a sweep is schedule-major — each battery schedule measured once, and
// compiled and priced by one grid pass per round at the admissible cells
// its lower bound cannot rule out — and allocates a few hundred objects; the cell-major design it replaced
// measured 706, and re-running the algorithms per cell, or allocating per
// request in the DP, 25.7k.
func TestSweepAllocationBudget(t *testing.T) {
	spec := benchSweepSpec(0, 1)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Sweep(context.Background(), spec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 600 {
		t.Errorf("serial 6x6 sweep allocated %.0f objects, budget is under 600", allocs)
	}
}
