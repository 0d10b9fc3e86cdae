//go:build !race

package opt

import (
	"context"
	"math/rand"
	"testing"

	"objalloc/internal/model"
)

// Pricing a compiled plan allocates the slice Costs returns and nothing
// else. The race build leaves this file out: under the race detector
// sync.Pool drops a quarter of what is Put into it, and a pass that misses
// the pool allocates its workspace.
func TestPricingAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	plan, err := Compile(randomSchedule(rng, 5, 60, 0.3), model.NewSet(0, 1), 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	models := gridModels(21)
	if got := testing.AllocsPerRun(100, func() {
		if _, err := plan.Costs(ctx, models); err != nil {
			t.Fatal(err)
		}
	}); got != 1 {
		t.Errorf("Plan.Costs under 21 models allocated %.0f objects, want 1 (the slice it returns)", got)
	}
	if got := testing.AllocsPerRun(100, func() {
		if _, err := plan.Cost(ctx, models[0]); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("Plan.Cost allocated %.0f objects, want 0", got)
	}
}
