package competitive

import (
	"context"
	"fmt"

	"objalloc/internal/cost"
	"objalloc/internal/ddmin"
	"objalloc/internal/dom"
	"objalloc/internal/model"
)

// Shrink minimizes an adversarial period: it removes requests as long as
// the algorithm's exact factor (Factor) stays at or above keep, and
// returns a 1-minimal period (ddmin.Min) with its factor. Minimal periods
// make lower-bound arguments legible — the periods a climb produces
// usually carry a small adversarial core.
func Shrink(ctx context.Context, m cost.Model, f dom.Factory, period model.Schedule, initial model.Set, t int, keep float64) (model.Schedule, float64, error) {
	best, err := Factor(ctx, m, f, period, initial, t)
	if err != nil {
		return nil, 0, err
	}
	if best < keep {
		return nil, 0, fmt.Errorf("competitive: period factor %.4f already below target %.4f", best, keep)
	}
	cur, err := ddmin.Min(period, func(candidate []model.Request) (bool, error) {
		cf, err := Factor(ctx, m, f, candidate, initial, t)
		if err != nil || cf < keep {
			return false, ctx.Err() // a candidate Factor refuses is not kept
		}
		best = cf // accepted: Min's current period is now candidate
		return true, nil
	})
	if err != nil {
		return nil, 0, err
	}
	return cur, best, nil
}
