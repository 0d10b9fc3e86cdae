package competitive

import (
	"fmt"

	"objalloc/internal/cost"
	"objalloc/internal/ddmin"
	"objalloc/internal/dom"
	"objalloc/internal/model"
)

// Shrink minimizes an adversarial witness: it removes requests from the
// schedule as long as the algorithm's cost ratio stays at or above
// keepRatio, and returns a 1-minimal schedule (ddmin.Min) with its
// measurement. Minimal witnesses make lower-bound arguments legible — the
// long random schedules the search produces usually carry a small
// adversarial core.
func Shrink(m cost.Model, f dom.Factory, sched model.Schedule, initial model.Set, t int, keepRatio float64) (model.Schedule, Measurement, error) {
	best, err := Ratio(m, f, sched, initial, t)
	if err != nil {
		return nil, Measurement{}, err
	}
	if best.Ratio < keepRatio {
		return nil, Measurement{}, fmt.Errorf("competitive: witness ratio %.4f already below target %.4f", best.Ratio, keepRatio)
	}
	cur, err := ddmin.Min(sched, func(candidate []model.Request) (bool, error) {
		cm, err := Ratio(m, f, candidate, initial, t)
		if err != nil || cm.Ratio < keepRatio {
			return false, err
		}
		best = cm // accepted: Min's current schedule is now candidate
		return true, nil
	})
	if err != nil {
		return nil, Measurement{}, err
	}
	return cur, best, nil
}
