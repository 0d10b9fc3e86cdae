package competitive

import (
	"context"
	"fmt"
	"math"

	"objalloc/internal/cost"
	"objalloc/internal/dom"
	"objalloc/internal/model"
	"objalloc/internal/opt"
)

// maxScale is the largest q Factor scales prices by to make them whole.
const maxScale = 10000

// Factor is SA's or DA's exact asymptotic factor on the endless
// repetition of period, the limit of COST_A / COST_OPT: the online cost
// per period over the optimum's growth per period (opt.Plan.Rate at m
// scaled whole by the smallest q ≤ maxScale), by ratioOf's rules. It steps
// the algorithm through model.CheckStep and cost.StepCounts until its
// scheme repeats at a period boundary; the scheme is SA's and DA's whole
// state, and an algorithm with more is not for Factor.
func Factor(ctx context.Context, m cost.Model, f dom.Factory, period model.Schedule, initial model.Set, t int) (float64, error) {
	wm, err := whole(m)
	if err != nil {
		return 0, err
	}
	plan, err := opt.Compile(period, initial, t)
	if err != nil {
		return 0, err
	}
	growth, periods, _, err := plan.Rate(ctx, wm)
	if err != nil {
		return 0, err
	}
	alg, err := f(initial, t)
	if err != nil {
		return 0, err
	}
	seen := make(map[model.Set]int) // a boundary's scheme → the boundary
	var spent []float64             // the online cost at each boundary
	var total cost.Counts
	for scheme, step := initial, 0; ; {
		if first, ok := seen[scheme]; ok {
			return ratioOf((total.Price(wm)-spent[first])*float64(periods), growth*float64(len(spent)-first)), nil
		}
		seen[scheme] = len(spent)
		spent = append(spent, total.Price(wm))
		for _, q := range period {
			st := alg.Step(q)
			next, v := model.CheckStep(step, st, scheme, t)
			if v != nil {
				return 0, invalidSchedule(v)
			}
			total = total.Add(cost.StepCounts(st, scheme))
			scheme = next
			step++
		}
	}
}

// whole scales m by the smallest q ≤ maxScale that puts every price
// within a relative 1e-9 of a whole number, and rounds them to it.
func whole(m cost.Model) (cost.Model, error) {
	near := func(x float64) bool { return math.Abs(x-math.Round(x)) <= 1e-9*max(1, x) }
	for q := 1.0; q <= maxScale; q++ {
		if near(q*m.CC) && near(q*m.CD) && near(q*m.CIO) {
			return cost.Model{CC: math.Round(q * m.CC), CD: math.Round(q * m.CD), CIO: math.Round(q * m.CIO)}, nil
		}
	}
	return cost.Model{}, fmt.Errorf("competitive: no scale up to %d makes the prices of %v whole", maxScale, m)
}
