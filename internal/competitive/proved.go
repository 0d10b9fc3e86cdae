package competitive

import (
	"context"
	"math/bits"
	"slices"

	"objalloc/internal/adversary"
	"objalloc/internal/cost"
	"objalloc/internal/dom"
	"objalloc/internal/model"
)

// maxExactScale is the largest whole-price scale at which Classify builds a
// graph (DESIGN §5, *The scale rule*: 0.3 s at most at q ≤ 10, 3.4 s past).
const maxExactScale = 10

// Proved is one (cc, cd) cell classified from what is proved. Mark is 'x'
// (cc > cd) or the paper's 'S' or 'D' where its bounds decide; in their
// unknown band 'S' where a witness gives DA an exact factor above SA's, else
// 'd' where DA's at n = 3 is below SA's, '·' where no graph was built, '?'
// otherwise. SA is SA's exact factor at every n: 1+cc+cd in SC (Theorem 1,
// Proposition 1), +Inf in MC (Proposition 3). DA3 is DA's at n = 3 without
// potentials, States 0 where no graph was built. A witness, Period, makes
// SA better at every n ≥ N: DA's exact factor on it is Witness.
type Proved struct {
	Model   cost.Model
	Mark    rune
	SA      float64
	DA3     Exact
	N       int
	Witness float64
	Period  model.Schedule
}

// Classify marks the cell at m. In the paper's unknown band (SC) the
// witnesses, in order, are DA's exact factor at n = 3 (the arena from
// {0, 1} at t = 2, built only at a scale up to maxExactScale) and each
// period, by Factor from {0, 1} at t = 2; the first above SA's factor
// marks the cell S, N the processors it uses. SA's factor is the same at
// every n, and DA's never falls as n grows, since OPT on n processors can
// do all it does on fewer: so S holds at every n ≥ N.
func Classify(ctx context.Context, m cost.Model, periods []model.Schedule) (Proved, error) {
	c := Proved{Model: m, Mark: m.Region().Rune(), SA: SABound(m)}
	if m.Region() != RegionUnknown || m.IsMobile() {
		return c, nil
	}
	q := scale(m, 1, maxScale)
	if q == 0 {
		c.Mark = '·'
		return c, nil
	}
	wm := scaled(m, q)
	sa := newRatio(int64(wm.CC+wm.CD+wm.CIO), int64(wm.CIO))
	c.SA = float64(sa.num) / float64(sa.den)
	if q <= maxExactScale {
		a, err := NewArena(ctx, m, 3, 2)
		if err == nil {
			c.DA3, err = a.Exact(ctx, dom.DynamicFactory)
		}
		if err != nil {
			return Proved{}, err
		}
		c.DA3.Phi = nil // a figure keeps every cell
		if sa.less(ratio{c.DA3.Num, c.DA3.Den}) {
			c.Mark, c.N, c.Witness, c.Period = 'S', 3, c.DA3.Factor(), c.DA3.Period
			return c, nil
		}
	}
	for _, p := range periods {
		f, err := Factor(ctx, m, dom.DynamicFactory, p, model.FullSet(2), 2)
		if err != nil {
			return Proved{}, err
		}
		if f > c.SA {
			c.Mark, c.N, c.Witness, c.Period = 'S', bits.Len64(uint64(p.Processors()|model.FullSet(2))), f, p
			return c, nil
		}
	}
	if c.DA3.States == 0 {
		c.Mark = '·'
	} else if (ratio{c.DA3.Num, c.DA3.Den}).less(sa) {
		c.Mark = 'd'
	}
	return c, nil
}

// Witnesses are the periods the figure tools and the facade pass Classify:
// one of each nemesis family on 3 to 6 processors from {0, 1} at t = 2
// (adversary.Families), each period once.
func Witnesses() []model.Schedule {
	var periods []model.Schedule
	for n := 3; n <= 6; n++ {
		for _, f := range adversary.Families(n, 2) {
			if !slices.ContainsFunc(periods, func(p model.Schedule) bool { return slices.Equal(p, f.Period) }) {
				periods = append(periods, f.Period)
			}
		}
	}
	return periods
}
