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
// scheme repeats at a period boundary, so it takes SA and DA only, whose
// scheme is their whole state (schemeIsState).
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
	if err := schemeIsState(alg); err != nil {
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

// pricing is the model a sweep prices a cell of model m at: m scaled
// whole as whole scales it, or m itself when no scale up to maxScale
// does. A ratio does not depend on the unit, and at whole prices every sum
// the lanes and the offline DP make is exact (opt's periodic pass needs
// that), so a worst ratio is the correctly rounded quotient of two exact
// costs. from is a q below which no scale can work, 0 if none can: 1, or,
// in a sweep, the larger of m.CC's and m.CD's own smallest scales
// (priceScale, found once per axis value), so a cell whose cc or cd no
// scale makes whole costs nothing here. A cell whose prices each have a
// scale but share none up to maxScale still scans to it.
func pricing(m cost.Model, from float64) cost.Model {
	if from > 0 {
		if q := scale(m, from, maxScale); q > 0 {
			return scaled(m, q)
		}
	}
	return m
}

// whole scales m by the smallest q ≤ maxScale that puts every price
// within a relative 1e-9 of a whole number, and rounds them to it.
func whole(m cost.Model) (cost.Model, error) {
	if q := scale(m, 1, maxScale); q > 0 {
		return scaled(m, q), nil
	}
	return cost.Model{}, fmt.Errorf("competitive: no scale up to %d makes the prices of %v whole", maxScale, m)
}

// scale returns the smallest q in [from, to] that puts every price of m
// near a whole number, or 0 if none does.
func scale(m cost.Model, from, to float64) float64 {
	for q := from; q <= to; q++ {
		if near(q*m.CC) && near(q*m.CD) && near(q*m.CIO) {
			return q
		}
	}
	return 0
}

// scaled is m's prices times q, rounded to whole numbers.
func scaled(m cost.Model, q float64) cost.Model {
	return cost.Model{CC: math.Round(q * m.CC), CD: math.Round(q * m.CD), CIO: math.Round(q * m.CIO)}
}

// near reports whether x is within a relative 1e-9 of a whole number.
func near(x float64) bool { return math.Abs(x-math.Round(x)) <= 1e-9*max(1, x) }

// scanFirst is how many scales priceScale tries in turn before it looks
// for the least one that could work: the default figures' and the
// benchmark's axis values are whole at q ≤ 10.
const scanFirst = 64

// priceScale is scale for the one price x: the smallest q ≤ maxScale that
// puts x near a whole number, or 0. Past scanFirst it scans from the least
// denominator of a fraction within a relative 1.000002e-9 of x, so a price
// no scale makes whole costs ~scanFirst tries and a short descent instead
// of maxScale tries. No smaller q can work: near(q·x) allows |q·x − p| at
// most c·max(1, q·x) for a whole p, c = 1.0000002e-9 covering the
// rounding of q·x and of near's bound. p = 0 needs q·x ≤ c, which for
// q > scanFirst needs x below 1e-10, and such an x is scanned. Otherwise
// p/q is within a relative c of x, or, for q·x < 1, where p = 1 and
// 1/q ≤ x/(1 − c), within c/(1 − c). The descent widens that interval a
// little (a relative 1.000003e-9 and an ulp outward), which only lowers
// where the scan starts.
func priceScale(x float64) float64 {
	one := cost.Model{CC: x} // 0 is whole at every scale
	if q := scale(one, 1, scanFirst); q > 0 {
		return q
	}
	if !(x >= 1e-10 && x < 1<<52) { // from 2^52 up every float is whole
		return scale(one, scanFirst+1, maxScale)
	}
	lo, hi := math.Nextafter(x*(1-1.000003e-9), 0), math.Nextafter(x*(1+1.000003e-9), math.Inf(1))
	k, prev := 0.0, 1.0 // no term taken yet (see leastDenominator)
	if hi < 1 {
		// The first term is 0, and 1/x maps the interval above 1.
		lo, hi = math.Nextafter(1/hi, 0), math.Nextafter(1/lo, math.Inf(1))
		k, prev = 1, 0
	}
	// Over 2^(62−e), for hi in [2^(e−1), 2^e), both ends are whole
	// numbers below 2^62: lo is at least hi/2, so its ulp is too.
	_, e := math.Frexp(hi)
	unit := math.Ldexp(1, 62-e)
	if q := leastDenominator(uint64(lo*unit), uint64(unit), uint64(hi*unit), uint64(unit), k, prev); q <= maxScale {
		return scale(one, max(q, scanFirst+1), maxScale)
	}
	return 0
}

// leastDenominator returns the least q of a fraction in [a/b, c/d], for
// 0 < a/b < c/d, or maxScale+1 if that q is past maxScale. The fraction's
// continued fraction is the terms f the two ends share, then the least
// whole number g in the interval they leave (the Stern–Brocot descent; no
// fraction in the interval has a smaller denominator): while the interval
// holds no whole number it lies in (f, f+1), and x ↦ 1/(x − f) maps it to
// [d/(c − f·d), b/(a − f·b)]. The denominators grow by
// q_i = t·q_{i−1} + q_{i−2} per term t; k and prev are q_{i−1} and
// q_{i−2} of the terms a caller has already taken, 0 and 1 for none.
func leastDenominator(a, b, c, d uint64, k, prev float64) float64 {
	grow := func(t uint64) float64 {
		if k == 0 {
			return prev
		}
		return min(float64(min(t, maxScale+1))*k+prev, maxScale+1)
	}
	for {
		f, r := a/b, a%b
		if r == 0 {
			return grow(f) // a/b is whole
		}
		if f+1 <= c/d {
			return grow(f + 1) // ⌈a/b⌉ ≤ c/d
		}
		next := grow(f)
		if next > maxScale {
			return next
		}
		k, prev = next, k
		a, b, c, d = d, c%d, b, r // c%d = c − f·d, as c/d < f+1
	}
}
