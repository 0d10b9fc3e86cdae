//go:build !race

package competitive

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"objalloc/internal/cost"
	"objalloc/internal/dom"
	"objalloc/internal/model"
	"objalloc/internal/opt"
	"objalloc/internal/workload"
)

// The self-checks over the figure grids' shape, at n = 3, t = 2: every
// admissible cell of an SC and an MC grid whose axes cover all four
// analytic regions (SA-superior, the unknown band, DA-superior, and the
// cannot-be-true half it skips), and the cells E3, E5, E6 and E9 print.
// They build ~70 graphs, up to 350 000 states, so they run only in the
// build without the race detector.
func TestExactFactorSelfChecksGrid(t *testing.T) {
	axis := []float64{0.2, 0.4, 0.8, 1.2, 2}
	var cells []cost.Model
	for _, mobile := range []bool{false, true} {
		for _, cc := range axis {
			for _, cd := range axis {
				m := cost.SC(cc, cd)
				if mobile {
					m = cost.MC(cc, cd)
				}
				if m.Region() != cost.RegionCannotBeTrue {
					cells = append(cells, m)
				}
			}
		}
	}
	cells = append(cells,
		cost.SC(0.05, 0.1), cost.SC(0.1, 0.3), cost.SC(0.2, 0.7), cost.SC(0.3, 1.2), cost.SC(0.5, 2), cost.SC(1, 3),
		cost.MC(0.05, 0.1), cost.MC(0.2, 0.5), cost.MC(0.5, 1), cost.MC(1, 2.5), cost.MC(2, 2))
	regions := map[cost.Region]bool{}
	for _, m := range cells {
		regions[m.Region()] = true
		selfCheck(t, m, nil)
	}
	if len(regions) != 3 {
		t.Errorf("the cells cover %d admissible regions, want SA-superior, unknown and DA-superior", len(regions))
	}
}

// The exact factors bound COST_A by c·COST_OPT with no additive constant
// on every short schedule, priced without the graph: each of the 335 922
// schedules of one to seven requests over n = 3's six, from {0, 1} at
// t = 2, priced by opt.SolveCost and by a run of the algorithm
// (dom.RunFactory, cost.ScheduleCost) at whole prices, satisfies
// Den·COST_A ≤ Num·COST_OPT in integers, for SA and DA at SC(0.3, 1.2)
// and DA at SC(1, 3) and MC(0.5, 1). A factor understated by one unit of
// Num fails it.
func TestExactFactorsBoundShortSchedules(t *testing.T) {
	ctx := context.Background()
	initial := model.NewSet(0, 1)
	for _, c := range []struct {
		m  cost.Model
		fs []dom.Factory
	}{
		{cost.SC(0.3, 1.2), []dom.Factory{dom.StaticFactory, dom.DynamicFactory}},
		{cost.SC(1, 3), []dom.Factory{dom.DynamicFactory}},
		{cost.MC(0.5, 1), []dom.Factory{dom.DynamicFactory}},
	} {
		wm, err := whole(c.m)
		if err != nil {
			t.Fatal(err)
		}
		a := arena(t, c.m, 3, 2)
		exs := make([]Exact, len(c.fs))
		for i, f := range c.fs {
			if exs[i], err = a.Exact(ctx, f); err != nil {
				t.Fatal(err)
			}
		}
		var visit func(sched model.Schedule)
		visit = func(sched model.Schedule) {
			if len(sched) > 0 {
				best, err := opt.SolveCost(wm, sched, initial, 2)
				if err != nil {
					t.Fatal(err)
				}
				for i, f := range c.fs {
					las, err := dom.RunFactory(f, initial, 2, sched)
					if err != nil {
						t.Fatal(err)
					}
					if online := cost.ScheduleCost(wm, las, initial); exs[i].Den*int64(online) > exs[i].Num*int64(best) {
						t.Fatalf("%v, factory %d: %v costs %v against OPT's %v, above %d/%d", c.m, i, sched, online, best, exs[i].Num, exs[i].Den)
					}
				}
			}
			if len(sched) < 7 {
				for _, q := range a.reqs {
					visit(append(sched, q))
				}
			}
		}
		visit(make(model.Schedule, 0, 7))
	}
}

// E12's exact long-run ratios are what long random runs read: at each of
// its three cells, for SA and DA, 20 independent uniform runs of 2 000
// requests (reads 85 %, writes 15 %), each priced against opt.SolveCost,
// give the ratio estimate ΣCOST_A/ΣCOST_OPT, which must lie within four
// standard errors of the exact value, the error estimated from the runs
// as batches (the ratio estimator's delta method). A chain weighted
// otherwise, the read and write probabilities swapped say, fails it.
func TestAverageFactorMatchesSampledRuns(t *testing.T) {
	const runs, length, pw = 20, 2000, 0.15
	rng := rand.New(rand.NewSource(45))
	initial := model.NewSet(0, 1)
	for _, m := range []cost.Model{cost.SC(0.1, 0.2), cost.SC(0.3, 0.7), cost.SC(0.2, 2)} {
		a := arena(t, m, 3, 2)
		for _, f := range []dom.Factory{dom.StaticFactory, dom.DynamicFactory} {
			exact, err := a.Average(context.Background(), f, []float64{pw})
			if err != nil {
				t.Fatal(err)
			}
			var online, offline [runs]float64
			var sumA, sumO float64
			for i := range runs {
				sched := workload.Uniform(rng, 3, length, pw)
				las, err := dom.RunFactory(f, initial, 2, sched)
				if err != nil {
					t.Fatal(err)
				}
				if offline[i], err = opt.SolveCost(m, sched, initial, 2); err != nil {
					t.Fatal(err)
				}
				online[i] = cost.ScheduleCost(m, las, initial)
				sumA, sumO = sumA+online[i], sumO+offline[i]
			}
			r, ss := sumA/sumO, 0.0
			for i := range runs {
				ss += (online[i] - r*offline[i]) * (online[i] - r*offline[i])
			}
			se := math.Sqrt(ss/(runs-1)/runs) / (sumO / runs)
			if math.Abs(r-exact[0]) > 4*se {
				t.Errorf("%v: %d runs read %.4f ± %.4f, the exact long-run ratio is %.4f", m, runs, r, se, exact[0])
			}
		}
	}
}

// E11 at n = 4 (see TestRatiosIndependentOfT): four graphs of 70 000 to
// 240 000 states for DA, four for SA, ~0.2–1 s each, and two refused.
func TestRatiosIndependentOfTAtFour(t *testing.T) {
	checkE11(t, 4)
}

// Theorem 4's bound is not tight at n = 4 either: at t = 2 DA's exact
// factor reads 2+2cc/cd, as at n = 3, at every cell of E9 (MC(0.5, 1)'s 3
// is e11Table's), ~1 s each.
func TestTheorem4NotTightAtFour(t *testing.T) {
	for _, m := range []cost.Model{cost.MC(0.05, 0.1), cost.MC(0.2, 0.5), cost.MC(1, 2.5), cost.MC(2, 2)} {
		ex, err := arena(t, m, 4, 2).Exact(context.Background(), dom.DynamicFactory)
		if err != nil {
			t.Fatal(err)
		}
		wm, err := whole(m)
		if err != nil {
			t.Fatal(err)
		}
		if cc, cd := int64(wm.CC), int64(wm.CD); ex.Num*cd != ex.Den*(2*cd+2*cc) {
			t.Errorf("%v: DA reads %d/%d on %v, want 2+2cc/cd = %d/%d", m, ex.Num, ex.Den, ex.Period, 2*cd+2*cc, cd)
		}
	}
}
