package competitive

import (
	"context"
	"fmt"
	"math"
	"math/big"
	"testing"

	"objalloc/internal/cost"
	"objalloc/internal/model"
	"objalloc/internal/opt"
)

// unprunedSweep is the reduction the bound must not change: every battery
// schedule priced at every admissible cell of the sweep's grid, at the
// cell's pricing model as the sweep prices it, each cell's worst ratios
// reduced by worst over its whole column.
func unprunedSweep(t *testing.T, spec SweepSpec) []GridPoint {
	t.Helper()
	ctx := context.Background()
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	ls := measuredLanes(t, spec.Battery.Build(), spec.Battery.Initial(), spec.Battery.T)
	scheds := ls[0].scheds
	var points []GridPoint
	var models []cost.Model
	for _, cc := range spec.CCs {
		for _, cd := range spec.CDs {
			m := cost.SC(cc, cd)
			if spec.Mobile {
				m = cost.MC(cc, cd)
			}
			if m.Region() != RegionCannotBeTrue {
				points, models = append(points, GridPoint{CC: cc, CD: cd}), append(models, pricing(m, 1))
			}
		}
	}
	columns := make([][]float64, len(models)) // [cell][schedule]
	for j := range columns {
		columns[j] = make([]float64, len(scheds))
	}
	for s, sched := range scheds {
		p, err := opt.Compile(sched, spec.Battery.Initial(), spec.Battery.T)
		if err != nil {
			t.Fatal(err)
		}
		costs, err := p.Costs(ctx, models)
		if err != nil {
			t.Fatal(err)
		}
		for j, c := range costs {
			columns[j][s] = c
		}
	}
	for j, m := range models {
		points[j].SAWorst = ls[0].worst(m, columns[j]).Ratio
		points[j].DAWorst = ls[1].worst(m, columns[j]).Ratio
	}
	return points
}

// measuredLanes returns SA's and DA's lanes over a battery, measured.
func measuredLanes(t *testing.T, scheds []model.Schedule, initial model.Set, tAvail int) lanes {
	t.Helper()
	ls, err := newLanes(saDA, landedSlots(scheds), initial, tAvail)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range ls {
		if err := l.measured(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	return ls
}

// BLIS Type-1 exactness of the bound: over battery seeds 1–8, both cost
// models, the bench's 6×6 grid and a 40×40 one, at Parallelism 1 and 4,
// every admissible cell of the pruned sweep carries the bits of the
// unpruned reduction — on the default battery, on {N 6, T 3}, whose
// nemeses read before the first write from outside the initial scheme
// (the relaxation's prefix), and on {N 4, T 1}, where the execution sets
// the relaxation weighs are padded to no one.
func TestSweepPruningIsExact(t *testing.T) {
	fine := make([]float64, 40)
	for i := range fine {
		fine[i] = 0.05 + float64(i)*0.05
	}
	wide, single := DefaultBattery(), DefaultBattery()
	wide.N, wide.T = 6, 3
	single.N, single.T = 4, 1
	for _, grid := range []struct {
		name string
		axis []float64
	}{{"6x6", goldenAxis}, {"40x40", fine}} {
		for _, battery := range []BatteryConfig{DefaultBattery(), wide, single} {
			shape := "" // the default battery's subtests carry no shape
			if battery != DefaultBattery() {
				shape = fmt.Sprintf("/N=%d,T=%d", battery.N, battery.T)
			}
			for _, mobile := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s%s/mobile=%t", grid.name, shape, mobile), func(t *testing.T) {
					for seed := int64(1); seed <= 8; seed++ {
						spec := SweepSpec{CDs: grid.axis, CCs: grid.axis, Mobile: mobile, Battery: battery, Seed: seed}
						want := unprunedSweep(t, spec)
						for _, parallelism := range []int{1, 4} {
							spec.Parallelism = parallelism
							points, err := Sweep(context.Background(), spec)
							if err != nil {
								t.Fatal(err)
							}
							k := 0
							for _, p := range points {
								if p.Analytic == RegionCannotBeTrue {
									continue
								}
								w := want[k]
								k++
								if p.CC != w.CC || p.CD != w.CD ||
									math.Float64bits(p.SAWorst) != math.Float64bits(w.SAWorst) ||
									math.Float64bits(p.DAWorst) != math.Float64bits(w.DAWorst) {
									t.Fatalf("seed %d, Parallelism %d, cc=%g cd=%g: pruned SA %b DA %b, unpruned SA %b DA %b",
										seed, parallelism, p.CC, p.CD, p.SAWorst, p.DAWorst, w.SAWorst, w.DAWorst)
								}
							}
							if k != len(want) {
								t.Fatalf("seed %d: %d admissible cells, want %d", seed, k, len(want))
							}
						}
					}
				})
			}
		}
	}
}

// sweepCounters returns how many (schedule, cell) pairs a sweep of spec's
// square grid (its CCs are its CDs) prices and how many the bound prunes,
// from the count lanes.worst keeps.
func sweepCounters(t *testing.T, spec SweepSpec) (priced, pruned int) {
	t.Helper()
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	ls, err := newLanes(saDA, spec.Battery.layout(), spec.Battery.Initial(), spec.Battery.T)
	if err != nil {
		t.Fatal(err)
	}
	models := gridModels(spec.CDs, spec.Mobile)
	if _, priced, err = ls.worst(context.Background(), models, opt.ModelChunk(spec.Battery.N), spec.Parallelism); err != nil {
		t.Fatal(err)
	}
	return priced, len(ls[0].scheds)*len(models) - priced
}

// The bound prunes all but each cell's two incumbents: on the default
// battery the 6×6 sweep prices at most 2 pairs per admissible cell, 42 of
// 420, in SC and in MC, at battery seeds 1–8 and every Parallelism — the
// closed form alone priced 68–108 in SC and ~400 in MC, and this gate
// keeps the gain from rotting. Each lane searches its own algorithm's worst
// case, so a pair both need is priced by both; on the default battery, on
// the 6×6 grid and a 10×10 one, no pair is. And a zero lower bound prunes
// nothing: on a one-processor battery under MC every read is local and
// every write keeps the one copy, so the optimum and both of every
// schedule's lower bounds are 0, every pair's ratio bound is +Inf (never a
// 0/0), and every pair is priced.
func TestSweepPairCounters(t *testing.T) {
	cells := 21 * len(DefaultBattery().Build())
	for _, mobile := range []bool{false, true} {
		for seed := int64(1); seed <= 8; seed++ {
			for _, parallelism := range []int{1, 4, 0} {
				spec := SweepSpec{CDs: goldenAxis, CCs: goldenAxis, Mobile: mobile, Battery: DefaultBattery(), Seed: seed, Parallelism: parallelism}
				priced, pruned := sweepCounters(t, spec)
				if priced+pruned != cells || priced > 2*21 {
					t.Errorf("mobile=%t, seed %d, Parallelism %d: %d pairs priced and %d pruned, want %d in all and at most 42 priced",
						mobile, seed, parallelism, priced, pruned, cells)
				}
			}
		}
	}

	tenByTen := make([]float64, 10)
	for i := range tenByTen {
		tenByTen[i] = 0.1 + float64(i)*0.2
	}
	ctx := context.Background()
	for _, axis := range [][]float64{goldenAxis, tenByTen} {
		for _, mobile := range []bool{false, true} {
			for seed := int64(1); seed <= 8; seed++ {
				battery := DefaultBattery()
				battery.Seed = seed
				ls := measuredLanes(t, battery.Build(), battery.Initial(), battery.T)
				models := gridModels(axis, mobile)
				nSched := len(ls[0].scheds)
				var optCosts [2][]float64
				for f, l := range ls {
					optCosts[f] = make([]float64, len(models)*nSched)
					for i := range optCosts[f] {
						optCosts[f][i] = math.NaN()
					}
					if err := l.price(ctx, models, optCosts[f], make([]float64, len(models))); err != nil {
						t.Fatal(err)
					}
				}
				both := 0
				for k := range optCosts[0] {
					if !math.IsNaN(optCosts[0][k]) && !math.IsNaN(optCosts[1][k]) {
						both++
					}
				}
				if both != 0 {
					t.Errorf("%d×%d grid, mobile=%t, seed %d: %d pairs priced by both lanes, want 0", len(axis), len(axis), mobile, seed, both)
				}
			}
		}
	}

	battery := BatteryConfig{N: 1, T: 1, RandomSchedules: 2, RandomLength: 12, Seed: 7}
	scheds := battery.Build()
	for _, l := range measuredLanes(t, scheds, battery.Initial(), battery.T) {
		x := l.newPairBounds([]cost.Model{cost.MC(0.2, 0.5)})
		for s := range scheds {
			if x.floor(s, 0) != 0 || x.price(s, 0) != 0 || !x.unbounded(s, 0) {
				t.Fatalf("one processor, MC: schedule %d: floor %g, relaxation %g, unbounded %t; want 0, 0, true", s, x.floor(s, 0), x.price(s, 0), x.unbounded(s, 0))
			}
		}
	}
	spec := SweepSpec{CDs: goldenAxis, CCs: goldenAxis, Mobile: true, Battery: battery}
	if priced, pruned := sweepCounters(t, spec); priced != 21*len(scheds) || pruned != 0 {
		t.Errorf("one processor, MC: %d pairs priced and %d pruned, want %d and 0", priced, pruned, 21*len(scheds))
	}
}

// gridModels returns the admissible cells' pricing models of a square grid
// over axis, in a sweep's order.
func gridModels(axis []float64, mobile bool) []cost.Model {
	var models []cost.Model
	for _, cc := range axis {
		for _, cd := range axis {
			m := cost.SC(cc, cd)
			if mobile {
				m = cost.MC(cc, cd)
			}
			if m.Region() != RegionCannotBeTrue {
				models = append(models, pricing(m, 1))
			}
		}
	}
	return models
}

// BLIS Type-1 exactness of the sweep itself: over battery seeds 1–8, both
// cost models and the bench's 6×6 grid, every worst ratio the sweep
// reports is the correctly rounded quotient of two exact costs — the
// largest over the battery of big.Rat(algCost, OPT).Float64(), with OPT
// from opt.Solve, the one-model DP with the full transform and no period
// shortcut, and algCost the lane's integer counts, both at the cell's
// pricing model, whose prices are whole.
func TestSweepIsExact(t *testing.T) {
	for _, mobile := range []bool{false, true} {
		for seed := int64(1); seed <= 8; seed++ {
			spec := SweepSpec{CDs: goldenAxis, CCs: goldenAxis, Mobile: mobile, Battery: DefaultBattery(), Seed: seed}
			points, err := Sweep(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			if err := spec.Normalize(); err != nil {
				t.Fatal(err)
			}
			ls := measuredLanes(t, spec.Battery.Build(), spec.Battery.Initial(), spec.Battery.T)
			models := gridModels(goldenAxis, mobile)
			k := 0
			for _, p := range points {
				if p.Analytic == RegionCannotBeTrue {
					continue
				}
				m := models[k]
				k++
				if !opt.Whole(m) {
					t.Fatalf("cc=%g cd=%g prices at %v, not whole", p.CC, p.CD, m)
				}
				var worst [2]float64
				for s, sched := range ls[0].scheds {
					res, err := opt.Solve(m, sched, spec.Battery.Initial(), spec.Battery.T)
					if err != nil {
						t.Fatal(err)
					}
					for f, l := range ls {
						worst[f] = max(worst[f], exactRatio(t, l.counts[s].Price(m), res.Cost))
					}
				}
				if math.Float64bits(p.SAWorst) != math.Float64bits(worst[0]) || math.Float64bits(p.DAWorst) != math.Float64bits(worst[1]) {
					t.Errorf("mobile=%t, seed %d, cc=%g cd=%g: sweep SA %b DA %b, exact SA %b DA %b",
						mobile, seed, p.CC, p.CD, p.SAWorst, p.DAWorst, worst[0], worst[1])
				}
			}
		}
	}
}

// exactRatio is alg/optimal by ratioOf's rules, computed from the two
// whole costs as exact integers and rounded once.
func exactRatio(t *testing.T, alg, optimal float64) float64 {
	t.Helper()
	if alg != math.Trunc(alg) || optimal != math.Trunc(optimal) || max(alg, optimal) >= 1<<53 {
		t.Fatalf("costs %g and %g are not whole numbers below 2^53", alg, optimal)
	}
	if optimal == 0 {
		return ratioOf(alg, optimal)
	}
	r, _ := new(big.Rat).SetFrac(big.NewInt(int64(alg)), big.NewInt(int64(optimal))).Float64()
	return r
}
