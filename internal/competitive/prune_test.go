package competitive

import (
	"context"
	"fmt"
	"math"
	"testing"

	"objalloc/internal/cost"
	"objalloc/internal/obs"
)

// unprunedSweep is the reduction the bound must not change: every battery
// schedule priced at every admissible cell of the sweep's grid, each
// cell's worst ratios reduced by worst over its whole column.
func unprunedSweep(t *testing.T, spec SweepSpec) []GridPoint {
	t.Helper()
	ctx := context.Background()
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	prep, err := newPrepared(saDA, spec.Battery.Build(), spec.Battery.Initial(), spec.Battery.T)
	if err != nil {
		t.Fatal(err)
	}
	if err := prep.measureAll(ctx, 1, nil); err != nil {
		t.Fatal(err)
	}
	var points []GridPoint
	var models []cost.Model
	for _, cc := range spec.CCs {
		for _, cd := range spec.CDs {
			m := cost.SC(cc, cd)
			if spec.Mobile {
				m = cost.MC(cc, cd)
			}
			if m.Region() != RegionCannotBeTrue {
				points, models = append(points, GridPoint{CC: cc, CD: cd}), append(models, m)
			}
		}
	}
	columns := make([][]float64, len(models)) // [cell][schedule]
	for j := range columns {
		columns[j] = make([]float64, len(prep.scheds))
	}
	for s := range prep.scheds {
		p, err := prep.plan(s)
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
		points[j].SAWorst = prep.worst(0, m, columns[j]).Ratio
		points[j].DAWorst = prep.worst(1, m, columns[j]).Ratio
	}
	return points
}

// BLIS Type-1 exactness of the bound: over battery seeds 1–8, both cost
// models, the bench's 6×6 grid and a 40×40 one, at Parallelism 1 and 4,
// every admissible cell of the pruned sweep carries the bits of the
// unpruned reduction.
func TestSweepPruningIsExact(t *testing.T) {
	fine := make([]float64, 40)
	for i := range fine {
		fine[i] = 0.05 + float64(i)*0.05
	}
	for _, grid := range []struct {
		name string
		axis []float64
	}{{"6x6", goldenAxis}, {"40x40", fine}} {
		for _, mobile := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/mobile=%t", grid.name, mobile), func(t *testing.T) {
				for seed := int64(1); seed <= 8; seed++ {
					spec := SweepSpec{CDs: grid.axis, CCs: grid.axis, Mobile: mobile, Battery: DefaultBattery(), Seed: seed}
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

// sweepCounters returns a sweep's priced and pruned pair counters.
func sweepCounters(t *testing.T, spec SweepSpec) (priced, pruned int64) {
	t.Helper()
	r := obs.NewRegistry()
	spec.Obs = &obs.Obs{Registry: r}
	if _, err := Sweep(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	return r.Counter("sweep.pairs_priced").Value(), r.Counter("sweep.pairs_pruned").Value()
}

// The bound prunes, and a zero lower bound prunes nothing: under MC at
// t = 1 every schedule's bound is 0 — reads and single-copy writes cost
// nothing the bound can see — so every pair's ratio bound is +Inf (never
// a 0/0) and every pair is priced.
func TestSweepPairCounters(t *testing.T) {
	battery := DefaultBattery()
	cells := 21 * len(battery.Build())
	priced, pruned := sweepCounters(t, SweepSpec{CDs: goldenAxis, CCs: goldenAxis, Battery: battery})
	if priced+pruned != int64(cells) || pruned == 0 {
		t.Errorf("SC: %d pairs priced and %d pruned, want %d in all and some pruned", priced, pruned, cells)
	}

	battery.T = 1
	spec := SweepSpec{CDs: goldenAxis, CCs: goldenAxis, Mobile: true, Battery: battery}
	prep, err := newPrepared(saDA, battery.Build(), battery.Initial(), battery.T)
	if err != nil {
		t.Fatal(err)
	}
	if err := prep.measureAll(context.Background(), 1, nil); err != nil {
		t.Fatal(err)
	}
	for s := range prep.scheds {
		for f := range saDA {
			if b := prep.bound(f, s, cost.MC(0.2, 0.5)); !math.IsInf(b, 1) {
				t.Fatalf("MC, t = 1: schedule %d, factory %d: ratio bound %g, want +Inf", s, f, b)
			}
		}
	}
	if priced, pruned := sweepCounters(t, spec); priced != int64(cells) || pruned != 0 {
		t.Errorf("MC, t = 1: %d pairs priced and %d pruned, want %d and 0", priced, pruned, cells)
	}
}
