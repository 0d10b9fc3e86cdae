package competitive

import (
	"context"
	"fmt"

	"objalloc/internal/cost"
	"objalloc/internal/opt"
)

// Region and its four values live beside the model they classify
// (cost.Model.Region); these aliases stay only because bench/ compiles
// against them, so the [benchmark] PR that may edit bench/ can drop them.
type Region = cost.Region

const (
	RegionCannotBeTrue = cost.RegionCannotBeTrue
	RegionSASuperior   = cost.RegionSASuperior
	RegionDASuperior   = cost.RegionDASuperior
	RegionUnknown      = cost.RegionUnknown
)

// GridPoint is one measured point of a plane sweep.
type GridPoint struct {
	CC, CD float64
	// Analytic is the classification from the paper's bounds.
	Analytic Region
	// SAWorst and DAWorst are the measured worst-case ratios over the
	// battery (left 0 in the cannot-be-true region, which is skipped).
	SAWorst, DAWorst float64
	// Empirical is the classification by measured worst case: whichever
	// algorithm has the strictly lower worst ratio.
	Empirical Region
}

// SweepSpec bundles everything a plane sweep needs: the grid, the cost
// model family, the schedule battery, and the execution options of the
// parallel engine.
type SweepSpec struct {
	// CDs and CCs are the grid axes; the sweep measures every (cd, cc)
	// pair, iterating cc-major (points appear row by row of cc).
	CDs, CCs []float64
	// Mobile selects the MC cost model (figure 2) instead of SC
	// (figure 1).
	Mobile bool
	// Battery is the schedule battery every grid point is measured over.
	Battery BatteryConfig
	// Parallelism bounds the number of engine tasks run concurrently — the
	// build of the battery, then DA's and SA's tasks, each one algorithm's
	// worst case searched over one chunk of the grid's models
	// (opt.ModelChunk); zero or negative selects engine.DefaultParallelism
	// (GOMAXPROCS). Results are identical for every value of Parallelism.
	Parallelism int
	// Seed, when nonzero, overrides Battery.Seed.
	Seed int64
}

// Normalize validates the spec and resolves its defaults in place: a
// nonzero Seed overrides Battery.Seed. It is the single place SweepSpec
// validation happens; Sweep calls it first.
func (spec *SweepSpec) Normalize() error {
	if spec.Seed != 0 {
		spec.Battery.Seed = spec.Seed
	}
	if spec.Battery.N < 1 || spec.Battery.T < 1 {
		return fmt.Errorf("competitive: sweep battery needs N >= 1 and T >= 1, got N=%d T=%d", spec.Battery.N, spec.Battery.T)
	}
	if spec.Battery.T > spec.Battery.N {
		return fmt.Errorf("competitive: sweep battery T (%d) exceeds N (%d)", spec.Battery.T, spec.Battery.N)
	}
	return nil
}

// Sweep measures SA and DA over the battery at every point of a (cd, cc)
// grid and classifies each point both analytically and empirically.
// Points with cc > cd are marked cannot-be-true and skipped.
//
// A cell's two figures are two separate maxima, SA's worst ratio and DA's,
// so the sweep searches them in two lanes (see lanes.worst). The battery is
// built inside the run, and a lane measures each schedule as it lands (see
// slots). SA and DA are cost-oblivious, so each lane measures the battery
// once (see lane) and then prices a schedule under the admissible cells'
// models in one pass of the offline DP per chunk of models
// (opt.Plan.Costs) — under those cells only where a lower bound on the
// optimum says it could set the lane's worst ratio there. A cell is priced
// at its model in whole units where one exists (pricing), so its ratios
// are the correctly rounded quotients of exact costs. The sweep is one
// engine run of the build and (algorithm, model-chunk) tasks; a task
// writes only its own cells and reduces them in battery order, so the
// points are byte-identical to a serial run, and to pricing every pair,
// whatever order the pool ran the tasks in. Cancelling the context aborts
// the passes in flight and returns ctx.Err().
func Sweep(ctx context.Context, spec SweepSpec) ([]GridPoint, error) {
	if err := spec.Normalize(); err != nil {
		return nil, err
	}
	ls, err := newLanes(saDA, spec.Battery.layout(), spec.Battery.Initial(), spec.Battery.T)
	if err != nil {
		return nil, err
	}
	return sweep(ctx, spec, ls)
}

// sweep is Sweep over the lanes of a given battery, whose schedules have at
// most spec.Battery.N processors.
func sweep(ctx context.Context, spec SweepSpec, ls lanes) ([]GridPoint, error) {
	points := make([]GridPoint, 0, len(spec.CCs)*len(spec.CDs))
	models := make([]cost.Model, 0, cap(points)) // the admissible cells' pricing models, in grid order
	cellOf := make([]int, 0, cap(points))        // cellOf[j] is the point models[j] prices
	// Each cd's own smallest scale (see pricing), on the stack for grids of
	// up to 32 columns.
	var scales [32]float64
	cdScale := scales[:0]
	for _, cdv := range spec.CDs {
		cdScale = append(cdScale, priceScale(cdv))
	}
	for _, ccv := range spec.CCs {
		ccScale := priceScale(ccv)
		for i, cdv := range spec.CDs {
			m := cost.SC(ccv, cdv)
			if spec.Mobile {
				m = cost.MC(ccv, cdv)
			}
			p := GridPoint{CC: ccv, CD: cdv, Analytic: m.Region()}
			if p.Analytic == RegionCannotBeTrue {
				p.Empirical = RegionCannotBeTrue
			} else {
				if err := m.Validate(); err != nil {
					return nil, fmt.Errorf("competitive: sweep at cc=%g cd=%g: %w", ccv, cdv, err)
				}
				from := max(ccScale, cdScale[i])
				if min(ccScale, cdScale[i]) == 0 {
					from = 0
				}
				models, cellOf = append(models, pricing(m, from)), append(cellOf, len(points))
			}
			points = append(points, p)
		}
	}
	// A task's models are at most one pass of the DP (no battery schedule
	// has more than Battery.N processors), so a large grid spreads each
	// lane over the pool instead of pinning it to one worker.
	worst, _, err := ls.worst(ctx, models, opt.ModelChunk(spec.Battery.N), spec.Parallelism)
	if err != nil {
		return nil, err
	}
	for j := range models {
		p := &points[cellOf[j]]
		p.SAWorst, p.DAWorst = worst[0][j], worst[1][j]
		switch {
		case p.SAWorst < p.DAWorst:
			p.Empirical = RegionSASuperior
		case p.DAWorst < p.SAWorst:
			p.Empirical = RegionDASuperior
		default:
			p.Empirical = RegionUnknown
		}
	}
	return points, nil
}
