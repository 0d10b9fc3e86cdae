package competitive

import (
	"context"
	"fmt"

	"objalloc/internal/cost"
	"objalloc/internal/obs"
)

// CrossoverResult locates, for one cc, the cd at which the measured
// worst-case winner flips from SA to DA.
type CrossoverResult struct {
	CC float64
	// CD is the bisected crossover point; meaningful only when
	// DAEverywhere is false.
	CD float64
	// DAEverywhere reports that DA already wins at the smallest
	// admissible cd (= cc), so no crossover exists in the range.
	DAEverywhere bool
}

// CrossoverSpec configures the crossover bisection.
type CrossoverSpec struct {
	// CC is the fixed control-message cost; the bisection runs over
	// cd in (CC, CDMax].
	CC, CDMax float64
	// Iters is the number of bisection steps; fewer than 1 means 10.
	Iters int
	// Battery is the schedule battery whose worst-case ratios decide the
	// winner at each probed cd.
	Battery BatteryConfig
	// Parallelism bounds the concurrent tasks inside each bisection step,
	// SA's lane and DA's (the steps themselves are inherently
	// sequential); zero or negative selects engine.DefaultParallelism.
	Parallelism int
	// Obs attaches the instrumentation layer: each bisection probe emits
	// one "probe" event. Probes are sequential, so emission order is the
	// bisection order for every Parallelism. Nil disables instrumentation.
	Obs *obs.Obs
}

// Normalize validates the spec and resolves its defaults in place: Iters
// below 1 becomes 10. It is the single place CrossoverSpec validation
// happens; Crossover calls it first.
func (spec *CrossoverSpec) Normalize() error {
	if spec.CDMax <= spec.CC {
		return fmt.Errorf("competitive: cdMax (%g) must exceed cc (%g)", spec.CDMax, spec.CC)
	}
	if spec.Iters < 1 {
		spec.Iters = 10
	}
	return nil
}

// Crossover bisects the measured SA/DA crossover on the cd axis for a
// fixed cc, within (cc, cdMax], using bisection over the battery's
// worst-case ratios. The paper's bounds only bracket this point inside
// [0.5−cc, 1]; the measurement pins it down for a concrete battery.
//
// The bisection is sequential; each probe is the sweep's lanes (see
// lanes.worst) at the probed model, which skip every schedule the lower
// bound rules out. Each lane measures the battery in the first probe's
// run and keeps it for the rest. Cancelling the context aborts the probe
// in flight and returns ctx.Err().
func Crossover(ctx context.Context, spec CrossoverSpec) (CrossoverResult, error) {
	if err := spec.Normalize(); err != nil {
		return CrossoverResult{}, err
	}
	cc, cdMax, iters := spec.CC, spec.CDMax, spec.Iters
	ls, err := newLanes(saDA, landedSlots(spec.Battery.Build()), spec.Battery.Initial(), spec.Battery.T)
	if err != nil {
		return CrossoverResult{}, err
	}
	daWins := func(cd float64) (bool, error) {
		// The sweep's lanes at one model.
		worst, _, err := ls.worst(ctx, []cost.Model{cost.SC(cc, cd)}, 1, spec.Parallelism, nil)
		if err != nil {
			return false, err
		}
		sa, da := worst[0][0], worst[1][0]
		win := da <= sa
		if o := spec.Obs; o.Enabled() {
			o.Emit(obs.Event{Name: "probe", Attrs: []obs.Attr{
				obs.Float("cc", cc),
				obs.Float("cd", cd),
				obs.Float("sa_worst", sa),
				obs.Float("da_worst", da),
				obs.Bool("da_wins", win),
			}})
			o.Counter("crossover.probes").Inc()
		}
		return win, nil
	}

	lo, hi := cc, cdMax
	win, err := daWins(lo)
	if err != nil {
		return CrossoverResult{}, err
	}
	if win {
		return CrossoverResult{CC: cc, CD: cc, DAEverywhere: true}, nil
	}
	for i := 0; i < iters; i++ {
		mid := (lo + hi) / 2
		win, err := daWins(mid)
		if err != nil {
			return CrossoverResult{}, err
		}
		if win {
			hi = mid
		} else {
			lo = mid
		}
	}
	return CrossoverResult{CC: cc, CD: (lo + hi) / 2}, nil
}
