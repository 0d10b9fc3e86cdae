// Package regret is the offline harness of experiment E25: it measures the
// adaptive controller against pure SA, pure DA and the offline optimum over
// a schedule battery. It lives apart from package adaptive so that a binary
// serving the controller (objallocd) does not link the laboratory —
// adversary, engine, opt, workload — that only this measurement needs.
package regret

import (
	"context"
	"fmt"
	"math"

	"objalloc/internal/adaptive"
	"objalloc/internal/adversary"
	"objalloc/internal/cost"
	"objalloc/internal/dom"
	"objalloc/internal/engine"
	"objalloc/internal/model"
	"objalloc/internal/obs"
	"objalloc/internal/opt"
	"objalloc/internal/workload"
)

// Case is one named schedule of a regret battery.
type Case struct {
	Name  string
	Sched model.Schedule
}

// RegretSpec bundles everything a regret measurement needs: the cost
// model, the controller configuration, the system shape, the schedule
// battery, and the execution options of the parallel engine.
type RegretSpec struct {
	// Model prices every run; it also drives the controller's region
	// test.
	Model cost.Model
	// Spec configures the adaptive controller under test. The zero value
	// selects the defaults.
	Spec adaptive.Spec
	// N is the number of processors and T the availability threshold of
	// the battery's schedules.
	N, T int
	// Initial is the initial allocation scheme; empty selects the first
	// T processors.
	Initial model.Set
	// Cases is the schedule battery. Empty selects DefaultBattery(N, T,
	// Seed) — adversarial mix-flips plus seeded stochastic workloads.
	Cases []Case
	// Seed seeds the default battery's stochastic schedules.
	Seed int64
	// Parallelism bounds the number of cases measured concurrently; zero
	// or negative selects engine.DefaultParallelism. Results are
	// identical for every value.
	Parallelism int
	// Obs attaches the instrumentation layer: the engine reports task
	// progress, and after the measurement one "regret" event per case is
	// emitted in battery order. Nil disables instrumentation.
	Obs *obs.Obs
}

// Normalize validates the spec and resolves defaults in place. It is the
// single place RegretSpec validation happens; Regret calls it first.
func (spec *RegretSpec) Normalize() error {
	if err := spec.Model.Validate(); err != nil {
		return err
	}
	if err := spec.Spec.Normalize(); err != nil {
		return err
	}
	if spec.N < 1 || spec.T < 1 {
		return fmt.Errorf("adaptive: regret needs N >= 1 and T >= 1, got N=%d T=%d", spec.N, spec.T)
	}
	if spec.T > spec.N {
		return fmt.Errorf("adaptive: regret T (%d) exceeds N (%d)", spec.T, spec.N)
	}
	if spec.Initial.IsEmpty() {
		for k := 0; k < spec.T; k++ {
			spec.Initial = spec.Initial.Add(model.ProcessorID(k))
		}
	}
	if spec.Initial.Size() < spec.T {
		return fmt.Errorf("adaptive: regret initial scheme %v smaller than T=%d", spec.Initial, spec.T)
	}
	if len(spec.Cases) == 0 {
		spec.Cases = DefaultBattery(spec.N, spec.T, spec.Seed)
	}
	return nil
}

// DefaultBattery builds the standard regret battery for an n-processor
// system with availability t: the adversarial families each protocol is
// worst on, the mix-flip schedule that punishes any fixed choice, and
// seeded stochastic workloads. Deterministic for a given seed.
func DefaultBattery(n, t int, seed int64) []Case {
	outsider := model.ProcessorID(n - 1)
	writer := model.ProcessorID(0)
	cases := []Case{
		{Name: "mixflip", Sched: adversary.MixFlip(outsider, writer, 60, 4)},
		{Name: "sa-punisher", Sched: adversary.SAPunisher(outsider, 120)},
		{Name: "pingpong", Sched: adversary.PingPong(writer, outsider, 60)},
	}
	for i, ws := range []string{
		fmt.Sprintf("uniform:n=%d,len=240,pwrite=0.3", n),
		fmt.Sprintf("hotspot:n=%d,len=240,pwrite=0.1", n),
		fmt.Sprintf("uniform:n=%d,len=240,pwrite=0.7", n),
	} {
		sched, err := workload.FromSpec(engine.TaskRNG(seed, i), ws)
		if err != nil {
			// The specs above are constants; failure is a programming
			// error.
			panic(err)
		}
		cases = append(cases, Case{Name: ws, Sched: sched})
	}
	return cases
}

// RegretPoint is the measurement of one battery case: the total
// paper-model cost of the adaptive controller (including its transition
// charges) against pure SA, pure DA and the offline optimum.
type RegretPoint struct {
	// Case names the schedule.
	Case string
	// Requests is the schedule length.
	Requests int
	// Adaptive, SA, DA and Opt are total costs. Opt is the exact offline
	// optimum when Exact is true, otherwise the beam-search upper bound
	// (instance too large for the exact solver).
	Adaptive, SA, DA, Opt float64
	Exact                 bool
	// Switches is how many protocol transitions the controller performed.
	Switches int
	// VsOpt is Adaptive/Opt — the measured regret ratio. VsBestFixed is
	// Adaptive/min(SA, DA): below 1 means the controller beat both fixed
	// protocols on this schedule.
	VsOpt, VsBestFixed float64
}

// Regret measures the adaptive controller against pure SA, pure DA and
// the offline optimum on every case of the battery.
//
// Cases are independent, so they are evaluated on the engine's bounded
// worker pool; results are assembled in battery order and are
// byte-identical to a serial run. Cancelling the context aborts the
// remaining cases and returns ctx.Err().
func Regret(ctx context.Context, spec RegretSpec) ([]RegretPoint, error) {
	if err := spec.Normalize(); err != nil {
		return nil, err
	}
	points, err := engine.CollectObserved(ctx, len(spec.Cases), spec.Parallelism, spec.Obs.Hook(), func(ctx context.Context, i int) (RegretPoint, error) {
		cs := spec.Cases[i]
		p := RegretPoint{Case: cs.Name, Requests: len(cs.Sched)}

		ctrl, err := adaptive.New(spec.Model, spec.Spec, spec.Initial, spec.T)
		if err != nil {
			return p, fmt.Errorf("adaptive: regret case %q: %w", cs.Name, err)
		}
		p.Adaptive, _, p.Switches = adaptive.RunCost(spec.Model, ctrl, cs.Sched)

		for _, fixed := range []struct {
			f    dom.Factory
			cost *float64
		}{{dom.StaticFactory, &p.SA}, {dom.DynamicFactory, &p.DA}} {
			alg, err := fixed.f(spec.Initial, spec.T)
			if err != nil {
				return p, fmt.Errorf("adaptive: regret case %q: %w", cs.Name, err)
			}
			*fixed.cost, _, _ = adaptive.RunCost(spec.Model, alg, cs.Sched)
		}

		p.Opt, err = opt.SolveCostContext(ctx, spec.Model, cs.Sched, spec.Initial, spec.T)
		if err == nil {
			p.Exact = true
		} else {
			if ctx.Err() != nil {
				return p, ctx.Err()
			}
			// Instance too large for the exact solver: fall back to the
			// beam upper bound so the ratio stays meaningful (it
			// under-estimates the regret).
			beam, berr := opt.BeamContext(ctx, spec.Model, cs.Sched, spec.Initial, spec.T, 32)
			if berr != nil {
				return p, fmt.Errorf("adaptive: regret case %q: exact: %v; beam: %w", cs.Name, err, berr)
			}
			p.Opt = beam.Cost
		}
		if p.Opt > 0 {
			p.VsOpt = p.Adaptive / p.Opt
		} else {
			p.VsOpt = math.NaN()
		}
		if best := math.Min(p.SA, p.DA); best > 0 {
			p.VsBestFixed = p.Adaptive / best
		} else {
			p.VsBestFixed = math.NaN()
		}
		return p, nil
	})
	if err != nil {
		return points, err
	}
	emitRegret(spec.Obs, points)
	return points, nil
}

// emitRegret renders the finished measurement into the instrumentation
// layer: one "regret" event per case, in battery order, plus registry
// totals. It runs single-threaded after Collect has assembled the points,
// so the emission is deterministic regardless of how the cases were
// scheduled.
func emitRegret(o *obs.Obs, points []RegretPoint) {
	if !o.Enabled() {
		return
	}
	for _, p := range points {
		o.Emit(obs.Event{Name: "regret", Attrs: []obs.Attr{
			obs.String("case", p.Case),
			obs.Int("requests", p.Requests),
			obs.Float("adaptive", p.Adaptive),
			obs.Float("sa", p.SA),
			obs.Float("da", p.DA),
			obs.Float("opt", p.Opt),
			obs.Bool("exact", p.Exact),
			obs.Int("switches", p.Switches),
			obs.Float("vs_opt", p.VsOpt),
			obs.Float("vs_best_fixed", p.VsBestFixed),
		}})
		o.Counter("regret.cases").Inc()
		o.Histogram("regret.vs_opt_milli", 1000, 1100, 1250, 1500, 2000, 3000).Observe(int64(p.VsOpt * 1000))
		if p.VsBestFixed < 1 {
			o.Counter("regret.beats_both_fixed").Inc()
		}
	}
}
