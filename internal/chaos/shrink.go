package chaos

import (
	"objalloc/internal/ddmin"
	"objalloc/internal/netsim"
)

// failsWith replays the scenario and reports whether it still breaches the
// named invariant (any invariant when the name is empty). Setup/step
// errors (a shrunk prefix may, e.g., drop a restart the rest of the
// schedule needed) count as "does not reproduce" — the shrinker only keeps
// reductions that preserve the original failure shape.
func failsWith(sc Scenario, invariant string) bool {
	res, err := Run(sc, nil)
	if err != nil || !res.Failed() {
		return false
	}
	if invariant == "" {
		return true
	}
	for _, v := range res.Violations {
		if v.Invariant == invariant {
			return true
		}
	}
	return false
}

// Shrink minimizes a failing scenario with delta debugging: first
// ddmin.Min over the expanded step list (a 1-minimal schedule that still
// breaks the original invariant class), then zeroing each fault knob
// that turns out not to be load-bearing. The result has an explicit
// Schedule and reproduces a violation of the same invariant; if the input
// does not fail, it is returned unchanged.
func Shrink(sc Scenario) Scenario {
	if err := sc.normalize(); err != nil {
		return sc
	}
	first, err := Run(sc, nil)
	if err != nil || !first.Failed() {
		return sc
	}
	invariant := first.Violations[0].Invariant
	sc.Schedule = sc.Expand()
	sc.Steps = 0

	// failsWith counts a run error as "does not reproduce", so Min cannot fail.
	sc.Schedule, _ = ddmin.Min(sc.Schedule, func(steps []Step) (bool, error) {
		candidate := sc
		candidate.Schedule = steps
		return failsWith(candidate, invariant), nil
	})

	// Zero out fault knobs the failure does not depend on.
	for _, zero := range []func(*netsim.FaultPlan){
		func(p *netsim.FaultPlan) { p.Flap, p.FlapLen = 0, 0 },
		func(p *netsim.FaultPlan) { p.Dup = 0 },
		func(p *netsim.FaultPlan) { p.Delay, p.DelayMax = 0, 0 },
		func(p *netsim.FaultPlan) { p.Loss = 0 },
	} {
		candidate := sc
		zero(&candidate.Faults)
		if failsWith(candidate, invariant) {
			sc.Faults = candidate.Faults
		}
	}
	return sc
}
