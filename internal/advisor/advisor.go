// Package advisor operationalizes the paper's results as a decision aid:
// given a deployment's cost parameters — and optionally a sample of its
// workload — it recommends static or dynamic allocation.
//
// Two levels of advice are offered. Analytic advice applies figures 1
// and 2 directly: the region of the (cd, cc) plane the deployment lands in
// decides the worst-case winner (or reports that the paper's bounds leave
// the point open). Empirical advice settles open points for a concrete
// workload: it runs SA, DA, and the configured baselines on a sample
// schedule, compares their measured costs (and, when the instance is small
// enough, their ratios against the exact offline optimum), and recommends
// the cheapest — the procedure a DBA would follow with a trace of last
// week's accesses.
package advisor

import (
	"fmt"
	"sort"

	"objalloc/internal/cost"
	"objalloc/internal/dom"
	"objalloc/internal/model"
	"objalloc/internal/opt"
)

// Choice is a recommendation.
type Choice int

const (
	// ChooseSA recommends static allocation.
	ChooseSA Choice = iota
	// ChooseDA recommends dynamic allocation.
	ChooseDA
	// ChooseEither means the paper's bounds do not separate the two at
	// this cost point; use empirical advice.
	ChooseEither
	// ChooseInvalid marks an impossible cost point (cc > cd).
	ChooseInvalid
)

// String implements fmt.Stringer.
func (c Choice) String() string {
	switch c {
	case ChooseSA:
		return "SA"
	case ChooseDA:
		return "DA"
	case ChooseEither:
		return "either (bounds do not separate)"
	case ChooseInvalid:
		return "invalid cost point"
	default:
		return fmt.Sprintf("Choice(%d)", int(c))
	}
}

// Analytic recommends from the cost model alone, per figures 1 and 2.
func Analytic(m cost.Model) Choice {
	switch m.Region() {
	case cost.RegionCannotBeTrue:
		return ChooseInvalid
	case cost.RegionSASuperior:
		return ChooseSA
	case cost.RegionDASuperior:
		return ChooseDA
	default:
		return ChooseEither
	}
}

// Candidate is one algorithm the empirical advisor considers.
type Candidate struct {
	Name    string
	Factory dom.Factory
}

// DefaultCandidates are SA and DA.
func DefaultCandidates() []Candidate {
	return []Candidate{
		{Name: "SA", Factory: dom.StaticFactory},
		{Name: "DA", Factory: dom.DynamicFactory},
	}
}

// Evaluation is one candidate's measured performance on the sample.
type Evaluation struct {
	Name string
	// Cost is the candidate's total cost on the sample.
	Cost float64
	// Ratio is Cost divided by Advice.OptimalCost, 0 when that is 0: the
	// ratio to the optimum when the sample was solved exactly, and a
	// value no larger than it when beam search stood in.
	Ratio float64
}

// Advice is the empirical recommendation.
type Advice struct {
	// Analytic is the figure-based recommendation for the cost point.
	Analytic Choice
	// Best names the cheapest candidate on the sample.
	Best string
	// Evaluations lists every candidate, cheapest first.
	Evaluations []Evaluation
	// OptimalCost is the exact offline optimum on the sample, or, when the
	// instance exceeded the exact solver, the cost of beam search's
	// schedule, an upper bound on the optimum.
	OptimalCost float64
	// Exact reports whether OptimalCost came from the exact solver.
	Exact bool
}

// Recommend measures the candidates on a workload sample and recommends
// the cheapest. Candidates defaults to SA and DA when nil.
func Recommend(m cost.Model, sample model.Schedule, initial model.Set, t int, candidates []Candidate) (*Advice, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if len(sample) == 0 {
		return nil, fmt.Errorf("advisor: empty workload sample")
	}
	if candidates == nil {
		candidates = DefaultCandidates()
	}
	adv := &Advice{Analytic: Analytic(m)}

	optCost, err := opt.SolveCost(m, sample, initial, t)
	if err == nil {
		adv.OptimalCost = optCost
		adv.Exact = true
	} else {
		// Instance too large for the exact solver: fall back to the beam
		// upper bound so ratios stay meaningful (they under-estimate).
		beam, berr := opt.Beam(m, sample, initial, t, 32)
		if berr != nil {
			return nil, fmt.Errorf("advisor: no offline yardstick: exact: %v; beam: %w", err, berr)
		}
		adv.OptimalCost = beam.Cost
	}

	for _, c := range candidates {
		las, err := dom.RunFactory(c.Factory, initial, t, sample)
		if err != nil {
			return nil, fmt.Errorf("advisor: candidate %s: %w", c.Name, err)
		}
		if err := las.Validate(initial, t); err != nil {
			return nil, fmt.Errorf("advisor: candidate %s produced an invalid schedule: %w", c.Name, err)
		}
		ev := Evaluation{Name: c.Name, Cost: cost.ScheduleCost(m, las, initial)}
		if adv.OptimalCost > 0 {
			ev.Ratio = ev.Cost / adv.OptimalCost
		}
		adv.Evaluations = append(adv.Evaluations, ev)
	}
	sort.SliceStable(adv.Evaluations, func(i, j int) bool {
		return adv.Evaluations[i].Cost < adv.Evaluations[j].Cost
	})
	adv.Best = adv.Evaluations[0].Name
	return adv, nil
}
