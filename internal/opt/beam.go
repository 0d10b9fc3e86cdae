package opt

import (
	"context"
	"fmt"
	"sort"

	"objalloc/internal/cost"
	"objalloc/internal/model"
)

// The exact DP materializes 2^n states and is limited to MaxUniverse
// processors. For larger systems OPT is bracketed: Bound gives the lower
// side, and Beam — beam search over allocation schemes with
// protocol-shaped candidate execution sets — the upper side, which the
// tests show stays within a few percent of the exact DP on instances
// small enough to solve exactly.

// BeamResult is the outcome of the beam search.
type BeamResult struct {
	// Cost is the cost of the best allocation schedule found; it is an
	// upper bound on the exact optimum.
	Cost float64
	// Alloc is the best allocation schedule found.
	Alloc model.AllocSchedule
	// FinalScheme is the allocation scheme after Alloc.
	FinalScheme model.Set
}

// beamState is one partial solution.
type beamState struct {
	scheme model.Set
	cost   float64
	alloc  model.AllocSchedule
}

// Beam runs beam search with the given width (number of states kept per
// request; at least 1). Candidate moves mirror the space the exact DP
// explores, restricted to protocol-shaped execution sets:
//
//   - reads: serve locally or from the cheapest data processor, with and
//     without saving;
//   - writes: keep the writer plus the t-1 current members with the most
//     reads before the next write; keep the whole current scheme; shrink
//     to the writer plus the t-1 processors with the most upcoming reads;
//     or return to the initial scheme.
func Beam(m cost.Model, sched model.Schedule, initial model.Set, t int, width int) (*BeamResult, error) {
	return BeamContext(context.Background(), m, sched, initial, t, width)
}

// BeamContext is Beam with cancellation: the search checks the context
// between requests and aborts with ctx.Err() when it is cancelled.
func BeamContext(ctx context.Context, m cost.Model, sched model.Schedule, initial model.Set, t int, width int) (*BeamResult, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if err := checkThreshold(initial, t); err != nil {
		return nil, err
	}
	if width < 1 {
		width = 1
	}

	// upcoming[k] counts, for each processor, its reads after position k
	// and strictly before the next write after position k. These are the
	// reads a replica placed at the write would serve locally.
	upcoming := upcomingReads(sched)
	universe := sched.Processors().Union(initial)

	beam := []beamState{{scheme: initial}}
	for k, q := range sched {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var next []beamState
		for _, st := range beam {
			for _, step := range candidateSteps(q, st.scheme, initial, universe, upcoming[k], t) {
				ns := model.NextScheme(st.scheme, step)
				if ns.Size() < t {
					continue
				}
				alloc := make(model.AllocSchedule, len(st.alloc), len(st.alloc)+1)
				copy(alloc, st.alloc)
				alloc = append(alloc, step)
				next = append(next, beamState{
					scheme: ns,
					cost:   st.cost + cost.StepCost(m, step, st.scheme),
					alloc:  alloc,
				})
			}
		}
		if len(next) == 0 {
			return nil, fmt.Errorf("opt: beam died at request %d (%v)", k, q)
		}
		beam = pruneBeam(next, width)
	}

	best := beam[0]
	return &BeamResult{Cost: best.cost, Alloc: best.alloc, FinalScheme: best.scheme}, nil
}

// upcomingReads[k][p] is the number of reads by p at positions > k and
// before the first write at a position > k.
func upcomingReads(sched model.Schedule) []map[model.ProcessorID]int {
	out := make([]map[model.ProcessorID]int, len(sched))
	counts := map[model.ProcessorID]int{}
	// Walk backwards; a write resets the window.
	for k := len(sched) - 1; k >= 0; k-- {
		snapshot := make(map[model.ProcessorID]int, len(counts))
		for p, c := range counts {
			snapshot[p] = c
		}
		out[k] = snapshot
		if sched[k].IsWrite() {
			counts = map[model.ProcessorID]int{}
		} else {
			counts[sched[k].Processor]++
		}
	}
	return out
}

func candidateSteps(q model.Request, scheme, initial, universe model.Set, upcoming map[model.ProcessorID]int, t int) []model.Step {
	i := q.Processor
	if q.IsRead() {
		if scheme.Contains(i) {
			return []model.Step{{Request: q, Exec: model.NewSet(i)}}
		}
		server := model.NewSet(scheme.Min())
		return []model.Step{
			{Request: q, Exec: server},
			{Request: q, Exec: server, Saving: true},
		}
	}

	// Write candidates.
	var candidates []model.Set
	add := func(x model.Set) {
		x = x.Add(i)
		x = padTo(x, universe, t)
		for _, seen := range candidates {
			if seen == x {
				return
			}
		}
		candidates = append(candidates, x)
	}
	// Keep the whole current scheme (no invalidations).
	add(scheme)
	// Writer plus the hottest upcoming readers.
	add(pickTop(upcoming, universe, t-1))
	// Writer plus the t-1 current members that will read soonest.
	add(pickTop(upcoming, scheme, t-1))
	// Return to the initial placement.
	add(trimTo(initial, t))

	steps := make([]model.Step, 0, len(candidates))
	for _, x := range candidates {
		steps = append(steps, model.Step{Request: q, Exec: x})
	}
	return steps
}

// padTo grows x to at least t members using the smallest universe ids.
func padTo(x, universe model.Set, t int) model.Set {
	if x.Size() >= t {
		return x
	}
	universe.ForEach(func(id model.ProcessorID) {
		if x.Size() < t {
			x = x.Add(id)
		}
	})
	return x
}

// trimTo keeps the t smallest members of x (or all of x if smaller).
func trimTo(x model.Set, t int) model.Set {
	if x.Size() <= t {
		return x
	}
	var out model.Set
	for k := 0; k < t; k++ {
		out = out.Add(x.Member(k))
	}
	return out
}

// pickTop returns the k candidates with the most upcoming reads, ties to
// the smaller id.
func pickTop(upcoming map[model.ProcessorID]int, candidates model.Set, k int) model.Set {
	type pair struct {
		p model.ProcessorID
		c int
	}
	var pairs []pair
	candidates.ForEach(func(p model.ProcessorID) {
		pairs = append(pairs, pair{p, upcoming[p]})
	})
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a].c != pairs[b].c {
			return pairs[a].c > pairs[b].c
		}
		return pairs[a].p < pairs[b].p
	})
	var out model.Set
	for j := 0; j < k && j < len(pairs); j++ {
		out = out.Add(pairs[j].p)
	}
	return out
}

// pruneBeam keeps the width cheapest states, deduplicated by scheme.
func pruneBeam(states []beamState, width int) []beamState {
	sort.Slice(states, func(a, b int) bool { return states[a].cost < states[b].cost })
	seen := map[model.Set]bool{}
	out := make([]beamState, 0, width)
	for _, st := range states {
		if seen[st.scheme] {
			continue
		}
		seen[st.scheme] = true
		out = append(out, st)
		if len(out) == width {
			break
		}
	}
	return out
}
