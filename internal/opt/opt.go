// Package opt computes the optimal offline distributed object management
// algorithm of Huang & Wolfson (ICDE 1994), §4.1: the t-available
// constrained DOM algorithm OPT that, knowing the whole schedule in
// advance, produces the minimum-cost legal allocation schedule. OPT is the
// yardstick against which the competitiveness of the online SA and DA
// algorithms is measured.
//
// # Method
//
// The optimum is an exact dynamic program over allocation schemes. Let
// dp[Y] be the minimum cost of servicing a prefix of the schedule such that
// the allocation scheme after the prefix is Y (|Y| >= t). For each request
// the DP relaxes:
//
//   - a read r^i is served by a single processor of the current scheme
//     (larger execution sets only add cost and have no future effect); it
//     either leaves the scheme unchanged or, as a saving-read, extends it
//     to Y ∪ {i};
//   - a write w^i may choose any execution set X with |X| >= t, which
//     becomes the new scheme; its cost splits into a term that depends only
//     on X and the writer, plus cc·|Y \ X'| (X' is X, or X ∪ {i} when the
//     writer is outside X — the writer needs no invalidation message).
//
// The naive write relaxation is O(4^n) per request. Instead the term
// g[Z] = min over Y of (dp[Y] + cc·|Y \ Z|) is computed for all Z at once
// with a per-bit min-plus transform in O(n·2^n): bits are folded one at a
// time, choosing for each whether the minimizing Y contains the bit (paying
// cc when Z does not). With n processors and a schedule of length L the
// whole DP runs in O(L·n·2^n) time and O(2^n) space (plus O(L·2^n) when an
// optimal allocation schedule is reconstructed).
//
// A write reads g only at masks that contain the writer (g[X'] above), and
// the transform's value does not depend on the order the bits are folded
// in: a candidate Y reaches Z as dp[Y] with cc added once per bit of Y \ Z,
// and a min of non-NaN floats is the same in any order. The pass that
// prices a plan under many models at once (Plan.Costs) therefore folds the
// writer's bit first — g[b] = min(dp[b], dp[a]), no cc, keeping only the
// masks b that contain the writer — and the other n-1 bits over that half
// alone, 2^(n-1) + (n-1)·2^(n-2) pair updates instead of n·2^(n-1), with
// every value bit-identical to the full transform's. Its rows are laid out
// [state][model]: each pair update or relaxation is one contiguous loop
// over the models, so M models cost one walk over the requests and the
// masks instead of M. The one-model pass (Plan.Cost, Plan.Solve) keeps the
// full transform, whose arg table the traceback needs; it is the reference
// Costs is tested against bit for bit.
//
// The DP state space limits the universe to MaxUniverse processors; this is
// a limit of the yardstick only — the online algorithms themselves scale to
// model.MaxProcessors.
package opt

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"objalloc/internal/cost"
	"objalloc/internal/model"
)

// MaxUniverse is the largest number of distinct processors the exact DP
// accepts: 2^MaxUniverse states are materialized.
const MaxUniverse = 16

// Result is the outcome of solving for the offline optimum.
type Result struct {
	// Cost is COST_OPT(I, ψ): the minimum total cost over all legal,
	// t-available allocation schedules corresponding to the schedule.
	Cost float64
	// Alloc is one optimal allocation schedule (nil if the solver was
	// asked for the cost only).
	Alloc model.AllocSchedule
	// FinalScheme is the allocation scheme after Alloc executes.
	FinalScheme model.Set
}

// Plan is a schedule compiled for the DP: the processor universe, each
// request reduced to a dense bit and an operation, and the list of
// feasible schemes — everything about an instance that does not depend on
// the cost model. A Plan is immutable after Compile, so one Plan may be
// priced under many models, concurrently (Cost) or in one pass (Costs): a
// (cd, cc) plane sweep compiles each battery schedule once and prices it
// under every cell's model.
type Plan struct {
	// ids maps a dense bit index to the sparse processor id: the members
	// of the initial scheme in ascending order, then the schedule's
	// processors in order of first appearance.
	ids  []model.ProcessorID
	t    int
	init uint32 // dense mask of the initial scheme
	reqs []planReq
	// feasible lists, ascending, the dense masks Y with |Y| >= t — the
	// only states the DP can reach.
	feasible []uint32
}

// planReq is one request of a compiled schedule.
type planReq struct {
	bit  uint32 // dense mask of the requesting processor
	read bool
}

// Compile validates an instance and builds its Plan.
func Compile(sched model.Schedule, initial model.Set, t int) (*Plan, error) {
	if t < 1 {
		return nil, fmt.Errorf("opt: availability threshold t = %d, must be at least 1", t)
	}
	if initial.Size() < t {
		return nil, fmt.Errorf("opt: initial scheme %v has fewer than t = %d members", initial, t)
	}
	p := &Plan{
		t:    t,
		ids:  make([]model.ProcessorID, 0, MaxUniverse),
		reqs: make([]planReq, len(sched)),
	}
	initial.ForEach(func(id model.ProcessorID) { p.init |= p.bit(id) })
	for k, q := range sched {
		p.reqs[k] = planReq{bit: p.bit(q.Processor), read: q.IsRead()}
	}
	if len(p.ids) > MaxUniverse {
		return nil, fmt.Errorf("opt: %d distinct processors exceed the exact solver's limit of %d", len(p.ids), MaxUniverse)
	}
	p.feasible = make([]uint32, 0, p.size())
	for y := uint32(0); y < uint32(p.size()); y++ {
		if bits.OnesCount32(y) >= t {
			p.feasible = append(p.feasible, y)
		}
	}
	return p, nil
}

// bit returns the dense mask of a processor, assigning the next free bit
// index on first sight. The universe is at most MaxUniverse ids in any
// instance Compile accepts, so a linear scan beats a map.
func (p *Plan) bit(id model.ProcessorID) uint32 {
	for i, have := range p.ids {
		if have == id {
			return 1 << uint(i)
		}
	}
	p.ids = append(p.ids, id)
	return 1 << uint(len(p.ids)-1)
}

// size is the number of DP states, 2^n.
func (p *Plan) size() int { return 1 << uint(len(p.ids)) }

// expand maps a dense DP mask back to a model.Set.
func (p *Plan) expand(m uint32) model.Set {
	var s model.Set
	for v := m; v != 0; v &= v - 1 {
		s = s.Add(p.ids[bits.TrailingZeros32(v)])
	}
	return s
}

var inf = math.Inf(1)

// SolveCost returns the optimal offline cost without reconstructing an
// allocation schedule; it uses O(2^n) memory regardless of schedule length.
func SolveCost(m cost.Model, sched model.Schedule, initial model.Set, t int) (float64, error) {
	return SolveCostContext(context.Background(), m, sched, initial, t)
}

// SolveCostContext is SolveCost with cancellation: Compile, then Cost.
func SolveCostContext(ctx context.Context, m cost.Model, sched model.Schedule, initial model.Set, t int) (float64, error) {
	p, err := Compile(sched, initial, t)
	if err != nil {
		return 0, err
	}
	return p.Cost(ctx, m)
}

// Solve returns the optimal offline cost together with one optimal
// allocation schedule, reconstructed by traceback. Memory grows linearly
// with the schedule length.
func Solve(m cost.Model, sched model.Schedule, initial model.Set, t int) (*Result, error) {
	return SolveContext(context.Background(), m, sched, initial, t)
}

// SolveContext is Solve with cancellation: Compile, then Plan.Solve.
func SolveContext(ctx context.Context, m cost.Model, sched model.Schedule, initial model.Set, t int) (*Result, error) {
	p, err := Compile(sched, initial, t)
	if err != nil {
		return nil, err
	}
	return p.Solve(ctx, m)
}

// Cost prices the plan under one model: the optimal offline cost. The DP
// polls the context between requests and aborts with ctx.Err() when it is
// cancelled; it relaxes O(n·2^n) states per request, so the check
// granularity is fine enough to return promptly.
func (p *Plan) Cost(ctx context.Context, m cost.Model) (float64, error) {
	ws := workspaces.Get().(*workspace)
	best, _, err := p.run(ctx, m, nil, ws)
	workspaces.Put(ws)
	return best, err
}

// Solve prices the plan under one model and reconstructs one optimal
// allocation schedule by traceback through the same relaxations as Cost.
func (p *Plan) Solve(ctx context.Context, m cost.Model) (*Result, error) {
	// parents[k*size+s] is the DP state before request k that led to
	// state s after request k.
	parents := make([]uint32, len(p.reqs)*p.size())
	ws := workspaces.Get().(*workspace)
	best, final, err := p.run(ctx, m, parents, ws)
	workspaces.Put(ws)
	if err != nil {
		return nil, err
	}
	alloc := p.traceback(parents, final)
	return &Result{Cost: best, Alloc: alloc, FinalScheme: p.expand(final)}, nil
}

// run is the DP: it returns the minimum cost and the final state that
// attains it (the lowest such mask). When parents is non-nil every
// relaxation also records the predecessor state it chose. The rows come
// from ws (see workspace for why nothing needs clearing).
func (p *Plan) run(ctx context.Context, m cost.Model, parents []uint32, ws *workspace) (float64, uint32, error) {
	if err := m.Validate(); err != nil {
		return 0, 0, err
	}
	n, size := len(p.ids), p.size()

	// Three rows: dp and next keep +Inf at every infeasible mask for the
	// whole pass (the relaxations write feasible masks only); g is the
	// write transform's scratch row.
	rows := ws.floats(3 * size)
	dp, next, g := rows[:size], rows[size:2*size], rows[2*size:]
	for i := range rows[:2*size] {
		rows[i] = inf
	}
	dp[p.init] = 0
	var arg []uint32 // minTransform's minimizing Y per Z, for traceback
	if parents != nil {
		arg = make([]uint32, size)
	}

	pr := newPrices(m, n)

	done := ctx.Done()
	for k, q := range p.reqs {
		select {
		case <-done:
			return 0, 0, ctx.Err()
		default:
		}
		var parent []uint32
		if parents != nil {
			parent = parents[k*size : (k+1)*size]
		}
		if q.read {
			relaxRead(dp, next, p.feasible, q.bit, &pr, parent)
		} else {
			copy(g, dp)
			minTransform(g, arg, m.CC)
			relaxWrite(g, next, p.feasible, q.bit, &pr, arg, parent)
		}
		dp, next = next, dp
	}

	best, final := inf, uint32(0)
	for _, y := range p.feasible {
		if dp[y] < best {
			best, final = dp[y], y
		}
	}
	if math.IsInf(best, 1) {
		return 0, 0, fmt.Errorf("opt: no feasible allocation schedule (universe of %d processors, t = %d)", n, p.t)
	}
	return best, final, nil
}

// prices is a cost model laid out for the relaxations: every per-request
// charge that does not depend on the DP state, computed once per pass.
type prices struct {
	local, remote, saving float64
	// writeIn[s] and writeOut[s] are the transmission and output charges
	// of a write whose execution set has s members, with the writer
	// inside and outside that set.
	writeIn, writeOut [MaxUniverse + 1]float64
}

// newPrices lays m out for a universe of n processors. Both passes (run
// and costsPass) take their charges from here, so a charge is the same
// float in either — also where the compiler fuses a multiply-add.
func newPrices(m cost.Model, n int) prices {
	pr := prices{
		local:  m.CIO,               // read served by the reader's own copy
		remote: m.CC + m.CIO + m.CD, // read served by one remote data processor
	}
	pr.saving = pr.remote + m.CIO // remote read that also saves locally
	for sz := 1; sz <= n; sz++ {
		// Writer inside X: transmit to the other |X|-1 members, output
		// at all |X|. Writer outside X: transmit to all |X| members,
		// output at all.
		pr.writeIn[sz] = float64(sz-1)*m.CD + float64(sz)*m.CIO
		pr.writeOut[sz] = float64(sz) * (m.CD + m.CIO)
	}
	return pr
}

// relaxRead performs the DP transition for a read by the processor whose
// dense mask is ibit. A state without the reader is reached only by the
// non-saving remote read that leaves it unchanged; a state with the reader
// either by the saving read that just added it or by a local read.
func relaxRead(dp, next []float64, feasible []uint32, ibit uint32, pr *prices, parent []uint32) {
	for _, y := range feasible {
		from := y
		var c float64
		if y&ibit == 0 {
			c = dp[y] + pr.remote
		} else {
			from = y ^ ibit
			c = dp[from] + pr.saving
			if lc := dp[y] + pr.local; lc < c {
				c, from = lc, y
			}
		}
		next[y] = c
		if parent != nil {
			parent[y] = from
		}
	}
}

// relaxWrite performs the DP transition for a write by the processor whose
// dense mask is ibit. The new scheme is the chosen execution set X,
// |X| >= t; the invalidation term cc·|Y \ X'| over all previous states Y
// is g[X'], already folded by minTransform (X' is X, plus the writer when
// it is outside X and so needs no invalidation message).
func relaxWrite(g, next []float64, feasible []uint32, ibit uint32, pr *prices, arg, parent []uint32) {
	for _, x := range feasible {
		sz := bits.OnesCount32(x)
		c := pr.writeIn[sz]
		if x&ibit == 0 {
			c = pr.writeOut[sz]
		}
		z := x | ibit
		next[x] = g[z] + c
		if parent != nil {
			parent[x] = arg[z]
		}
	}
}

// minTransform turns h, on entry a copy of dp, into
// g[Z] = min over Y of (dp[Y] + cc·|Y \ Z|) for every mask Z, in place and
// in O(n·2^n); with arg non-nil it also records the minimizing Y for
// traceback.
//
// Bits are folded one at a time. Invariant: after folding bit j, h[M] is
// the minimum over all Y that agree with M on the unfolded bits of
// dp[Y] + cc·(folded bits of Y outside M). For each pair of masks differing
// only in bit j (a without, b with):
//
//	h'[a] = min(h[a], h[b] + cc)   // Y may contain bit j although Z does not
//	h'[b] = min(h[b], h[a])        // Y free to contain bit j or not
//
// The pairs of bit j are the two halves of each aligned block of 2·2^j
// masks, so the pass walks blocks rather than testing every mask's bit.
func minTransform(h []float64, arg []uint32, cc float64) {
	for i := range arg {
		arg[i] = uint32(i)
	}
	for bit := 1; bit < len(h); bit <<= 1 {
		for base := 0; base < len(h); base += 2 * bit {
			for a, b := base, base+bit; a < base+bit; a, b = a+1, b+1 {
				ha, hb := h[a], h[b]
				if hb+cc < ha {
					h[a] = hb + cc
					if arg != nil {
						arg[a] = arg[b]
					}
				}
				if ha < hb {
					h[b] = ha
					if arg != nil {
						arg[b] = arg[a]
					}
				}
			}
		}
	}
}

// traceback reconstructs one optimal allocation schedule from the parent
// table, ending in state final.
func (p *Plan) traceback(parents []uint32, final uint32) model.AllocSchedule {
	size := p.size()
	states := make([]uint32, len(p.reqs)+1)
	states[len(p.reqs)] = final
	for k := len(p.reqs) - 1; k >= 0; k-- {
		states[k] = parents[k*size+int(states[k+1])]
	}

	alloc := make(model.AllocSchedule, len(p.reqs))
	for k, q := range p.reqs {
		id := p.ids[bits.TrailingZeros32(q.bit)]
		before := p.expand(states[k])
		after := p.expand(states[k+1])
		switch {
		case !q.read:
			alloc[k] = model.Step{Request: model.W(id), Exec: after}
		case before == after:
			// Non-saving read: local if possible, else from the
			// smallest data processor.
			exec := model.NewSet(id)
			if !before.Contains(id) {
				exec = model.NewSet(before.Min())
			}
			alloc[k] = model.Step{Request: model.R(id), Exec: exec}
		default:
			// Saving read served by a data processor.
			alloc[k] = model.Step{Request: model.R(id), Exec: model.NewSet(before.Min()), Saving: true}
		}
	}
	return alloc
}
