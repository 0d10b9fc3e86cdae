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
// [state][model], padded to an even number of models: each relaxation is
// one kernel call that walks the states and, per state, runs one
// contiguous loop over the models, two at a time, so M models cost one
// walk over the requests and the masks instead of M. Plan.Cost is that
// pass at one model. Plan.Solve keeps the full transform, whose arg table
// the traceback needs; its DP (run) is the reference Cost and Costs are
// tested against bit for bit.
//
// A plan that is two or more repetitions of one period, priced at whole
// prices whose sums stay below 2^53, is walked a stretch of periods at a
// time instead: at each boundary every column less its minimum, cut K
// above it, is compared with the earlier boundaries' rows, and once one
// repeats the rest of the walk is extrapolated from the kept totals.
// Whole sums are exact, so the value is the full walk's, bit for bit
// (DESIGN §5, "Periodic schedules are priced a period at a time"). Plan.Rate
// is the same pass with no end.
//
// The DP state space limits the universe to MaxUniverse processors; this is
// a limit of the exact yardstick only — the online algorithms, the lower
// bound (Bound) and beam search (Beam) take any universe up to
// model.MaxProcessors.
package opt

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"

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
	// sizes[Y] is |Y| for every dense mask Y: the grid pass's write
	// kernel reads an execution set's size from here rather than count
	// bits with an instruction the amd64 baseline lacks.
	sizes []uint32
	// period is the length of the requests' shortest period that divides
	// their number (see shortestPeriod): the plan is len(reqs)/period
	// repetitions of its first period requests.
	period int
}

// planReq is one request of a compiled schedule.
type planReq struct {
	bit  uint32 // dense mask of the requesting processor
	read bool
}

// Compile validates an instance and builds its Plan.
func Compile(sched model.Schedule, initial model.Set, t int) (*Plan, error) {
	p := &Plan{
		t:    t,
		ids:  make([]model.ProcessorID, 0, MaxUniverse),
		reqs: make([]planReq, len(sched)),
	}
	initial.ForEach(func(id model.ProcessorID) { p.init |= p.bit(id) })
	for k, q := range sched {
		p.reqs[k] = planReq{bit: p.bit(q.Processor), read: q.IsRead()}
	}
	p.period = shortestPeriod(p.reqs)
	if err := CheckInstance(initial, t, len(p.ids)); err != nil {
		return nil, err
	}
	// One allocation holds both per-state tables.
	size := p.size()
	tab := make([]uint32, 2*size)
	p.feasible, p.sizes = tab[:0:size], tab[size:]
	for y := range p.sizes {
		p.sizes[y] = uint32(bits.OnesCount32(uint32(y)))
		if int(p.sizes[y]) >= t {
			p.feasible = append(p.feasible, uint32(y))
		}
	}
	return p, nil
}

// shortestPeriod returns the length of the shortest period of reqs that
// divides len(reqs): len(reqs) − border, where border is the longest
// proper prefix of reqs that is also its suffix (the prefix function, in
// O(L)), when that divides len(reqs), and len(reqs) otherwise — a
// dividing period d < L and the shortest period π would make gcd(π, d) a
// period too (Fine and Wilf), so π would divide d and L.
func shortestPeriod(reqs []planReq) int {
	if len(reqs) == 0 {
		return 0
	}
	// border[i] is the longest proper border of reqs[:i+1]; border[0] = 0.
	var buf [256]int32
	border := buf[:1]
	if len(reqs) > len(buf) {
		border = make([]int32, 1, len(reqs))
	}
	k := int32(0)
	for _, q := range reqs[1:] {
		for k > 0 && q != reqs[k] {
			k = border[k-1]
		}
		if q == reqs[k] {
			k++
		}
		border = append(border, k)
	}
	if pi := len(reqs) - int(k); len(reqs)%pi == 0 {
		return pi
	}
	return len(reqs)
}

// CheckInstance is what Compile refuses in an instance whose processor
// universe — the initial scheme and the schedule's processors — has n
// members, in the order it checks: checkThreshold's refusals, then a
// universe beyond MaxUniverse.
func CheckInstance(initial model.Set, t, n int) error {
	if err := checkThreshold(initial, t); err != nil {
		return err
	}
	if n > MaxUniverse {
		return fmt.Errorf("opt: %d distinct processors exceed the exact solver's limit of %d", n, MaxUniverse)
	}
	return nil
}

// checkThreshold is what every entry point of the package refuses,
// whatever the instance's universe: a threshold t below 1, or an initial
// scheme with fewer than t members.
func checkThreshold(initial model.Set, t int) error {
	switch {
	case t < 1:
		return fmt.Errorf("opt: availability threshold t = %d, must be at least 1", t)
	case initial.Size() < t:
		return fmt.Errorf("opt: initial scheme %v has fewer than t = %d members", initial, t)
	}
	return nil
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

// Cost prices the plan under one model: the optimal offline cost, through
// the grid pass of Costs. The DP polls the context between requests and
// aborts with ctx.Err() when it is cancelled; it relaxes O(n·2^n) states
// per request, so the check granularity is fine enough to return promptly.
func (p *Plan) Cost(ctx context.Context, m cost.Model) (float64, error) {
	if err := m.Validate(); err != nil {
		return 0, err
	}
	var out [1]float64
	ws := workspaces.Get().(*workspace)
	err := p.costsPass(ctx, []cost.Model{m}, ws, out[:])
	workspaces.Put(ws)
	if err != nil {
		return 0, err
	}
	return out[0], nil
}

// Solve prices the plan under one model and reconstructs one optimal
// allocation schedule by traceback through run's relaxations; its cost is
// Cost's, bit for bit.
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

// run is the one-model DP with the full transform — Solve's, and the
// reference the grid pass is tested against: it relaxes every request in
// order, polling the context between them, and returns the minimum cost
// and the final state that attains it (the lowest such mask). When parents
// is non-nil every relaxation also records the predecessor state it chose.
// The rows come from ws (see workspace for why nothing needs clearing).
func (p *Plan) run(ctx context.Context, m cost.Model, parents []uint32, ws *workspace) (float64, uint32, error) {
	if err := m.Validate(); err != nil {
		return 0, 0, err
	}
	size := p.size()
	rows := ws.floats(3 * size)
	for i := range rows[:2*size] {
		rows[i] = inf
	}
	rows[p.init] = 0
	dp, next, g := rows[:size], rows[size:2*size], rows[2*size:]
	var arg []uint32 // minTransform's minimizing Y per Z, for traceback
	if parents != nil {
		arg = make([]uint32, size)
	}
	var pr prices
	pr.set(m, len(p.ids))
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
		return 0, 0, fmt.Errorf("opt: no feasible allocation schedule (universe of %d processors, t = %d)", len(p.ids), p.t)
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

// set lays m out for a universe of n processors, writing the write
// charges of sizes 1 to n only. Both passes (run and costsPass) take their
// charges from here, so a charge is the same float in either — also where
// the compiler fuses a multiply-add. It fills pr in place: the grid pass
// lays out a model per column, and a whole struct built per column
// (zeroed, then copied) was ~7 % of a 60-read pass's profile.
func (pr *prices) set(m cost.Model, n int) {
	pr.local = m.CIO                // read served by the reader's own copy
	pr.remote = m.CC + m.CIO + m.CD // read served by one remote data processor
	pr.saving = pr.remote + m.CIO   // remote read that also saves locally
	for sz := 1; sz <= n; sz++ {
		// Writer inside X: transmit to the other |X|-1 members, output
		// at all |X|. Writer outside X: transmit to all |X| members,
		// output at all.
		pr.writeIn[sz] = float64(sz-1)*m.CD + float64(sz)*m.CIO
		pr.writeOut[sz] = float64(sz) * (m.CD + m.CIO)
	}
}

// Bound is a lower bound on COST_OPT(I, ψ): the interval relaxation of the
// DP. Cut the schedule at its writes. A write picks its execution set X,
// |X| >= t, and the reads up to the next write are served against X, which
// only saving reads can grow, each by its own reader:
//
//   - a reader in X reads locally, k·cio for its k reads;
//   - a reader outside X pays at least out(k) = min(k·remote,
//     saving + (k−1)·cio): it reads remotely throughout, or saves once and
//     reads locally after;
//   - the write pays (|X|−1)·cd + |X|·cio with the writer in X and
//     |X|·(cd + cio) with it outside.
//
// Reads before the first write are served the same way against the
// initial scheme. Only invalidations, cc·|Y \ X'| >= 0, tie one interval
// to the next; leaving them out makes each interval's minimum over X its
// own, and the bound is the prefix plus the sum of the intervals' minima.
//
// What membership is worth to a reader, out(k) − k·cio =
// min(k·(cc + cd), cc + cd + cio), never falls as k grows, so a cheapest X
// of each size holds the writer or not and then the most frequent other
// readers, whatever the model. An
// interval is priced from its signature — the writer's own reads and the
// other readers' counts, sorted — and a run of identical intervals, which
// is what the periodic nemesis families are made of, is stored once with
// its length. The signatures are built by the first Price, so a bound
// only ever asked for its Floor costs one walk over the schedule, which
// its caller may have made already (BoundOf).
type Bound struct {
	reads, writes, t int
	sched            model.Schedule
	initial          model.Set
	// sig is the relaxation's input, flat, nil until the first Price: the
	// number p of processors outside the initial scheme that read before
	// the first write and their p read counts; then, per run of identical
	// intervals, its length, the writer's reads, the number r of other
	// readers and their r read counts in descending order.
	sig []int32
}

// NewBound returns an instance's Bound, for any universe a model.Set
// holds, refusing only checkThreshold's refusals.
func NewBound(sched model.Schedule, initial model.Set, t int) (Bound, error) {
	if err := checkThreshold(initial, t); err != nil {
		return Bound{}, err
	}
	return BoundOf(sched, initial, t, sched.Reads()), nil
}

// BoundOf is NewBound for a caller that has checked the instance already
// (CheckInstance) and counted its reads while walking the schedule.
func BoundOf(sched model.Schedule, initial model.Set, t, reads int) Bound {
	return Bound{reads: reads, writes: len(sched) - reads, t: t, sched: sched, initial: initial}
}

// signature returns the relaxation's input for sched from initial (see
// Bound.sig).
func signature(sched model.Schedule, initial model.Set) []int32 {
	var buf [256]int32
	sig := buf[:1]
	var count [model.MaxProcessors]int32 // reads per processor in the open interval
	var readers uint64                   // the model.Set of who read in it
	run, writer := -1, -1                // sig offset of the last run; the open interval's writer, -1 in the prefix
	for k := 0; k <= len(sched); k++ {
		if k < len(sched) && sched[k].IsRead() {
			p := sched[k].Processor
			count[p]++
			readers |= 1 << uint(p)
			continue
		}
		// A write, or the end, closes the open interval.
		if writer < 0 {
			for v := readers &^ uint64(initial); v != 0; v &= v - 1 {
				sig = append(sig, count[bits.TrailingZeros64(v)])
			}
			sig[0] = int32(len(sig) - 1)
		} else {
			at := len(sig)
			sig = append(sig, 1, count[writer], 0)
			for v := readers &^ (1 << uint(writer)); v != 0; v &= v - 1 {
				i := len(sig)
				sig = append(sig, count[bits.TrailingZeros64(v)])
				for ; i > at+3 && sig[i-1] < sig[i]; i-- {
					sig[i-1], sig[i] = sig[i], sig[i-1]
				}
			}
			sig[at+2] = int32(len(sig) - at - 3)
			if run >= 0 && slices.Equal(sig[run+1:at], sig[at+1:]) {
				sig[run]++
				sig = sig[:at]
			} else {
				run = at
			}
		}
		for v := readers; v != 0; v &= v - 1 {
			count[bits.TrailingZeros64(v)] = 0
		}
		readers = 0
		if k < len(sched) {
			writer = int(sched[k].Processor)
		}
	}
	return slices.Clone(sig)
}

// Floor is the closed form the relaxation never falls below, for R reads
// and W writes:
//
//	LB = R·cio + W·(t·cio + (t−1)·cd)
//
// A read inputs the object at least once, and a write outputs at t
// members and transmits to at least t−1 of them. It needs only the two
// counts and costs nothing to evaluate, but it sees no read's message
// cost: under the mobile model (cio = 0) it is 0 for reads and, at t = 1,
// for everything.
func (b *Bound) Floor(m cost.Model) float64 {
	return float64(b.reads)*m.CIO + float64(b.writes)*(float64(b.t)*m.CIO+float64(b.t-1)*m.CD)
}

// Price returns the bound under m. Both it and Floor are lower bounds, so
// it returns the larger: Floor(m) <= Price(m) holds in floating point
// too, which is what lets a caller try the free Floor first. The first
// call builds the signatures, so Price is not safe for concurrent use
// with itself on one Bound.
func (b *Bound) Price(m cost.Model) float64 {
	if b.sig == nil {
		b.sig = signature(b.sched, b.initial)
	}
	pad := m.CC + m.CD // a remote read's charge over a local one
	gain := func(k int32) float64 { return min(float64(k)*pad, pad+m.CIO) }
	lb := float64(b.reads) * m.CIO
	p := b.sig[0]
	for _, k := range b.sig[1 : 1+p] {
		lb += gain(k)
	}
	for s := b.sig[1+p:]; len(s) > 0; {
		runs, w, cs := s[0], s[1], s[3:3+s[2]]
		s = s[3+len(cs):]
		best, rest := inf, 0.0 // rest is the gain of the readers left out of X
		for j := len(cs); j >= 0; j-- {
			// X holds the j most frequent other readers, and the writer
			// or not, padded to t members.
			in, out := max(b.t, j+1), max(b.t, j)
			best = min(best, float64(in-1)*m.CD+float64(in)*m.CIO+rest, float64(out)*(m.CD+m.CIO)+rest+gain(w))
			if j > 0 {
				rest += gain(cs[j-1])
			}
		}
		lb += float64(runs) * best
	}
	return max(lb, b.Floor(m))
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
