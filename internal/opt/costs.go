package opt

import (
	"context"
	"fmt"
	"math"
	"sync"

	"objalloc/internal/cost"
)

// rowBudget is the memory one grid pass may spend on its three DP rows,
// so that they stay in a core's private cache whatever the grid size.
// What the pass saves is the per-state work a model shares with the models
// beside it, so a chunk wants to be as long as the budget allows: on an
// 11 k-cell grid 96 KiB to 2 MiB measured the same at n = 5 (chunks of 128
// to 2 730 models), but at n = 12 a 256 KiB budget is a chunk of 2 and
// reads 1.8× slower than 1 MiB's chunk of 10, beyond which nothing moves.
const rowBudget = 1 << 20

// ModelChunk returns how many models one grid pass over a universe of n
// processors carries: rowBudget divided by the three float64 rows of 2^n
// states a model needs, rounded down to even (a pass pads an odd count by
// one column, see rowWidth), and at least one. Costs splits longer model
// lists into passes of this size; a caller that spreads one plan's models
// over several workers hands each worker at most a chunk.
func ModelChunk(n int) int {
	if n > MaxUniverse {
		n = MaxUniverse
	}
	return max(1, rowBudget/(3*8<<uint(n))&^1)
}

// rowWidth is the number of columns a grid pass over m models lays its
// rows out in: m rounded up to even, so that the kernels step two models
// at a time with no odd one left over. The pad column carries a copy of
// the last model's prices, so its values stay finite, and no result is
// read from it.
func rowWidth(m int) int { return m + m&1 }

// workspace is the scratch memory of a DP pass — its three rows and, for a
// grid pass, the transposed price table, the periodic pass's per-column
// figures and its kept boundaries — kept from one pass to the next so
// that pricing a schedule allocates nothing in the steady state. A pass
// takes the floats it needs with whatever an earlier pass left in them and
// never reads one it has not written first: dp and next are filled with
// +Inf before the first request, g is written whole by every write (copy
// in run; foldRows' first loop covers every mask writeRows reads) before
// it is read, of the price table only the rows of execution-set size 0
// stay unwritten, which no relaxation reads (|X| >= t >= 1), and the
// periodic pass sets its per-column figures before its first boundary.
// TestWorkspaceReuseIsExact prices out of a workspace poisoned with NaN.
type workspace struct {
	buf []float64
	// keys and rows are the periodic pass's kept boundaries (see
	// boundaries), appended to and so never read before written.
	keys []uint64
	rows []float64
}

// floats returns n floats of the workspace, growing it first if need be.
func (w *workspace) floats(n int) []float64 {
	if cap(w.buf) < n {
		w.buf = make([]float64, n)
	}
	return w.buf[:n]
}

// workspaces holds the idle workspaces, at most one pass's memory each
// (rowBudget plus a price table for a grid pass, and about rowBudget more
// of kept boundary rows, three rows of 2^n for a traceback), and only
// until the collector next clears the pool.
var workspaces = sync.Pool{New: func() any { return new(workspace) }}

// Costs prices the plan under every model of a list: Costs(ctx, ms)[j] is,
// bit for bit, Cost(ctx, ms[j]). Every model is validated before anything
// is allocated, so an invalid one returns the error Cost would and no
// partial result. The models are priced a chunk (see ModelChunk) at a
// time, each chunk in one walk over the requests that relaxes all of its
// models together. Like Cost, a pass polls the context between requests.
// The returned slice is the call's only allocation.
func (p *Plan) Costs(ctx context.Context, models []cost.Model) ([]float64, error) {
	for _, m := range models {
		if err := m.Validate(); err != nil {
			return nil, err
		}
	}
	out := make([]float64, len(models))
	ws := workspaces.Get().(*workspace)
	defer workspaces.Put(ws)
	if err := p.costs(ctx, models, ws, out); err != nil {
		return nil, err
	}
	return out, nil
}

// costs is Costs for validated models, out of a given workspace.
func (p *Plan) costs(ctx context.Context, models []cost.Model, ws *workspace, out []float64) error {
	chunk := ModelChunk(len(p.ids))
	for lo := 0; lo < len(models); lo += chunk {
		hi := min(lo+chunk, len(models))
		if err := p.costsPass(ctx, models[lo:hi], ws, out[lo:hi]); err != nil {
			return err
		}
	}
	return nil
}

// modelPrices is prices transposed for a grid pass: one row of w floats
// per charge (w = rowWidth(len(models))), so a relaxation's inner loop
// reads its charge at the column of the model it is updating.
type modelPrices struct {
	cc, local, remote, saving []float64
	// writeIn and writeOut hold one row per execution-set size.
	writeIn, writeOut []float64
}

// priceTableLen is the number of floats newModelPrices lays models out in
// for a universe of n processors and rows of w columns.
func priceTableLen(w, n int) int { return (4 + 2*(n+1)) * w }

// newModelPrices fills tab, priceTableLen(w, n) floats, leaving the two
// rows of execution-set size 0 as it found them. Column j holds model j's
// prices, and a column past the last model a copy of the last model's.
func newModelPrices(models []cost.Model, n, w int, tab []float64) modelPrices {
	mp := modelPrices{cc: tab[:w], local: tab[w : 2*w], remote: tab[2*w : 3*w], saving: tab[3*w : 4*w]}
	mp.writeIn, mp.writeOut = tab[4*w:(4+n+1)*w], tab[(4+n+1)*w:]
	var pr prices
	for j := range w {
		mod := models[min(j, len(models)-1)]
		pr.set(mod, n)
		mp.cc[j], mp.local[j], mp.remote[j], mp.saving[j] = mod.CC, pr.local, pr.remote, pr.saving
		for sz := 1; sz <= n; sz++ {
			mp.writeIn[sz*w+j], mp.writeOut[sz*w+j] = pr.writeIn[sz], pr.writeOut[sz]
		}
	}
	return mp
}

// grid is one grid pass's rows and price table, out of a workspace: dp
// and next hold 2^n states of w floats each ([state][model], see
// costsPass), g the write fold's, and scratch 3w floats more for the
// periodic pass's per-column figures (see boundaries).
type grid struct {
	dp, next, g []float64
	mp          modelPrices
	w           int
	scratch     []float64
}

// start lays out gr for a grid pass over models out of ws: dp starts at 0
// in every column at the initial scheme and +Inf at every other mask, next
// at +Inf.
func (p *Plan) start(gr *grid, models []cost.Model, ws *workspace) {
	n, w := len(p.ids), rowWidth(len(models))
	span, prices := p.size()*w, priceTableLen(w, n)
	mem := ws.floats(3*span + prices + 3*w)
	for i := range mem[:2*span] {
		mem[i] = inf
	}
	gr.dp, gr.next, gr.g, gr.w = mem[:span], mem[span:2*span], mem[2*span:3*span], w
	clear(gr.dp[int(p.init)*w : int(p.init+1)*w])
	gr.mp = newModelPrices(models, n, w, mem[3*span:3*span+prices])
	gr.scratch = mem[3*span+prices:]
}

// walk relaxes reqs in order over the grid's rows, polling the context
// between requests; gr.dp is the row after the last.
func (p *Plan) walk(ctx context.Context, gr *grid, reqs []planReq) error {
	// The loop works on locals, the price table's slices copied: read
	// through gr they cost a one-model pass at n = 3 ~1.5 % more.
	dp, next, g, mp, w := gr.dp, gr.next, gr.g, gr.mp, gr.w
	all := uint32(p.size() - 1)
	done := ctx.Done()
	for _, q := range reqs {
		select {
		case <-done:
			return ctx.Err()
		default:
		}
		if q.read {
			readRows(dp, next, p.feasible, q.bit, mp.remote, mp.saving, mp.local)
		} else {
			foldRows(dp, g, all, q.bit, mp.cc)
			writeRows(g, next, p.feasible, p.sizes, q.bit, w, mp.writeIn, mp.writeOut)
		}
		dp, next = next, dp
	}
	gr.dp, gr.next = dp, next
	return nil
}

// mins sets lo[j], for each column j < len(lo) of rows w floats wide, to
// the column's minimum over the feasible states.
func (p *Plan) mins(dp []float64, w int, lo []float64) {
	for j := range lo {
		lo[j] = inf
	}
	for _, y := range p.feasible {
		row := dp[int(y)*w:][:len(lo)]
		for j, v := range row {
			lo[j] = min(lo[j], v) // no DP value is NaN or -0, so min is <'s
		}
	}
}

// costsPass is the DP of run for len(models) >= 1 validated models at
// once, without traceback. The rows are laid out [state][model]: the w
// floats of state Y are rows[Y*w : (Y+1)*w], and every relaxation is one
// call of a kernel (kernels.go) that walks the states itself. Per model it
// evaluates the float expressions run evaluates, in an order that cannot
// change their value (see foldRowsGeneric), which is what makes a sweep
// priced through it bit-identical to one priced cell by cell.
//
// A plan that repeats its period and models whose sums are all exact
// (stretches) take the periodic pass instead: it walks a stretch of
// periods at a time and stops once the row repeats (repeat), then
// extrapolates, with the full walk's value, bit for bit, since every sum
// either walk makes is a whole number it holds exactly.
func (p *Plan) costsPass(ctx context.Context, models []cost.Model, ws *workspace, out []float64) error {
	var gr grid
	p.start(&gr, models, ws)
	if stretch, ends := p.stretches(models); ends >= 2 {
		bs := p.newBoundaries(&gr, ws, len(models))
		// A finite pass that runs out of room walks on to its end, so it
		// keeps no more rows than rowBudget holds.
		bs.keep = min(bs.keep, rowBudget/(8*bs.record()))
		a, b, err := p.repeat(ctx, &gr, &bs, stretch, ends)
		if err != nil {
			return err
		}
		bs.extrapolate(a, b, ends, out)
	} else {
		if err := p.walk(ctx, &gr, p.reqs); err != nil {
			return err
		}
		p.mins(gr.dp, gr.w, out)
	}
	for _, best := range out {
		if math.IsInf(best, 1) {
			return fmt.Errorf("opt: no feasible allocation schedule (universe of %d processors, t = %d)", len(p.ids), p.t)
		}
	}
	return nil
}
