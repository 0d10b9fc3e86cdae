package opt

import (
	"context"
	"fmt"
	"math"
	"math/bits"
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
// states a model needs, and at least one. Costs splits longer model lists
// into passes of this size; a caller that spreads one plan's models over
// several workers hands each worker at most a chunk.
func ModelChunk(n int) int {
	if n > MaxUniverse {
		n = MaxUniverse
	}
	return max(1, rowBudget/(3*8<<uint(n)))
}

// workspace is the scratch memory of a DP pass — its three rows and, for a
// grid pass, the transposed price table — kept from one pass to the next so
// that pricing a schedule allocates nothing in the steady state. A pass
// takes the floats it needs with whatever an earlier pass left in them and
// never reads one it has not written first: dp and next are filled with
// +Inf before the first request, g is written whole by every write (copy
// in run; foldWrite's first loop covers every mask relaxWriteModels reads)
// before it is read, and of the price table only the rows of execution-set
// size 0 stay unwritten, which no relaxation reads (|X| >= t >= 1).
// TestWorkspaceReuseIsExact prices out of a workspace poisoned with NaN.
type workspace struct{ buf []float64 }

// floats returns n floats of the workspace, growing it first if need be.
func (w *workspace) floats(n int) []float64 {
	if cap(w.buf) < n {
		w.buf = make([]float64, n)
	}
	return w.buf[:n]
}

// workspaces holds the idle workspaces, at most one pass's memory each
// (rowBudget plus a price table for a grid pass, three rows of 2^n for a
// one-model pass), and only until the collector next clears the pool.
var workspaces = sync.Pool{New: func() any { return new(workspace) }}

// Costs prices the plan under every model of a list: Costs(ctx, ms)[j] is,
// bit for bit, Cost(ctx, ms[j]). Every model is validated before anything
// is allocated, so an invalid one returns the error Cost would and no
// partial result. The models are priced a chunk (see ModelChunk) at a
// time, each chunk in one walk over the requests that relaxes all of its
// models together; a chunk of one model is the one-model pass itself. Like
// Cost, a pass polls the context between requests. The returned slice is
// the call's only allocation.
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
	chunk := min(ModelChunk(len(p.ids)), len(models))
	for lo := 0; lo < len(models); lo += chunk {
		hi := min(lo+chunk, len(models))
		var err error
		if hi-lo == 1 {
			out[lo], _, err = p.run(ctx, models[lo], nil, ws)
		} else {
			err = p.costsPass(ctx, models[lo:hi], ws, out[lo:hi])
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// modelPrices is prices transposed for a grid pass: one row of len(models)
// floats per charge, so a relaxation's inner loop reads its charge at the
// index of the model it is updating.
type modelPrices struct {
	cc, local, remote, saving []float64
	// writeIn and writeOut hold one row per execution-set size.
	writeIn, writeOut []float64
}

// priceTableLen is the number of floats newModelPrices lays m models out
// in for a universe of n processors.
func priceTableLen(m, n int) int { return (4 + 2*(n+1)) * m }

// newModelPrices fills tab, priceTableLen(len(models), n) floats, leaving
// the two rows of execution-set size 0 as it found them.
func newModelPrices(models []cost.Model, n int, tab []float64) modelPrices {
	m := len(models)
	mp := modelPrices{cc: tab[:m], local: tab[m : 2*m], remote: tab[2*m : 3*m], saving: tab[3*m : 4*m]}
	mp.writeIn, mp.writeOut = tab[4*m:(4+n+1)*m], tab[(4+n+1)*m:]
	for j, mod := range models {
		pr := newPrices(mod, n)
		mp.cc[j], mp.local[j], mp.remote[j], mp.saving[j] = mod.CC, pr.local, pr.remote, pr.saving
		for sz := 1; sz <= n; sz++ {
			mp.writeIn[sz*m+j], mp.writeOut[sz*m+j] = pr.writeIn[sz], pr.writeOut[sz]
		}
	}
	return mp
}

// costsPass is the DP of run for len(models) >= 2 models at once, without
// traceback. The rows are laid out [state][model]: the m floats of state Y
// are rows[Y*m : (Y+1)*m], so every relaxation is a loop over states whose
// body is one row kernel (kernels.go) over the models. Per model it
// evaluates the float expressions run evaluates, in an order that cannot
// change their value (see foldWrite), which is what makes a sweep priced
// through it bit-identical to one priced cell by cell.
func (p *Plan) costsPass(ctx context.Context, models []cost.Model, ws *workspace, out []float64) error {
	n, m := len(p.ids), len(models)
	span := p.size() * m
	mem := ws.floats(3*span + priceTableLen(m, n))
	dp, next, g := mem[:span], mem[span:2*span], mem[2*span:3*span]
	for i := range mem[:2*span] {
		mem[i] = inf
	}
	clear(modelRow(dp, p.init, m))
	mp := newModelPrices(models, n, mem[3*span:])
	all := uint32(p.size() - 1)

	done := ctx.Done()
	for _, q := range p.reqs {
		select {
		case <-done:
			return ctx.Err()
		default:
		}
		if q.read {
			relaxReadModels(dp, next, p.feasible, q.bit, &mp)
		} else {
			foldWrite(dp, g, all, q.bit, mp.cc)
			relaxWriteModels(g, next, p.feasible, q.bit, &mp)
		}
		dp, next = next, dp
	}

	for j := range out {
		out[j] = inf
	}
	for _, y := range p.feasible {
		for j, v := range modelRow(dp, y, m)[:len(out)] {
			if v < out[j] {
				out[j] = v
			}
		}
	}
	for _, best := range out {
		if math.IsInf(best, 1) {
			return fmt.Errorf("opt: no feasible allocation schedule (universe of %d processors, t = %d)", n, p.t)
		}
	}
	return nil
}

// modelRow returns the m floats of state y in a [state][model] row.
func modelRow(rows []float64, y uint32, m int) []float64 {
	return rows[int(y)*m : int(y)*m+m]
}

// relaxReadModels is relaxRead over [state][model] rows.
func relaxReadModels(dp, next []float64, feasible []uint32, ibit uint32, mp *modelPrices) {
	m := len(mp.cc)
	for _, y := range feasible {
		dst := modelRow(next, y, m)
		stay := modelRow(dp, y, m)[:len(dst)]
		if y&ibit == 0 {
			addRow(dst, stay, mp.remote[:len(dst)])
			continue
		}
		join := modelRow(dp, y^ibit, m)[:len(dst)]
		addMinRow(dst, join, mp.saving[:len(dst)], stay, mp.local[:len(dst)])
	}
}

// foldWrite computes, for every mask Z that contains the writer,
// g[Z] = min over Y of (dp[Y] + cc·|Y \ Z|) — the half of minTransform's
// output relaxWrite reads — folding the writer's bit first.
//
// The value is the one minTransform computes, bit for bit. A candidate Y
// reaches Z as dp[Y] with cc added once per folded bit of Y \ Z: the same
// additions of the same cc whatever order the bits are folded in, and a
// min of non-NaN floats does not depend on the order it is taken in (nor
// on taking it before or after adding cc, rounding being monotone). So the
// writer's bit may go first, where it costs nothing: Z contains it, a
// minimizing Y is free to, and only the masks that contain it are kept.
// The other n-1 bits are then folded over that half alone.
func foldWrite(dp, g []float64, all, ibit uint32, cc []float64) {
	m := len(cc)
	rest := all &^ ibit
	for sub := uint32(0); ; sub = (sub - rest) & rest {
		dst := modelRow(g, sub|ibit, m)
		minRow(dst, modelRow(dp, sub|ibit, m)[:len(dst)], modelRow(dp, sub, m)[:len(dst)])
		if sub == rest {
			break
		}
	}
	for bit := uint32(1); bit <= rest; bit <<= 1 {
		if bit == ibit {
			continue
		}
		// Every pair of masks that contain the writer and differ in bit.
		free := rest &^ bit
		for sub := uint32(0); ; sub = (sub - free) & free {
			a := sub | ibit
			ga := modelRow(g, a, m)
			foldRow(ga, modelRow(g, a|bit, m)[:len(ga)], cc[:len(ga)])
			if sub == free {
				break
			}
		}
	}
}

// relaxWriteModels is relaxWrite over [state][model] rows.
func relaxWriteModels(g, next []float64, feasible []uint32, ibit uint32, mp *modelPrices) {
	m := len(mp.cc)
	for _, x := range feasible {
		sz := bits.OnesCount32(x)
		charge := mp.writeIn[sz*m : (sz+1)*m]
		if x&ibit == 0 {
			charge = mp.writeOut[sz*m : (sz+1)*m]
		}
		dst := modelRow(next, x, m)
		addRow(dst, modelRow(g, x|ibit, m)[:len(dst)], charge[:len(dst)])
	}
}
