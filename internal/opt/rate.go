package opt

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"objalloc/internal/cost"
)

// maxPeriods is the most boundary rows a periodic pass keeps, and so the
// most periods Rate runs; a finite pass keeps fewer where as many rows
// would outgrow rowBudget.
const maxPeriods = 1 << 10

// minStretch is the fewest requests the periodic pass walks between two
// boundaries: a boundary step is scalar work over the whole row, ~7 reads'
// worth on the read run's (each read an SSE2 kernel call), so a stretch
// of one short period would spend more at the boundaries than it saves.
const minStretch = 8

// Rate prices the plan as one period of an endless repetition: the
// periodic pass with no end (repeat) at one model, a period a stretch, run
// until the row less its minimum repeats. It returns the minimum's growth
// over the cycle, the cycle's length in periods and the period it starts
// at. Prices must be whole, so every sum is exact. At each boundary it
// drops the states more than K = n·(2cc + cd + cio) above the minimum,
// which no optimal schedule passes through (DESIGN §5, "Exact factors of
// periodic families"); without the cut a read run's rows never repeat.
// It gives up after maxPeriods periods.
func (p *Plan) Rate(ctx context.Context, m cost.Model) (growth float64, periods, start int, err error) {
	if err := m.Validate(); err != nil {
		return 0, 0, 0, err
	}
	if !Whole(m) || len(p.reqs) == 0 {
		return 0, 0, 0, fmt.Errorf("opt: a periodic rate needs whole prices and a request, got %v and %d", m, len(p.reqs))
	}
	ws := workspaces.Get().(*workspace)
	defer func() {
		// Rate keeps up to maxPeriods rows at any n; a pooled workspace
		// keeps no more than a grid pass's rowBudget of them.
		if 8*cap(ws.rows) > rowBudget {
			ws.keys, ws.rows = nil, nil
		}
		workspaces.Put(ws)
	}()
	models := []cost.Model{m}
	var gr grid
	p.start(&gr, models, ws)
	bs := p.newBoundaries(&gr, ws, len(models))
	a, b, err := p.repeat(ctx, &gr, &bs, len(p.reqs), -1)
	if err != nil {
		return 0, 0, 0, err
	}
	if a < 0 {
		return 0, 0, 0, fmt.Errorf("opt: the row did not repeat within %d periods", maxPeriods)
	}
	return bs.total[0] - bs.totals(a)[0], b - a, a, nil
}

// stepsChunk is the most rows Steps steps in one grid pass: up to 1 024
// rows share the fixed part of a pass's setup, and the workspace stays
// small, which matters because a caller's own allocations empty the pool
// between calls (at ModelChunk's 5 460 rows a pass at n = 3, the largest
// work-function graph allocated ~22 MB more, most of it workspaces).
const stepsChunk = 1 << 10

// Steps is Rate's walk one request at a time, at one whole-priced model,
// from a batch of rows: rows holds whole rows back to back, each the
// values of the plan's feasible states in ascending mask order (empty for
// the start row alone, 0 at the initial scheme and +Inf elsewhere). From
// each row it relaxes each request of the plan in turn, and normalises and
// cuts each new row as Rate does at a boundary. For each row in order it
// appends the plan's len(reqs) new rows to dst, one after another, and the
// rise of each one's minimum to rises. Such rows are OPT's work function,
// so a caller that keys them by value walks OPT as a finite-state player.
// The rows of a batch are the columns of one grid pass, up to
// stepsChunk of them at a time, so a pass's setup is paid per chunk and
// not per row.
func (p *Plan) Steps(m cost.Model, rows, dst, rises []float64) ([]float64, []float64, error) {
	if err := m.Validate(); err != nil {
		return nil, nil, err
	}
	f := len(p.feasible)
	if !Whole(m) || len(rows)%f != 0 {
		return nil, nil, fmt.Errorf("opt: a step needs whole prices and rows of the plan's %d feasible states, got %v and %d values", f, m, len(rows))
	}
	count, d := max(1, len(rows)/f), len(p.reqs)
	at, atRise := len(dst), len(rises)
	dst, rises = slices.Grow(dst, count*d*f)[:at+count*d*f], slices.Grow(rises, count*d)[:atRise+count*d]
	models := make([]cost.Model, min(count, ModelChunk(len(p.ids)), stepsChunk))
	for j := range models {
		models[j] = m
	}
	ws := workspaces.Get().(*workspace)
	defer workspaces.Put(ws)
	for lo := 0; lo < count; lo += len(models) {
		c := min(len(models), count-lo)
		var gr grid
		p.start(&gr, models[:c], ws)
		w := gr.w
		bs := p.newBoundaries(&gr, ws, c)
		for k := range p.reqs {
			// Every request starts from the rows, a pad column from the
			// last; the states outside the feasible ones stay +Inf in both
			// of the grid's rows.
			for i, y := range p.feasible {
				col := gr.dp[int(y)*w:][:w]
				for j := range col {
					if len(rows) > 0 {
						col[j] = rows[(lo+min(j, c-1))*f+i]
					} else if col[j] = inf; y == p.init {
						col[j] = 0
					}
				}
			}
			clear(bs.total)
			if err := p.walk(context.Background(), &gr, p.reqs[k:k+1]); err != nil {
				return nil, nil, err
			}
			bs.step(gr.dp, 1) // boundary 1 with none kept: normalise and cut only
			for j := range c {
				out := dst[at+((lo+j)*d+k)*f:][:f]
				for i, y := range p.feasible {
					out[i] = gr.dp[int(y)*w+j]
				}
				rises[atRise+(lo+j)*d+k] = bs.total[j]
			}
		}
	}
	return dst, rises, nil
}

// Whole reports whether every price of m is a whole number, as
// x == math.Trunc(x) says, without the call: below 2^52 through int64,
// and from there up every finite float is whole (and +Inf is its own
// truncation, NaN no number's). Rate and the periodic pass take only
// such prices.
func Whole(m cost.Model) bool {
	whole := func(x float64) bool {
		if math.Abs(x) < 1<<52 {
			return x == float64(int64(x))
		}
		return x == x
	}
	return whole(m.CC) && whole(m.CD) && whole(m.CIO)
}

// stretches returns how the grid pass walks the plan under models a
// stretch of whole periods at a time, and how many stretches the plan is,
// or 0 stretches for the plain walk. The periodic pass needs the plan to
// be two repetitions of its period at least, and every sum exact: whole
// prices, and every value either walk holds below 2^53. After k requests
// every finite DP value is at most k·(n+2)·(cc + cd + cio): a read adds at
// most saving = cc + cd + 2cio, a write at most n·cc of invalidations and
// n·(cd + cio) of charges, and the fold's partial sums add at most those
// n·cc. So L·(n+2)·(cc + cd + cio) ≤ 2^52 keeps every sum of either walk,
// and the periodic pass's extrapolation (which sums to the final value),
// exact, with room for the rounding of the guard's own product. A stretch
// is the fewest periods that divide the repetitions and span minStretch
// requests.
func (p *Plan) stretches(models []cost.Model) (stretch, ends int) {
	if p.period == 0 || len(p.reqs)/p.period < 2 {
		return 0, 0
	}
	reach := float64(len(p.reqs) * (len(p.ids) + 2))
	for _, m := range models {
		if !Whole(m) || reach*(m.CC+m.CD+m.CIO) > 1<<52 {
			return 0, 0
		}
	}
	reps := len(p.reqs) / p.period
	for k := 1; k <= reps/2; k++ {
		if reps%k == 0 && k*p.period >= minStretch {
			return k * p.period, reps / k
		}
	}
	return 0, 0
}

// boundaries are the rows the periodic pass keeps at its boundaries,
// normalised: each column less its minimum over the feasible states, and
// every entry more than the column's cut K_j = n·(2cc + cd + cio) above it
// dropped to +Inf (see Rate). Under whole prices such a row, with the
// requests after it, decides every later row up to the minima, so once a
// row repeats the totals repeat with it.
type boundaries struct {
	p  *Plan
	ws *workspace
	// w is the rows' width, cols the models' columns among them: a pad
	// column (see rowWidth) equals the last model's, so it is not kept.
	w, cols int
	// cut, total and lo are per column: the cut, the sum of the minima
	// subtracted so far, and the last boundary's minimum.
	cut, total, lo []float64
	// kept is the number of boundaries whose row is in ws.rows (the first
	// kept of them), keep the most it may hold: maxPeriods, unless the
	// caller lowers it.
	kept, keep int
}

// newBoundaries starts the boundaries of a grid pass over cols models,
// out of the grid's scratch floats and ws's kept rows.
func (p *Plan) newBoundaries(gr *grid, ws *workspace, cols int) boundaries {
	w := gr.w
	bs := boundaries{p: p, ws: ws, w: w, cols: cols, keep: maxPeriods,
		cut: gr.scratch[:w], total: gr.scratch[w : 2*w], lo: gr.scratch[2*w : 3*w]}
	for j := range w {
		bs.cut[j] = float64(len(p.ids)) * (gr.mp.cc[j] + gr.mp.remote[j]) // remote = cc + cd + cio
		bs.total[j] = 0
	}
	ws.keys, ws.rows = ws.keys[:0], ws.rows[:0]
	return bs
}

// record is the number of floats a kept boundary takes in ws.rows: its
// totals, then its feasible states' rows, the models' columns of each.
func (bs *boundaries) record() int { return bs.cols * (1 + len(bs.p.feasible)) }

// totals returns the totals kept at boundary i.
func (bs *boundaries) totals(i int) []float64 { return bs.ws.rows[i*bs.record():][:bs.cols] }

// step takes boundary b at row dp: it normalises dp in place, adding each
// column's minimum to its total, and returns the earlier boundary whose row
// equals dp's, or -1. It looks only while every earlier boundary is kept,
// so that the totals between a repeat's two ends are at hand, and keeps
// dp's row while there is room.
func (bs *boundaries) step(dp []float64, b int) int {
	w := bs.w
	lo, cut, total := bs.lo[:w], bs.cut[:w], bs.total[:w]
	bs.p.mins(dp, w, lo)
	var h uint64 // a rotate-xor of the row's bits: a collision costs only a compare
	for _, y := range bs.p.feasible {
		row := dp[int(y)*w:][:w]
		for j, v := range row {
			if v -= lo[j]; v > cut[j] {
				v = inf
			}
			row[j] = v
			h = bits.RotateLeft64(h, 7) ^ math.Float64bits(v)
		}
	}
	for j, v := range lo {
		total[j] += v
	}
	if bs.kept < b {
		return -1
	}
	for i, k := range bs.ws.keys {
		if k == h && bs.same(i, dp) {
			return i
		}
	}
	if bs.kept < bs.keep {
		rows := append(bs.ws.rows, total[:bs.cols]...)
		for _, y := range bs.p.feasible {
			rows = append(rows, dp[int(y)*w:][:bs.cols]...)
		}
		bs.ws.keys, bs.ws.rows = append(bs.ws.keys, h), rows
		bs.kept++
	}
	return -1
}

// same reports whether kept boundary i's row equals dp's.
func (bs *boundaries) same(i int, dp []float64) bool {
	c := bs.cols
	kept := bs.ws.rows[i*bs.record()+c:]
	for k, y := range bs.p.feasible {
		if !slices.Equal(kept[k*c:][:c], dp[int(y)*bs.w:][:c]) {
			return false
		}
	}
	return true
}

// repeat is the periodic pass: from the grid's start row it takes a
// boundary step, then walks the plan's first stretch requests (whole
// periods), and again, until a row repeats an earlier boundary's, the
// ends-th boundary, or, with ends < 0 (no end), a boundary it has no room
// to keep. It returns the boundary b it stopped at and the earlier
// boundary a whose row b's repeats, or -1.
func (p *Plan) repeat(ctx context.Context, gr *grid, bs *boundaries, stretch, ends int) (a, b int, err error) {
	for b = 0; ; b++ {
		a = bs.step(gr.dp, b)
		if a >= 0 || b == ends || ends < 0 && bs.kept <= b {
			return a, b, nil
		}
		if err := p.walk(ctx, gr, p.reqs[:stretch]); err != nil {
			return -1, b, err
		}
	}
}

// extrapolate sets out to the columns' minima at boundary ends, from a
// pass that stopped at boundary b repeating boundary a (or at ends, a < 0):
// past b the totals grow as they did from a, so the minimum at ends is the
// total at b, plus (ends − b) / (b − a) whole cycles of growth, plus the
// growth over the remainder's first boundaries of the cycle.
func (bs *boundaries) extrapolate(a, b, ends int, out []float64) {
	if a < 0 {
		copy(out, bs.total)
		return
	}
	q, rem := (ends-b)/(b-a), (ends-b)%(b-a)
	from, to := bs.totals(a), bs.totals(a+rem)
	for j := range out {
		out[j] = bs.total[j] + float64(q)*(bs.total[j]-from[j]) + (to[j] - from[j])
	}
}
