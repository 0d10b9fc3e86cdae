package competitive

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"objalloc/internal/cost"
	"objalloc/internal/dom"
	"objalloc/internal/model"
	"objalloc/internal/opt"
)

// maxStates is the most nodes a work-function graph may have, and the most
// OPT rows it may step.
const maxStates = 1 << 21

// Exact is SA's or DA's exact competitive factor at one model, n and t:
// the maximum cycle ratio of its work-function graph (Arena.Exact), with
// the cycle that attains it and the potentials that prove no cycle does
// better.
type Exact struct {
	// Num/Den is the factor in lowest terms: the online cost over OPT's
	// rise around the attaining cycle, in whole units. Den is 0 and Num 1
	// where a cycle costs the algorithm and not OPT: the factor is +Inf.
	Num, Den int64
	// Period is the attaining cycle's requests, shortest rotation first:
	// Factor on its endless repetition is the factor.
	Period model.Schedule
	// States and Edges are the graph's size.
	States, Edges int
	// Phi is one potential per state, nil for +Inf: on every edge v → u,
	// Den·online − Num·rise ≤ Phi[v] − Phi[u], so summed around any
	// cycle the online cost is at most Num/Den times OPT's rise.
	Phi []int64
	// start and cycle are the attaining cycle as a closed walk of the
	// graph: its first node and the request index of each edge.
	start int32
	cycle []int32
}

// Factor is Num/Den as a float: the correctly rounded quotient, or +Inf.
func (e Exact) Factor() float64 {
	if e.Den == 0 {
		return math.Inf(1)
	}
	return float64(e.Num) / float64(e.Den)
}

// Arena is OPT's side of the work-function graphs at one model, n and t,
// stepped once and shared by SA's and DA's: OPT's rows of opt.Plan.Steps
// (its DP row less its minimum, cut K = n·(2cc + cd + cio) above it,
// DESIGN §5) at m scaled whole, under the 2n requests r0 w0 r1 w1 ….
// It is read-only once built: Exact and Average may run concurrently.
type Arena struct {
	m, wm cost.Model
	n, t  int
	reqs  model.Schedule
	off   side
}

// NewArena steps OPT's rows at m on the processors 0..n−1 from {0..t−1}.
// A row must fit a 64-bit key, else the error is ErrRowKey.
func NewArena(ctx context.Context, m cost.Model, n, t int) (*Arena, error) {
	if n < 1 || n > model.MaxProcessors || t < 1 || t > n {
		return nil, fmt.Errorf("competitive: a work-function graph needs 1 <= t <= n <= %d, got n = %d, t = %d", model.MaxProcessors, n, t)
	}
	wm, err := whole(m)
	if err != nil {
		return nil, err
	}
	reqs := make(model.Schedule, 0, 2*n)
	for i := range n {
		reqs = append(reqs, model.R(model.ProcessorID(i)), model.W(model.ProcessorID(i)))
	}
	plan, err := opt.Compile(reqs, model.FullSet(t), t)
	if err != nil {
		return nil, err
	}
	off, err := workSide(ctx, plan, wm, len(reqs), int64(n)*int64(2*wm.CC+wm.CD+wm.CIO))
	if err != nil {
		return nil, err
	}
	return &Arena{m: m, wm: wm, n: n, t: t, reqs: reqs, off: off}, nil
}

// Exact is f's exact competitive factor for every schedule: the maximum
// cycle ratio of the work-function graph (a node per pair of f's scheme
// and OPT's row, an edge per request carrying f's cost and the rise of
// OPT's minimum), solved by Howard's policy iteration and certified edge
// by edge in integers (certify). f must be SA or DA (schemeIsState).
func (a *Arena) Exact(ctx context.Context, f dom.Factory) (Exact, error) {
	g, err := a.graph(ctx, f)
	if err != nil {
		return Exact{}, err
	}
	ex, err := g.solve(ctx)
	if err == nil {
		err = g.certify(ex)
	}
	if err != nil {
		return Exact{}, err
	}
	return ex, nil
}

// schemeIsState returns an error unless alg is SA or DA as dom builds
// them. Factor and the work-function graph take an algorithm's scheme for
// its whole state, and only theirs is: an algorithm that keeps more, such
// as a read counter, can repeat its scheme without repeating what it does.
func schemeIsState(alg dom.Algorithm) error {
	switch alg.(type) {
	case *dom.Static, *dom.Dynamic:
		return nil
	}
	return fmt.Errorf("competitive: an exact factor needs SA or DA, whose scheme is their whole state; %s keeps more", alg.Name())
}

// graph is a work-function graph: node v's edge k, for request reqs[k],
// is edge v·d + k, to head[e], costing the algorithm cost[e] and OPT
// rise[e] whole units. Node 0 is the start.
type graph struct {
	reqs       model.Schedule
	d          int
	head       []int32
	cost, rise []int32
}

// graph builds f's work-function graph: f's schemes explored on their
// own, then their product with a's rows from the start.
func (a *Arena) graph(ctx context.Context, f dom.Factory) (*graph, error) {
	on, err := onlineSide(f, a.wm, a.reqs, model.FullSet(a.t), a.t)
	if err != nil {
		return nil, err
	}
	// The product, breadth first from (initial scheme, start row): a node
	// (scheme s, row r) is nodes[v] = r·schemes + s, and ids the inverse,
	// −1 where no node is yet. The edges are laid out once the nodes are
	// known.
	d, off := len(a.reqs), a.off
	schemes := len(on.next) / d
	ids := make([]int32, len(off.next)/d*schemes)
	for i := range ids {
		ids[i] = -1
	}
	ids[0] = 0
	nodes := []int32{0}
	edge := func(v, k int) (i, j int, next int32) {
		s, r := int(nodes[v])%schemes, int(nodes[v])/schemes
		i, j = s*d+k, r*d+k
		return i, j, off.next[j]*int32(schemes) + on.next[i]
	}
	for v := 0; v < len(nodes); v++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for k := range d {
			if _, _, next := edge(v, k); ids[next] < 0 {
				if len(nodes) == maxStates {
					return nil, fmt.Errorf("competitive: the work-function graph at %v, n = %d, t = %d outgrows %d states", a.m, a.n, a.t, maxStates)
				}
				ids[next] = int32(len(nodes))
				nodes = append(nodes, next)
			}
		}
	}
	g := &graph{reqs: a.reqs, d: d, head: make([]int32, len(nodes)*d), cost: make([]int32, len(nodes)*d), rise: make([]int32, len(nodes)*d)}
	for v := range nodes {
		for k := range d {
			i, j, next := edge(v, k)
			e := v*d + k
			g.head[e], g.cost[e], g.rise[e] = ids[next], on.cost[i], off.cost[j]
		}
	}
	return g, nil
}

// side is one player's moves: from state s, request k leads to next[s·d+k]
// and costs cost[s·d+k] whole units there, the online cost or OPT's rise.
type side struct {
	next, cost []int32
}

// onlineSide steps the algorithm through every scheme it reaches from
// initial, each request from a fresh instance restored to the scheme.
func onlineSide(f dom.Factory, wm cost.Model, reqs model.Schedule, initial model.Set, t int) (side, error) {
	var on side
	alg, err := f(initial, t)
	if err != nil {
		return side{}, err
	}
	if err := schemeIsState(alg); err != nil {
		return side{}, err
	}
	blob, err := alg.(dom.Restorer).ExportState()
	if err != nil {
		return side{}, err
	}
	schemes, blobs := []model.Set{initial}, [][]byte{blob}
	for s := 0; s < len(schemes); s++ {
		for _, q := range reqs {
			alg, _ := f(initial, t)
			if err := alg.(dom.Restorer).ImportState(blobs[s]); err != nil {
				return side{}, err
			}
			st := alg.Step(q)
			next, v := model.CheckStep(0, st, schemes[s], t)
			if v != nil {
				return side{}, invalidSchedule(v)
			}
			u := slices.Index(schemes, next)
			if u < 0 {
				blob, err := alg.(dom.Restorer).ExportState()
				if err != nil {
					return side{}, err
				}
				u = len(schemes)
				schemes, blobs = append(schemes, next), append(blobs, blob)
			}
			c, err := units(cost.StepCounts(st, schemes[s]).Price(wm))
			if err != nil {
				return side{}, err
			}
			on.next, on.cost = append(on.next, int32(u)), append(on.cost, c)
		}
	}
	return on, nil
}

// workSide steps OPT's rows (opt.Plan.Steps) from the start row, row 0,
// through every row they reach, a breadth-first layer at a time and
// stepsBatch rows a call (a layer's new rows at once were 16 MiB at
// n = 4): rows holds the layer's rows, found the next layer's. A row is
// keyed by its entries, whole numbers up to the cut k or +Inf, in a uint64.
// A row has d moves, so a layer's are laid down in slices of their exact
// size and the layers joined once at the end: the side keeps no slack
// (grown by append, a 12 MiB side at n = 4 allocated ~106 MB).
func workSide(ctx context.Context, plan *opt.Plan, wm cost.Model, d int, k int64) (side, error) {
	const stepsBatch = 1 << 10
	var layers []side
	ids := map[uint64]int32{}
	var rows, found, next, rises []float64
	width := 0
	for lo, hi := 0, 1; lo < hi; lo, hi = hi, 1+len(ids) {
		found = found[:0]
		layer := side{make([]int32, 0, (hi-lo)*d), make([]int32, 0, (hi-lo)*d)}
		for i := lo; i < hi; i += stepsBatch {
			if err := ctx.Err(); err != nil {
				return side{}, err
			}
			var err error
			if next, rises, err = plan.Steps(wm, rows[(i-lo)*width:(min(hi, i+stepsBatch)-lo)*width], next[:0], rises[:0]); err != nil {
				return side{}, err
			}
			width = len(next) / len(rises)
			for q, rise := range rises {
				row := next[q*width:][:width]
				key, err := pack(row, k)
				if err != nil {
					return side{}, err
				}
				id, ok := ids[key]
				if !ok {
					if len(ids)+1 == maxStates {
						return side{}, fmt.Errorf("competitive: OPT's rows at %v outgrow %d", wm, maxStates)
					}
					id = int32(1 + len(ids))
					ids[key] = id
					found = append(found, row...)
				}
				r, err := units(rise)
				if err != nil {
					return side{}, err
				}
				layer.next, layer.cost = append(layer.next, id), append(layer.cost, r)
			}
		}
		layers = append(layers, layer)
		rows, found = found, rows
	}
	off := side{make([]int32, 0, (1+len(ids))*d), make([]int32, 0, (1+len(ids))*d)}
	for _, layer := range layers {
		off.next, off.cost = append(off.next, layer.next...), append(off.cost, layer.cost...)
	}
	return off, nil
}

// units is a cost or a rise as an int32: whole units, below 2^31.
func units(x float64) (int32, error) {
	if x < 0 || x >= math.MaxInt32 || x != math.Trunc(x) {
		return 0, fmt.Errorf("competitive: a step's cost %v is not a whole number below 2^31", x)
	}
	return int32(x), nil
}

// ErrRowKey is NewArena's refusal of OPT rows that do not fit the 64-bit
// key pack makes of them.
var ErrRowKey = errors.New("competitive: OPT's row does not fit a 64-bit key")

// pack keys a row whose entries are whole numbers in [0, k], or +Inf (the
// digit k+1), in base k+2.
func pack(row []float64, k int64) (uint64, error) {
	base := uint64(k + 2)
	var key uint64
	for _, v := range row {
		digit := uint64(k + 1)
		if !math.IsInf(v, 1) {
			if v < 0 || v > float64(k) || v != math.Trunc(v) {
				return 0, fmt.Errorf("competitive: OPT row entry %v outside the cut [0, %d]", v, k)
			}
			digit = uint64(v)
		}
		if key > (math.MaxUint64-digit)/base {
			return 0, fmt.Errorf("%w: %d entries up to %d", ErrRowKey, len(row), k)
		}
		key = key*base + digit
	}
	return key, nil
}

// errNoConvergence is solve's report that policy iteration or the
// potentials did not settle, which a correct solver never returns.
var errNoConvergence = errors.New("competitive: the maximum cycle ratio did not converge")

// ratio is a cycle's online cost over OPT's rise in lowest terms, den > 0;
// a cycle that costs neither is 0/1.
type ratio struct{ num, den int64 }

func newRatio(num, den int64) ratio {
	if den == 0 {
		return ratio{0, 1}
	}
	a, b := num, den
	for b != 0 {
		a, b = b, a%b
	}
	return ratio{num / a, den / a}
}

func (r ratio) less(s ratio) bool { return r.num*s.den < s.num*r.den }

// weight is edge e's online cost less r times its rise, scaled by r.den.
func (g *graph) weight(e int, r ratio) int64 {
	return r.den*int64(g.cost[e]) - r.num*int64(g.rise[e])
}

// solve finds the graph's maximum cycle ratio by Howard's policy iteration
// (multichain: each node's ratio is that of the policy cycle it reaches),
// then the potentials at that ratio, by longest paths from every node.
func (g *graph) solve(ctx context.Context) (Exact, error) {
	n, d := len(g.head)/g.d, g.d
	if err := g.fits(n); err != nil {
		return Exact{}, err
	}
	pol := make([]int32, n) // the policy: node v takes edge v·d + pol[v]
	for v := range n {
		for k := range d {
			if g.cost[v*d+k] > g.cost[v*d+int(pol[v])] {
				pol[v] = int32(k)
			}
		}
	}
	lam := make([]ratio, n)
	phi := make([]int64, n)
	state := make([]uint8, n)
	var path []int32
	for iter := 0; ; iter++ {
		if iter == 10_000 {
			return Exact{}, errNoConvergence
		}
		if err := ctx.Err(); err != nil {
			return Exact{}, err
		}
		// Value determination: follow the policy from each node to a
		// node already valued or round a new cycle, whose smallest node
		// is its anchor at potential 0.
		clear(state)
		for s := range n {
			path = path[:0]
			v := int32(s)
			for state[v] == 0 {
				state[v] = 1
				path = append(path, v)
				v = g.head[int(v)*d+int(pol[v])]
			}
			if state[v] == 1 {
				at := slices.Index(path, v)
				var num, den int64
				anchor := v
				for _, x := range path[at:] {
					e := int(x)*d + int(pol[x])
					num, den = num+int64(g.cost[e]), den+int64(g.rise[e])
					anchor = min(anchor, x)
				}
				if den == 0 && num > 0 {
					return Exact{Num: 1, Den: 0, start: v, cycle: g.policyCycle(pol, v), States: n, Edges: len(g.head)}.withPeriod(g), nil
				}
				lam[anchor], phi[anchor], state[anchor] = newRatio(num, den), 0, 2
				// The rest of the cycle backwards from the anchor.
				i := slices.Index(path[at:], anchor) + at
				cyc := append(slices.Clone(path[i+1:]), path[at:i]...)
				for j := len(cyc) - 1; j >= 0; j-- {
					g.value(cyc[j], pol, lam, phi)
					state[cyc[j]] = 2
				}
				path = path[:at]
			}
			for j := len(path) - 1; j >= 0; j-- {
				g.value(path[j], pol, lam, phi)
				state[path[j]] = 2
			}
		}
		// Improvement: first toward a higher ratio, else, within one,
		// toward a higher potential; only strict gains switch.
		changed := false
		for v := range n {
			best := pol[v]
			for k := range d {
				if lam[g.head[v*d+int(best)]].less(lam[g.head[v*d+k]]) {
					best = int32(k)
				}
			}
			changed = changed || best != pol[v]
			pol[v] = best
		}
		if !changed {
			for v := range n {
				top := phi[v]
				for k := range d {
					e := v*d + k
					if u := g.head[e]; lam[u] == lam[v] {
						if p := g.weight(e, lam[v]) + phi[u]; p > top {
							top, pol[v], changed = p, int32(k), true
						}
					}
				}
			}
		}
		if !changed {
			break
		}
	}
	best := int32(0)
	for v := range n {
		if lam[best].less(lam[v]) {
			best = int32(v)
		}
	}
	for state[best] != 3 { // onto the policy cycle best reaches
		state[best] = 3
		best = g.head[int(best)*d+int(pol[best])]
	}
	r := lam[best]
	pot, err := g.potentials(ctx, r, lam, phi)
	if err != nil {
		return Exact{}, err
	}
	ex := Exact{Num: r.num, Den: r.den, Phi: pot, start: best, cycle: g.policyCycle(pol, best), States: n, Edges: len(g.head)}
	return ex.withPeriod(g), nil
}

// value sets v's ratio and potential from its policy edge's head.
func (g *graph) value(v int32, pol []int32, lam []ratio, phi []int64) {
	e := int(v)*g.d + int(pol[v])
	u := g.head[e]
	lam[v] = lam[u]
	phi[v] = g.weight(e, lam[u]) + phi[u]
}

// policyCycle returns the request indices of the policy cycle through v.
func (g *graph) policyCycle(pol []int32, v int32) []int32 {
	var ks []int32
	for u := v; ; {
		ks = append(ks, pol[u])
		if u = g.head[int(u)*g.d+int(pol[u])]; u == v {
			return ks
		}
	}
}

// withPeriod sets e.Period from e.cycle: its shortest repeating block,
// rotated to the least sequence of request indices.
func (e Exact) withPeriod(g *graph) Exact {
	ks := e.cycle
	for p := 1; p <= len(ks); p++ {
		if len(ks)%p == 0 && slices.Equal(ks[p:], ks[:len(ks)-p]) {
			ks = ks[:p]
			break
		}
	}
	best := ks
	for i := 1; i < len(ks); i++ {
		if rot := append(slices.Clone(ks[i:]), ks[:i]...); slices.Compare(rot, best) < 0 {
			best = rot
		}
	}
	e.Period = make(model.Schedule, len(best))
	for i, k := range best {
		e.Period[i] = g.reqs[k]
	}
	return e
}

// potentials returns φ with weight(e, r) ≤ φ[v] − φ[u] on every edge
// v → u: the least such φ at or above a start that is Howard's potential
// on r's nodes and 0 elsewhere, by relaxing each node's out-edges until
// none rises. r is the maximum cycle ratio, so no cycle gains and every
// node rises at most n times.
func (g *graph) potentials(ctx context.Context, r ratio, lam []ratio, phi []int64) ([]int64, error) {
	n, d := len(lam), g.d
	pot := make([]int64, n)
	for v := range n {
		if lam[v] == r {
			pot[v] = phi[v]
		}
	}
	at, in := g.preds()
	// A ring of the nodes to relax, each in it at most once.
	queued, rises := make([]bool, n), make([]int32, n)
	ring := make([]int32, n)
	for v := range n {
		ring[v], queued[v] = int32(v), true
	}
	for head, size := 0, n; size > 0; head, size = (head+1)%n, size-1 {
		if head == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		v := ring[head]
		queued[v] = false
		top := pot[v]
		for k := range d {
			e := int(v)*d + k
			top = max(top, g.weight(e, r)+pot[g.head[e]])
		}
		if top == pot[v] {
			continue
		}
		if rises[v]++; int(rises[v]) > n {
			return nil, errNoConvergence
		}
		pot[v] = top
		for _, e := range in[at[v]:at[v+1]] {
			if x := e / int32(d); !queued[x] {
				queued[x] = true
				ring[(head+size)%n] = x
				size++
			}
		}
	}
	return pot, nil
}

// preds lists each node's in-edges: node u's are in[at[u]:at[u+1]].
func (g *graph) preds() (at, in []int32) {
	n := len(g.head) / g.d
	at = make([]int32, n+1)
	for _, u := range g.head {
		at[u+1]++
	}
	for v := range n {
		at[v+1] += at[v]
	}
	in, fill := make([]int32, len(g.head)), slices.Clone(at[:n])
	for e, u := range g.head {
		in[fill[u]] = int32(e)
		fill[u]++
	}
	return at, in
}

// fits refuses a graph whose sums could overflow an int64: a cycle's
// totals are below n·c and n·r for the largest cost c and rise r, so a
// weight is below 2·n·c·r and a potential, a sum of at most n weights,
// below 2·n²·c·r.
func (g *graph) fits(n int) error {
	c, r := slices.Max(g.cost), slices.Max(g.rise)
	if nn := float64(n); 2*nn*nn*float64(max(c, 1))*float64(max(r, 1)) >= 1<<61 {
		return fmt.Errorf("competitive: a work-function graph of %d states, costs up to %d and rises up to %d could overflow int64", n, c, r)
	}
	return nil
}

// certify checks ex against the graph in integers, sharing no code with
// solve. The cycle must be a closed walk of the graph from ex.start whose
// online cost over OPT's rise is exactly Num/Den (zero rise and a positive
// cost for +Inf). For a finite factor, Phi must pay for every edge:
// Den·cost − Num·rise ≤ Phi[v] − Phi[u]. Summed around any cycle the
// right side cancels, so no cycle's ratio exceeds Num/Den, and no cycle
// costs the algorithm without raising OPT.
func (g *graph) certify(ex Exact) error {
	n := len(g.head) / g.d
	if ex.start < 0 || int(ex.start) >= n || len(ex.cycle) == 0 {
		return fmt.Errorf("competitive: certificate: no cycle")
	}
	var online, rise int64
	v := ex.start
	for _, k := range ex.cycle {
		if k < 0 || int(k) >= g.d {
			return fmt.Errorf("competitive: certificate: request %d out of range", k)
		}
		e := int(v)*g.d + int(k)
		online, rise, v = online+int64(g.cost[e]), rise+int64(g.rise[e]), g.head[e]
	}
	if v != ex.start {
		return fmt.Errorf("competitive: certificate: the cycle does not close")
	}
	if ex.Den == 0 {
		if ex.Num != 1 || rise != 0 || online <= 0 {
			return fmt.Errorf("competitive: certificate: an infinite factor needs a cycle of zero rise and positive cost, got %d over %d", online, rise)
		}
		return nil
	}
	const bound = 1 << 31 // with costs and rises below 2^31, every product and difference stays below 2^63
	if ex.Num < 0 || ex.Den < 0 || ex.Num >= bound || ex.Den >= bound || len(ex.Phi) != n {
		return fmt.Errorf("competitive: certificate: factor %d/%d or %d potentials for %d states out of range", ex.Num, ex.Den, len(ex.Phi), n)
	}
	if online*ex.Den != rise*ex.Num {
		return fmt.Errorf("competitive: certificate: the cycle reads %d/%d, not %d/%d", online, rise, ex.Num, ex.Den)
	}
	for _, p := range ex.Phi {
		if p <= -1<<61 || p >= 1<<61 {
			return fmt.Errorf("competitive: certificate: potential %d out of range", p)
		}
	}
	for e, u := range g.head {
		if w, slack := ex.Den*int64(g.cost[e])-ex.Num*int64(g.rise[e]), ex.Phi[e/g.d]-ex.Phi[u]; w > slack {
			return fmt.Errorf("competitive: certificate: edge %d (%v) gains %d over the potentials' %d", e, g.reqs[e%g.d], w, slack)
		}
	}
	return nil
}
