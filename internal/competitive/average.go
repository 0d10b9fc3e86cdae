package competitive

import (
	"context"
	"errors"
	"fmt"
	"math"

	"objalloc/internal/dom"
)

// The average pass stops once a step moves π by less than avgTolerance in
// L1, and fails after maxSweeps steps; over E12 it stops after 67–186.
const (
	avgTolerance = 1e-12
	maxSweeps    = 1 << 14
)

var errNoSettle = errors.New("competitive: the stationary distribution did not settle")

// Average is f's long-run ratio on a's model and universe under
// independent requests, one value per write fraction pw: a read at each
// processor with probability (1−pw)/n, a write with pw/n. Then the
// work-function graph (Arena) is a Markov chain, OPT's cost is its start
// row's minimum plus the rises it walks, and on a chain with one closed
// class COST_A/COST_OPT of a random schedule tends almost surely to
// E_π[online cost per request] / E_π[rise per request], π the stationary
// distribution (the ergodic theorem, for each sum apart). A chain with a
// second closed class reachable from the start is refused.
func (a *Arena) Average(ctx context.Context, f dom.Factory, pwrites []float64) ([]float64, error) {
	for _, pw := range pwrites {
		if !(pw >= 0 && pw <= 1) {
			return nil, fmt.Errorf("competitive: a write fraction must be in [0, 1], got %v", pw)
		}
	}
	g, err := a.graph(ctx, f)
	if err != nil {
		return nil, err
	}
	out, p := make([]float64, len(pwrites)), make([]float64, g.d)
	for i, pw := range pwrites {
		for k, q := range g.reqs {
			if p[k] = pw / float64(a.n); q.IsRead() {
				p[k] = (1 - pw) / float64(a.n)
			}
		}
		if out[i], err = g.average(ctx, p); err != nil {
			return nil, fmt.Errorf("%w at %v, pwrite %v", err, a.m, pw)
		}
	}
	return out, nil
}

// average is the long-run ratio of the chain P that takes edge k with
// probability p[k]. It iterates the lazy chain (I + 3P)/4 from the start:
// that has P's stationary distributions and maps each other eigenvalue λ
// of P to (1 + 3λ)/4, inside the unit circle also where P is periodic.
func (g *graph) average(ctx context.Context, p []float64) (float64, error) {
	n, d := len(g.head)/g.d, g.d
	pi, next := make([]float64, n), make([]float64, n)
	pi[0] = 1
	for sweep, moved := 0, math.Inf(1); moved >= avgTolerance; sweep++ {
		if sweep == maxSweeps {
			return 0, errNoSettle
		}
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		for v, x := range pi {
			next[v] = x / 4
		}
		for v, x := range pi {
			for k, u := range g.head[v*d : v*d+d] {
				next[u] += x * 3 / 4 * p[k]
			}
		}
		moved = 0
		for v, x := range next {
			moved += math.Abs(x - pi[v])
		}
		pi, next = next, pi
	}
	c, online, rise := 0, 0.0, 0.0
	for v, x := range pi {
		if x > pi[c] {
			c = v
		}
		for k, q := range p {
			online, rise = online+x*q*float64(g.cost[v*d+k]), rise+x*q*float64(g.rise[v*d+k])
		}
	}
	if !g.closedAt(int32(c), p) {
		return 0, errors.New("competitive: the chain has more than one closed class")
	}
	return ratioOf(online, rise), nil
}

// closedAt reports whether every node the chain reaches from the start
// reaches c along edges of positive probability: exactly when c's class,
// π's heaviest node's, is the one closed class.
func (g *graph) closedAt(c int32, p []float64) bool {
	d := int32(g.d)
	at, in := g.preds()
	back, seen := make([]bool, len(at)-1), make([]bool, len(at)-1)
	back[c], seen[0] = true, true
	for stack := []int32{c}; len(stack) > 0; {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range in[at[u]:at[u+1]] {
			if v := e / d; p[e%d] > 0 && !back[v] {
				back[v], stack = true, append(stack, v)
			}
		}
	}
	for stack := []int32{0}; len(stack) > 0; {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !back[v] {
			return false
		}
		for k, u := range g.head[v*d : v*d+d] {
			if p[k] > 0 && !seen[u] {
				seen[u], stack = true, append(stack, u)
			}
		}
	}
	return true
}
