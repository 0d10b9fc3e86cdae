package competitive

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"objalloc/internal/cost"
	"objalloc/internal/dom"
	"objalloc/internal/model"
)

// chain is a hand-built graph over r0 w0: node v's read leads to
// heads[2v] and its write to heads[2v+1], each edge costing the algorithm
// costs[e] and OPT rises[e].
func chain(heads, costs, rises []int32) *graph {
	return &graph{reqs: model.MustParseSchedule("r0 w0"), d: 2, head: heads, cost: costs, rise: rises}
}

// A period-2 chain, 0 → 1 → 0 whatever the request, never settles under
// plain power iteration from the start; the lazy chain does, to the
// stationary (1/2, 1/2): the ratio is (3 + 1)/(1 + 1).
func TestAveragePassConvergesOnPeriodicChain(t *testing.T) {
	g := chain([]int32{1, 1, 0, 0}, []int32{3, 3, 1, 1}, []int32{1, 1, 1, 1})
	got, err := g.average(context.Background(), []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-2) > 1e-9 {
		t.Errorf("the period-2 chain reads %v, want 2", got)
	}
}

// From node 0 a read leads to node 1 and a write to node 2, each of which
// stays put: two closed classes, refused. Where writes never happen only
// node 1's class is reached, and its ratio is the answer.
func TestAveragePassRefusesTwoClosedClasses(t *testing.T) {
	g := chain([]int32{1, 2, 1, 1, 2, 2}, []int32{1, 1, 2, 2, 5, 5}, []int32{1, 1, 1, 1, 1, 1})
	if got, err := g.average(context.Background(), []float64{0.5, 0.5}); err == nil || !strings.Contains(err.Error(), "closed class") {
		t.Errorf("two closed classes: %v, %v; want a refusal", got, err)
	}
	got, err := g.average(context.Background(), []float64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-2) > 1e-9 {
		t.Errorf("reads only: %v, want node 1's ratio 2", got)
	}
	// Reads only on three processors: node 0's read at 0 leads to node
	// 1, its other reads to node 2, and each stays put on a read. Node 1
	// reaches node 2 by a write alone, which never happens: two closed
	// classes again.
	heads := []int32{1, 0, 2, 0, 2, 0, 1, 2, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2}
	g = &graph{reqs: model.MustParseSchedule("r0 w0 r1 w1 r2 w2"), d: 6, head: heads, cost: make([]int32, 18), rise: make([]int32, 18)}
	if got, err := g.average(context.Background(), []float64{1. / 3, 0, 1. / 3, 0, 1. / 3, 0}); err == nil || !strings.Contains(err.Error(), "closed class") {
		t.Errorf("joined by a write of probability 0: %v, %v; want a refusal", got, err)
	}
}

// A write fraction that is NaN or outside [0, 1] is refused before the
// graph is built.
func TestAverageFactorRefusesBadWriteFractions(t *testing.T) {
	a := arena(t, cost.SC(0.3, 0.7), 3, 2)
	for _, pw := range []float64{math.NaN(), -0.1, 1.5, math.Inf(1)} {
		if _, err := a.Average(context.Background(), dom.DynamicFactory, []float64{0.15, pw}); err == nil || !strings.Contains(err.Error(), "write fraction") {
			t.Errorf("pwrite %v: err = %v, want a refusal", pw, err)
		}
	}
}

// A chain that mixes too slowly for the pass's budget is an error, not a
// number: between two nodes that swap only on a write, with writes at
// 1e-9, each step moves ~1.5e-9 of mass, above the tolerance for far
// more steps than maxSweeps.
func TestAveragePassReportsNoSettle(t *testing.T) {
	g := chain([]int32{0, 1, 1, 0}, []int32{1, 1, 4, 4}, []int32{1, 1, 1, 1})
	if got, err := g.average(context.Background(), []float64{1 - 1e-9, 1e-9}); !errors.Is(err, errNoSettle) {
		t.Errorf("got %v, %v; want errNoSettle", got, err)
	}
}
