package competitive

import (
	"context"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"objalloc/internal/adversary"
	"objalloc/internal/baseline"
	"objalloc/internal/cost"
	"objalloc/internal/dom"
	"objalloc/internal/model"
	"objalloc/internal/opt"
)

// arena is OPT's side at m on n processors from {0..t−1}.
func arena(tb testing.TB, m cost.Model, n, t int) *Arena {
	tb.Helper()
	a, err := NewArena(context.Background(), m, n, t)
	if err != nil {
		tb.Fatalf("%v, n = %d, t = %d: %v", m, n, t, err)
	}
	return a
}

// solved builds f's work-function graph on a, solves it and certifies the
// solution, each step on its own.
func solved(t *testing.T, a *Arena, f dom.Factory) (*graph, Exact) {
	t.Helper()
	ctx := context.Background()
	g, err := a.graph(ctx, f)
	if err != nil {
		t.Fatalf("%v: %v", a.m, err)
	}
	ex, err := g.solve(ctx)
	if err != nil {
		t.Fatalf("%v: %v", a.m, err)
	}
	if err := g.certify(ex); err != nil {
		t.Fatalf("%v: %v", a.m, err)
	}
	return g, ex
}

// selfCheck holds SA's and DA's exact factors at m, n = 3, t = 2, to what
// the paper proves and to the periods that fit in three processors: SA's
// factor is 1+cc+cd in SC and +Inf in MC, DA's is within Theorems 2–4 and
// at least every nemesis period's and every given period's, and each
// attaining cycle's Factor is the graph's value. All in whole units.
func selfCheck(t *testing.T, m cost.Model, periods []model.Schedule) {
	t.Helper()
	ctx := context.Background()
	initial := model.NewSet(0, 1)
	wm, err := whole(m)
	if err != nil {
		t.Fatal(err)
	}
	cc, cd, cio := int64(wm.CC), int64(wm.CD), int64(wm.CIO)
	a := arena(t, m, 3, 2)
	_, sa := solved(t, a, dom.StaticFactory)
	_, da := solved(t, a, dom.DynamicFactory)
	if m.IsMobile() {
		if sa.Den != 0 {
			t.Errorf("%v: SA's factor %d/%d on %v, want +Inf (Proposition 3)", m, sa.Num, sa.Den, sa.Period)
		}
	} else if sa.Num*cio != sa.Den*(cio+cc+cd) {
		t.Errorf("%v: SA's factor %d/%d on %v, want 1+cc+cd = %d/%d (Theorem 1)", m, sa.Num, sa.Den, sa.Period, cio+cc+cd, cio)
	}
	num, den := 2*cio+2*cc, cio // Theorem 2
	switch {
	case m.IsMobile():
		num, den = 2*cd+3*cc, cd // Theorem 4
	case cd > cio:
		num = 2*cio + cc // Theorem 3
	}
	if da.Den == 0 || da.Num*den > num*da.Den {
		t.Errorf("%v: DA's factor %d/%d on %v exceeds DABound %d/%d", m, da.Num, da.Den, da.Period, num, den)
	}
	for _, fam := range adversary.Families(3, 2) {
		periods = append(periods, fam.Period)
	}
	for _, p := range periods {
		f, err := Factor(ctx, m, dom.DynamicFactory, p, initial, 2)
		if err != nil {
			t.Fatal(err)
		}
		if f > da.Factor() {
			t.Errorf("%v: %v reads %v, above DA's exact factor %v", m, p, f, da.Factor())
		}
	}
	for _, c := range []struct {
		ex Exact
		f  dom.Factory
	}{{sa, dom.StaticFactory}, {da, dom.DynamicFactory}} {
		f, err := Factor(ctx, m, c.f, c.ex.Period, initial, 2)
		if err != nil {
			t.Fatal(err)
		}
		if f != c.ex.Factor() {
			t.Errorf("%v: the attaining cycle %v reads %v, the graph %d/%d", m, c.ex.Period, f, c.ex.Num, c.ex.Den)
		}
	}
}

// shortPeriods is every period of at most three requests on three
// processors.
func shortPeriods() []model.Schedule {
	var reqs []model.Request
	for p := range model.ProcessorID(3) {
		reqs = append(reqs, model.R(p), model.W(p))
	}
	out := []model.Schedule{nil}
	for i := 0; i < len(out); i++ {
		if len(out[i]) < 3 {
			for _, q := range reqs {
				out = append(out, append(append(model.Schedule{}, out[i]...), q))
			}
		}
	}
	return out[1:]
}

// One cell per model family, each period of up to three requests beside
// the nemesis families; the grid and the experiments' cells are in
// graph_norace_test.go.
func TestExactFactorSelfChecks(t *testing.T) {
	for _, m := range []cost.Model{cost.SC(0.3, 1.2), cost.MC(0.5, 1)} {
		selfCheck(t, m, shortPeriods())
	}
}

// The graph prices what it walks: along any walk from the start, the
// online costs add up to the algorithm's cost on the walk's requests and
// OPT's rises to the offline optimum, which opt.Solve finds with no cut.
func TestWorkFunctionGraphWalksPriceSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	initial := model.NewSet(0, 1)
	for _, m := range []cost.Model{cost.SC(0.3, 1.2), cost.SC(1, 3), cost.MC(0.5, 1)} {
		wm, err := whole(m)
		if err != nil {
			t.Fatal(err)
		}
		a := arena(t, m, 3, 2)
		for _, f := range []dom.Factory{dom.StaticFactory, dom.DynamicFactory} {
			g, _ := solved(t, a, f)
			for walk := 0; walk < 40; walk++ {
				var sched model.Schedule
				var online, rise int64
				for v := 0; len(sched) < 24; {
					k := rng.Intn(g.d)
					e := v*g.d + k
					sched = append(sched, g.reqs[k])
					online, rise, v = online+int64(g.cost[e]), rise+int64(g.rise[e]), int(g.head[e])
				}
				las, err := dom.RunFactory(f, initial, 2, sched)
				if err != nil {
					t.Fatal(err)
				}
				res, err := opt.Solve(wm, sched, initial, 2)
				if err != nil {
					t.Fatal(err)
				}
				if want := cost.ScheduleCost(wm, las, initial); float64(online) != want {
					t.Errorf("%v %v: the graph's online cost %d, the run's %v", m, sched, online, want)
				}
				if float64(rise) != res.Cost {
					t.Errorf("%v %v: OPT's rises add to %d, the optimum is %v", m, sched, rise, res.Cost)
				}
			}
		}
	}
}

// An arena is read-only once built: SA's and DA's exact factors and
// long-run ratios, asked of one arena from four goroutines at once, are
// what the serial calls read, to the last potential. The race build
// checks that no call writes what another reads.
func TestArenaSharedAcrossGoroutines(t *testing.T) {
	type answer struct {
		ex  Exact
		avg []float64
	}
	ctx := context.Background()
	a := arena(t, cost.SC(1, 3), 3, 2)
	fs := []dom.Factory{dom.StaticFactory, dom.DynamicFactory}
	ask := func(f dom.Factory) (ans answer, err error) {
		if ans.ex, err = a.Exact(ctx, f); err == nil {
			ans.avg, err = a.Average(ctx, f, []float64{0.15, 0.5})
		}
		return ans, err
	}
	want := make([]answer, len(fs))
	for i, f := range fs {
		var err error
		if want[i], err = ask(f); err != nil {
			t.Fatal(err)
		}
	}
	got, errs := make([][]answer, 4), make([]error, 4)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = make([]answer, len(fs))
			for j := range fs {
				i := (g + j) % len(fs) // half the goroutines ask DA first
				if got[g][i], errs[g] = ask(fs[i]); errs[g] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		for i := range fs {
			if !reflect.DeepEqual(got[g][i], want[i]) {
				t.Errorf("goroutine %d, factory %d: %d/%d on %v in %d states, long-run %v; serially %d/%d on %v in %d states, long-run %v",
					g, i, got[g][i].ex.Num, got[g][i].ex.Den, got[g][i].ex.Period, got[g][i].ex.States, got[g][i].avg,
					want[i].ex.Num, want[i].ex.Den, want[i].ex.Period, want[i].ex.States, want[i].avg)
			}
		}
	}
}

// certify reads every edge: raising any one edge's online cost past its
// slack makes the potentials fail there. The graph is n = 2, t = 1 at
// SC(1, 1), small enough to certify once per edge.
func TestCertifyReadsEveryEdge(t *testing.T) {
	ctx := context.Background()
	g, err := arena(t, cost.SC(1, 1), 2, 1).graph(ctx, dom.DynamicFactory)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := g.solve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.certify(ex); err != nil {
		t.Fatal(err)
	}
	spread := int64(0)
	for _, p := range ex.Phi {
		spread = max(spread, p-ex.Phi[0], ex.Phi[0]-p)
	}
	for e := range g.cost {
		saved := g.cost[e]
		g.cost[e] += int32(2*spread + ex.Num + 1)
		if err := g.certify(ex); err == nil {
			t.Errorf("edge %d of %d: a raised cost passed the check", e, len(g.cost))
		}
		g.cost[e] = saved
	}
}

// certify refuses a factor one unit low, a potential off by one on the
// attaining cycle, and a cycle that does not close.
func TestCertifyRefusesBrokenCertificates(t *testing.T) {
	g, ex := solved(t, arena(t, cost.SC(0.3, 1.2), 3, 2), dom.DynamicFactory)
	low := ex
	low.Num--
	if err := g.certify(low); err == nil {
		t.Errorf("factor %d/%d passed for %d/%d", low.Num, low.Den, ex.Num, ex.Den)
	}
	off := ex
	off.Phi = append([]int64(nil), ex.Phi...)
	off.Phi[ex.start]--
	if err := g.certify(off); err == nil || !strings.Contains(err.Error(), "gains") {
		t.Errorf("a potential off by one: err = %v", err)
	}
	open := ex
	open.cycle = append(append([]int32(nil), ex.cycle...), ex.cycle[0])
	if err := g.certify(open); err == nil {
		t.Error("an open walk passed as the cycle")
	}
}

// The exact factors take SA and DA only, whose scheme is their whole
// state. KThreshold(2) repeats its scheme at every boundary of r2 while
// its read counter does not, so the scheme cannot stand for its state:
// taken for it, Factor would read 2.5 where the ratio tends to 1.
// Convergent keeps a window of requests.
func TestExactFactorsRefuseOtherAlgorithms(t *testing.T) {
	ctx := context.Background()
	m := cost.SC(0.3, 1.2)
	a := arena(t, m, 3, 2)
	for _, f := range []dom.Factory{baseline.KThresholdFactory(2), baseline.ConvergentFactory(4)} {
		if got, err := Factor(ctx, m, f, model.MustParseSchedule("r2"), model.NewSet(0, 1), 2); err == nil || !strings.Contains(err.Error(), "whole state") {
			t.Errorf("Factor = %v, %v; want a refusal", got, err)
		}
		if _, err := a.Exact(ctx, f); err == nil || !strings.Contains(err.Error(), "whole state") {
			t.Errorf("Exact err = %v; want a refusal", err)
		}
	}
}

// NewArena refuses what a graph cannot hold: a universe out of range and
// a row too long for a 64-bit key (n = 6, t = 1: 63 entries).
func TestExactFactorValidation(t *testing.T) {
	ctx := context.Background()
	for _, c := range []struct {
		n, t int
		want string
	}{{0, 1, "1 <= t <= n"}, {3, 4, "1 <= t <= n"}, {6, 1, "64-bit key"}} {
		if _, err := NewArena(ctx, cost.SC(0.3, 1.2), c.n, c.t); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("n = %d, t = %d: err = %v, want %q", c.n, c.t, err, c.want)
		}
	}
}

// The graph is the one the cut K = n·(2cc + cd + cio) makes, no smaller:
// a tighter cut still reads the same factors at these cells, but only K
// is proved, and it is what BenchmarkWorkFunctionGraph's rows report.
func TestWorkFunctionGraphSizes(t *testing.T) {
	for _, c := range []struct {
		m             cost.Model
		f             dom.Factory
		states, edges int
	}{
		{cost.SC(0.3, 1.2), dom.StaticFactory, 5352, 32112},
		{cost.SC(0.3, 1.2), dom.DynamicFactory, 5354, 32124},
		{cost.MC(0.5, 1), dom.StaticFactory, 1998, 11988},
		{cost.MC(0.5, 1), dom.DynamicFactory, 2000, 12000},
	} {
		if _, ex := solved(t, arena(t, c.m, 3, 2), c.f); ex.States != c.states || ex.Edges != c.edges {
			t.Errorf("%v: %d states, %d edges; want %d, %d", c.m, ex.States, ex.Edges, c.states, c.edges)
		}
	}
}
