package opt

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"objalloc/internal/cost"
	"objalloc/internal/dom"
	"objalloc/internal/model"
)

const eps = 1e-9

// bruteForce enumerates every legal, t-available allocation schedule over
// the given universe and returns the minimum cost. Exponential — tiny
// instances only. It enumerates *all* execution sets (not only singletons
// for reads), so it independently validates the DP's pruning arguments.
func bruteForce(m cost.Model, sched model.Schedule, initial model.Set, t int, univ model.Set) float64 {
	best := math.Inf(1)
	var rec func(k int, scheme model.Set, acc float64)
	rec = func(k int, scheme model.Set, acc float64) {
		if acc >= best {
			return
		}
		if k == len(sched) {
			best = acc
			return
		}
		q := sched[k]
		univ.Subsets(func(x model.Set) {
			if x.IsEmpty() {
				return
			}
			if q.IsRead() {
				if !x.Intersects(scheme) {
					return
				}
				for _, saving := range []bool{false, true} {
					st := model.Step{Request: q, Exec: x, Saving: saving}
					ns := model.NextScheme(scheme, st)
					if ns.Size() < t {
						continue
					}
					rec(k+1, ns, acc+cost.StepCost(m, st, scheme))
				}
			} else {
				if x.Size() < t {
					return
				}
				st := model.Step{Request: q, Exec: x}
				rec(k+1, x, acc+cost.StepCost(m, st, scheme))
			}
		})
	}
	rec(0, initial, 0)
	return best
}

func randomSchedule(rng *rand.Rand, n, length int, pWrite float64) model.Schedule {
	s := make(model.Schedule, length)
	for i := range s {
		p := model.ProcessorID(rng.Intn(n))
		if rng.Float64() < pWrite {
			s[i] = model.W(p)
		} else {
			s[i] = model.R(p)
		}
	}
	return s
}

func TestSolveCostMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	models := []cost.Model{
		cost.SC(0.3, 1.2), cost.SC(0.1, 0.3), cost.SC(1.5, 1.5), cost.SC(0, 0),
		cost.MC(0.3, 1.2), cost.MC(1, 1),
	}
	for iter := 0; iter < 120; iter++ {
		n := 3 + rng.Intn(2) // 3 or 4 processors
		tAvail := 1 + rng.Intn(2)
		length := 1 + rng.Intn(5)
		m := models[rng.Intn(len(models))]
		sched := randomSchedule(rng, n, length, 0.4)
		initial := model.FullSet(tAvail)
		univ := model.FullSet(n).Union(initial)

		want := bruteForce(m, sched, initial, tAvail, univ)
		got, err := SolveCost(m, sched, initial, tAvail)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if math.Abs(got-want) > eps {
			t.Fatalf("iter %d: SolveCost = %g, brute force = %g\nmodel %v t=%d initial=%v sched: %v",
				iter, got, want, m, tAvail, initial, sched)
		}
	}
}

func TestSolveReconstructionIsConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	models := []cost.Model{cost.SC(0.3, 1.2), cost.MC(0.5, 1.5), cost.SC(0.05, 0.2)}
	for iter := 0; iter < 80; iter++ {
		n := 2 + rng.Intn(6)
		tAvail := 1 + rng.Intn(2)
		if tAvail > n {
			tAvail = n
		}
		sched := randomSchedule(rng, n, 1+rng.Intn(30), 0.3)
		initial := model.FullSet(tAvail)
		m := models[rng.Intn(len(models))]

		res, err := Solve(m, sched, initial, tAvail)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if !res.Alloc.CorrespondsTo(sched) {
			t.Fatalf("iter %d: reconstruction does not correspond to schedule", iter)
		}
		if err := res.Alloc.Validate(initial, tAvail); err != nil {
			t.Fatalf("iter %d: reconstructed schedule invalid: %v", iter, err)
		}
		priced := cost.ScheduleCost(m, res.Alloc, initial)
		if math.Abs(priced-res.Cost) > eps {
			t.Fatalf("iter %d: reconstructed cost %g != reported %g\nalloc: %v", iter, priced, res.Cost, res.Alloc)
		}
		if got := res.Alloc.FinalScheme(initial); got != res.FinalScheme {
			t.Fatalf("iter %d: FinalScheme = %v, alloc says %v", iter, res.FinalScheme, got)
		}
		// Cost-only solver agrees.
		co, err := SolveCost(m, sched, initial, tAvail)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(co-res.Cost) > eps {
			t.Fatalf("iter %d: SolveCost %g != Solve %g", iter, co, res.Cost)
		}
	}
}

// The optimum never exceeds the cost of any online algorithm — the defining
// property of the yardstick.
func TestOptimalLowerBoundsOnlineAlgorithms(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	models := []cost.Model{cost.SC(0.3, 1.2), cost.SC(0.02, 0.1), cost.MC(0.4, 1.0)}
	factories := []dom.Factory{dom.StaticFactory, dom.DynamicFactory}
	for iter := 0; iter < 60; iter++ {
		n := 3 + rng.Intn(6)
		tAvail := 2
		sched := randomSchedule(rng, n, 5+rng.Intn(60), rng.Float64())
		initial := model.FullSet(tAvail)
		m := models[rng.Intn(len(models))]
		optCost, err := SolveCost(m, sched, initial, tAvail)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range factories {
			las, err := dom.RunFactory(f, initial, tAvail, sched)
			if err != nil {
				t.Fatal(err)
			}
			algCost := cost.ScheduleCost(m, las, initial)
			if algCost < optCost-eps {
				t.Fatalf("iter %d: online algorithm beat OPT: %g < %g\nsched: %v", iter, algCost, optCost, sched)
			}
		}
	}
}

func TestWorkedExampleOptimal(t *testing.T) {
	// §1.3: r1 r1 r2 w2 r2 r2 r2, initial {1}, t = 1. The described
	// dynamic strategy (write moves the copy to 2) is optimal when
	// communication is cheap relative to I/O savings; OPT must cost no
	// more than that strategy.
	sched := model.MustParseSchedule("r1 r1 r2 w2 r2 r2 r2")
	initial := model.NewSet(1)
	m := cost.SC(0.25, 1.0)

	dynamic := model.AllocSchedule{
		{Request: model.R(1), Exec: model.NewSet(1)},
		{Request: model.R(1), Exec: model.NewSet(1)},
		{Request: model.R(2), Exec: model.NewSet(1)},
		{Request: model.W(2), Exec: model.NewSet(2)},
		{Request: model.R(2), Exec: model.NewSet(2)},
		{Request: model.R(2), Exec: model.NewSet(2)},
		{Request: model.R(2), Exec: model.NewSet(2)},
	}
	dynCost := cost.ScheduleCost(m, dynamic, initial)
	optCost, err := SolveCost(m, sched, initial, 1)
	if err != nil {
		t.Fatal(err)
	}
	if optCost > dynCost+eps {
		t.Errorf("OPT = %g exceeds the §1.3 dynamic strategy = %g", optCost, dynCost)
	}
	if optCost <= 0 {
		t.Errorf("OPT = %g, expected positive", optCost)
	}
}

func TestErrorCases(t *testing.T) {
	sched := model.MustParseSchedule("r1 w2")
	if _, err := SolveCost(cost.SC(0.3, 1), sched, model.NewSet(1), 2); err == nil {
		t.Error("initial below t accepted")
	}
	if _, err := SolveCost(cost.SC(0.3, 1), sched, model.NewSet(1), 0); err == nil {
		t.Error("t = 0 accepted")
	}
	if _, err := SolveCost(cost.SC(2, 1), sched, model.NewSet(1, 2), 2); err == nil {
		t.Error("cc > cd model accepted")
	}
	// Too many distinct processors for the exact solver.
	big := make(model.Schedule, 0, MaxUniverse+1)
	for i := 0; i <= MaxUniverse; i++ {
		big = append(big, model.R(model.ProcessorID(i)))
	}
	if _, err := SolveCost(cost.SC(0.3, 1), big, model.NewSet(0, 1), 2); err == nil {
		t.Error("oversized universe accepted")
	}
}

func TestSparseProcessorIDs(t *testing.T) {
	// Processor ids need not be contiguous: the universe compresses them.
	sched := model.Schedule{model.R(40), model.W(63), model.R(40), model.R(7)}
	initial := model.NewSet(7, 63)
	got, err := SolveCost(cost.SC(0.3, 1.2), sched, initial, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Same instance with ids renamed to 0..2 must cost the same.
	renamed := model.Schedule{model.R(1), model.W(2), model.R(1), model.R(0)}
	want, err := SolveCost(cost.SC(0.3, 1.2), renamed, model.NewSet(0, 2), 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > eps {
		t.Errorf("sparse ids cost %g, dense ids cost %g", got, want)
	}
}

func TestEmptySchedule(t *testing.T) {
	res, err := Solve(cost.SC(0.3, 1.2), nil, model.NewSet(0, 1), 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != 0 || len(res.Alloc) != 0 || res.FinalScheme != model.NewSet(0, 1) {
		t.Errorf("empty schedule: %+v", res)
	}
}

func TestAllReadsFromMemberIsFreeInMC(t *testing.T) {
	// In the MC model local reads cost zero; a schedule of reads from a
	// scheme member has optimal cost 0.
	sched := model.MustParseSchedule("r0 r0 r1 r0")
	got, err := SolveCost(cost.MC(0.5, 1.5), sched, model.NewSet(0, 1), 2)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("MC member-read schedule OPT = %g, want 0", got)
	}
}

func TestOptimalMonotoneInScheduleLength(t *testing.T) {
	// Appending a request never lowers the optimal cost (costs are
	// non-negative).
	rng := rand.New(rand.NewSource(31))
	m := cost.SC(0.3, 1.2)
	for iter := 0; iter < 30; iter++ {
		sched := randomSchedule(rng, 5, 10, 0.4)
		initial := model.NewSet(0, 1)
		prev := 0.0
		for k := 1; k <= len(sched); k++ {
			c, err := SolveCost(m, sched[:k], initial, 2)
			if err != nil {
				t.Fatal(err)
			}
			if c < prev-eps {
				t.Fatalf("iter %d: OPT decreased from %g to %g at prefix %d", iter, prev, c, k)
			}
			prev = c
		}
	}
}

func BenchmarkSolveCost(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	sched := randomSchedule(rng, 10, 200, 0.3)
	initial := model.NewSet(0, 1)
	m := cost.SC(0.3, 1.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveCost(m, sched, initial, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// Invariance: renaming processors permutes nothing essential — the optimal
// cost is identical under any relabeling of the ids.
func TestOptimalRenamingInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	m := cost.SC(0.3, 1.2)
	for iter := 0; iter < 30; iter++ {
		n := 3 + rng.Intn(4)
		sched := randomSchedule(rng, n, 2+rng.Intn(25), 0.3)
		initial := model.NewSet(0, 1)
		base, err := SolveCost(m, sched, initial, 2)
		if err != nil {
			t.Fatal(err)
		}
		// Apply a random permutation of 0..n-1.
		perm := rng.Perm(n)
		mapped := make(model.Schedule, len(sched))
		for i, q := range sched {
			mapped[i] = model.Request{Op: q.Op, Processor: model.ProcessorID(perm[q.Processor])}
		}
		mappedInitial := model.NewSet(model.ProcessorID(perm[0]), model.ProcessorID(perm[1]))
		renamed, err := SolveCost(m, mapped, mappedInitial, 2)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(base-renamed) > eps {
			t.Fatalf("iter %d: renaming changed OPT: %g -> %g", iter, base, renamed)
		}
	}
}

// Invariance: scaling every price by a positive constant scales the
// optimal cost by the same constant (the optimizer's decisions depend only
// on price ratios).
func TestOptimalPriceScaling(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for iter := 0; iter < 30; iter++ {
		sched := randomSchedule(rng, 5, 2+rng.Intn(25), 0.3)
		initial := model.NewSet(0, 1)
		m := cost.Model{CC: 0.3, CD: 1.2, CIO: 1}
		base, err := SolveCost(m, sched, initial, 2)
		if err != nil {
			t.Fatal(err)
		}
		k := 0.25 + 3*rng.Float64()
		scaled := cost.Model{CC: k * m.CC, CD: k * m.CD, CIO: k * m.CIO}
		got, err := SolveCost(scaled, sched, initial, 2)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-k*base) > 1e-6*(1+k*base) {
			t.Fatalf("iter %d: scaling by %g: got %g, want %g", iter, k, got, k*base)
		}
	}
}

// Monotonicity: a stricter availability constraint can only cost more.
func TestOptimalMonotoneInT(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	m := cost.SC(0.3, 1.2)
	for iter := 0; iter < 30; iter++ {
		sched := randomSchedule(rng, 5, 2+rng.Intn(25), 0.4)
		prev := 0.0
		for _, tAvail := range []int{1, 2, 3} {
			c, err := SolveCost(m, sched, model.FullSet(3), tAvail)
			if err != nil {
				t.Fatal(err)
			}
			if c < prev-eps {
				t.Fatalf("iter %d: OPT decreased from %g to %g as t rose to %d", iter, prev, c, tAvail)
			}
			prev = c
		}
	}
}

// The bound against the DP, over random schedules and random initial
// schemes under SC, MC and edge models, n ≤ 7 and every t = 1…n: the
// closed form Floor lies below the interval relaxation Price, and Price
// deflated by a relative 1e-9 (what a sweep prunes with) never exceeds
// the optimum — and equals it where the relaxation leaves nothing out.
func TestBoundBelowCost(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	ctx := context.Background()
	models := []cost.Model{cost.SC(0.2, 0.2), cost.SC(0.5, 1.7), cost.SC(0, 0), cost.MC(0.3, 0.9), cost.MC(0, 1), cost.MC(1.4, 1.7), cost.MC(0, 0)}
	for iter := 0; iter < 200; iter++ {
		n := 1 + rng.Intn(7)
		sched := randomSchedule(rng, n, rng.Intn(40), rng.Float64())
		for tAvail := 1; tAvail <= n; tAvail++ {
			var initial model.Set
			for _, p := range rng.Perm(n)[:tAvail+rng.Intn(n-tAvail+1)] {
				initial = initial.Add(model.ProcessorID(p))
			}
			bd, err := NewBound(sched, initial, tAvail)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := Compile(sched, initial, tAvail)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range models {
				got, err := plan.Cost(ctx, m)
				if err != nil {
					t.Fatal(err)
				}
				floor, lb := bd.Floor(m), bd.Price(m)
				if floor > lb {
					t.Fatalf("iter %d: Floor %g above Price %g under %v", iter, floor, lb, m)
				}
				if lb*(1-1e-9) > got {
					t.Fatalf("iter %d: bound %g above optimum %g under %v, t=%d, initial %v\nsched: %v", iter, lb, got, m, tAvail, initial, sched)
				}
			}
		}
	}

	// BLIS Type-1 rows where the relaxation is exact: a read run from
	// outside the initial scheme — SA's nemesis — which the optimum reads
	// remotely or saves once, and one processor under MC at t = 1, which
	// reads and writes its own copy for nothing (the bound is 0 there).
	readRun := make(model.Schedule, 60)
	for i := range readRun {
		readRun[i] = model.R(3)
	}
	for _, c := range []struct {
		sched   model.Schedule
		initial model.Set
		tAvail  int
		models  []cost.Model
	}{
		{readRun[:1], model.FullSet(2), 2, models},
		{readRun[:5], model.FullSet(2), 1, models},
		{readRun, model.FullSet(2), 2, models},
		{model.MustParseSchedule("r0 w0 r0 r0 w0 w0 r0"), model.NewSet(0), 1, []cost.Model{cost.MC(0.3, 0.9), cost.MC(0, 1)}},
	} {
		bd, err := NewBound(c.sched, c.initial, c.tAvail)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range c.models {
			got, err := SolveCost(m, c.sched, c.initial, c.tAvail)
			if err != nil {
				t.Fatal(err)
			}
			if lb := bd.Price(m); lb*(1-1e-9) > got || lb < got*(1-1e-9) {
				t.Errorf("%v under %v, t=%d: bound %g, optimum %g, want equal", c.sched, m, c.tAvail, lb, got)
			}
		}
	}
}

// CheckInstance refuses exactly what Compile refuses, with Compile's
// error, and NewBound refuses the same but for a universe beyond the DP's.
func TestNewBoundRefusesWhatCompileRefuses(t *testing.T) {
	big := make(model.Schedule, 0, MaxUniverse+1)
	for i := 0; i <= MaxUniverse; i++ {
		big = append(big, model.W(model.ProcessorID(i)))
	}
	sched := model.MustParseSchedule("r1 w2")
	for _, c := range []struct {
		name    string
		sched   model.Schedule
		initial model.Set
		t       int
	}{
		{"t = 0", sched, model.NewSet(1), 0},
		{"initial below t", sched, model.NewSet(1), 2},
		{"oversized universe", big, model.NewSet(0, 1), 2},
		{"universe of the limit", big[:MaxUniverse], model.NewSet(0, 1), 2},
		{"initial outside the schedule", sched, model.NewSet(3, 4, 5), 3},
	} {
		_, want := Compile(c.sched, c.initial, c.t)
		if got := CheckInstance(c.initial, c.t, c.sched.Processors().Union(c.initial).Size()); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: CheckInstance error %v, Compile error %v", c.name, got, want)
		}
		if c.name == "oversized universe" {
			want = nil
		}
		if _, got := NewBound(c.sched, c.initial, c.t); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: NewBound error %v, want %v", c.name, got, want)
		}
	}
}
