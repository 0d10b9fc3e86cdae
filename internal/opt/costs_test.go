package opt

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"objalloc/internal/cost"
	"objalloc/internal/model"
)

// gridBase is the admissible cells of the 6×6 SC grid, then MC models,
// then free messages (cc = cd = 0) under both.
var gridBase = func() []cost.Model {
	var base []cost.Model
	axis := []float64{0.2, 0.5, 0.8, 1.1, 1.4, 1.7}
	for _, cc := range axis {
		for _, cd := range axis {
			if cc <= cd {
				base = append(base, cost.SC(cc, cd))
			}
		}
	}
	return append(base, cost.MC(0.3, 0.9), cost.MC(0, 1), cost.MC(0, 0), cost.SC(0, 0))
}()

// gridModels returns count valid models: gridBase, cycled.
func gridModels(count int) []cost.Model {
	models := make([]cost.Model, count)
	for j := range models {
		models[j] = gridBase[j%len(gridBase)]
	}
	return models
}

// wholeGrid returns gridModels(count) in whole units, every price ×10.
func wholeGrid(count int) []cost.Model {
	models := gridModels(count)
	for j, m := range models {
		models[j] = cost.Model{CC: math.Round(10 * m.CC), CD: math.Round(10 * m.CD), CIO: 10 * m.CIO}
	}
	return models
}

// costsInstance draws an instance over n sparse processor ids.
func costsInstance(rng *rand.Rand, n, length int, pWrite float64) (model.Schedule, model.Set, int) {
	ids := rng.Perm(model.MaxProcessors)[:n]
	t := 1 + rng.Intn(min(n, 3))
	var initial model.Set
	for _, i := range rng.Perm(n)[:t+rng.Intn(n-t+1)] {
		initial = initial.Add(model.ProcessorID(ids[i]))
	}
	sched := randomSchedule(rng, n, length, pWrite)
	for k := range sched {
		sched[k].Processor = model.ProcessorID(ids[sched[k].Processor])
	}
	return sched, initial, t
}

// The grid pass against its reference: for every model of a list, Costs
// and Cost must return the very bits run — the one-model DP with the full
// transform, which Solve traces back through — returns: at one model, two
// and three (a short pass, and an odd one with its pad column), the
// figure grid's 21, a full chunk, a chunk and a one-model tail, and
// several chunks with a short one.
func TestCostsBitIdenticalToCost(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	ctx := context.Background()
	for iter := 0; iter < 64; iter++ {
		n := 1 + iter%8
		length := []int{0, 1, 7, 30, 80}[rng.Intn(5)]
		pWrite := []float64{0, 1, 0.1, 0.5, 0.9}[iter%5]
		sched, initial, tAvail := costsInstance(rng, n, length, pWrite)
		plan, err := Compile(sched, initial, tAvail)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]float64, len(gridBase))
		for j, m := range gridBase {
			if want[j], _, err = plan.run(ctx, m, nil, new(workspace)); err != nil {
				t.Fatal(err)
			}
			got, err := plan.Cost(ctx, m)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want[j]) {
				t.Fatalf("iter %d, %v: Cost %b, run %b\nt=%d initial=%v sched: %v", iter, m, got, want[j], tAvail, initial, sched)
			}
		}
		chunk := ModelChunk(len(plan.ids))
		for _, count := range []int{1, 2, 3, 21, chunk, chunk + 1, 2*chunk + 3} {
			got, err := plan.Costs(ctx, gridModels(count))
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != count {
				t.Fatalf("Costs returned %d costs for %d models", len(got), count)
			}
			for j, c := range got {
				if w := want[j%len(want)]; math.Float64bits(c) != math.Float64bits(w) {
					t.Fatalf("iter %d, model %d of %d, %v: Costs %b, run %b\nt=%d initial=%v sched: %v",
						iter, j, count, gridBase[j%len(want)], c, w, tAvail, initial, sched)
				}
			}
		}
	}
}

func TestCostsEmptyModelList(t *testing.T) {
	plan, err := Compile(model.MustParseSchedule("r2 w0"), model.NewSet(0, 1), 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := plan.Costs(context.Background(), nil)
	if err != nil || len(got) != 0 {
		t.Errorf("Costs(nil) = %v, %v", got, err)
	}
}

// An invalid model anywhere in the list fails the whole call with the
// error Cost gives for that model, before any pass runs: Validate's, not
// "no feasible allocation schedule" (which a non-finite price used to
// produce by making every cost +Inf or NaN).
func TestCostsInvalidModel(t *testing.T) {
	plan, err := Compile(model.MustParseSchedule("r2 w0 r3"), model.NewSet(0, 1), 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, bad := range []cost.Model{cost.SC(2, 1), cost.SC(-0.1, 1),
		{CC: 0.5, CD: math.Inf(1)}, {CC: math.NaN()}, {CIO: math.NaN()}, {CIO: math.Inf(1)}} {
		_, want := plan.Cost(ctx, bad)
		if verr := bad.Validate(); verr == nil || want == nil || want.Error() != verr.Error() {
			t.Fatalf("%+v: Cost error %v, Validate error %v", bad, want, verr)
		}
		for _, at := range []int{0, 3, 20} {
			models := gridModels(21)
			models[at] = bad
			got, err := plan.Costs(ctx, models)
			if err == nil || err.Error() != want.Error() {
				t.Errorf("bad model %v at %d: Costs error %v, Cost error %v", bad, at, err, want)
			}
			if got != nil {
				t.Errorf("bad model %v at %d: partial result %v", bad, at, got)
			}
		}
	}
}

// A context that ends mid-pass ends the pass: n = 8 and 20 000 requests
// are most of a second of work for 21 models, the deadline 10 ms.
func TestCostsCancelledMidPass(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	plan, err := Compile(randomSchedule(rng, 8, 20000, 0.4), model.NewSet(0, 1), 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	got, err := plan.Costs(ctx, gridModels(21))
	if !errors.Is(err, context.DeadlineExceeded) || got != nil {
		t.Errorf("Costs past its deadline = %v, %v; want nil, %v", got, err, context.DeadlineExceeded)
	}
}

// BenchmarkCosts prices a plan of n processors and L requests (t = 2)
// under a list of models, two ways: Costs, the grid pass, and run, the
// one-model DP with the full transform, once per model. The shapes are
// the bench-shaped sweep's (n = 5, the 21 admissible cells of the 6×6
// figure-1 grid), the smallest universe an exhaustive enumeration of
// schedules would price (n = 3, L = 8), a short pass (n = 12, two models)
// and one model from n = 3 to MaxUniverse, where Cost's grid pass stands
// against the DP it replaced (DESIGN §5). Then the three nemesis families
// of the sweep's battery as it prices them, at whole prices (the grid's
// ×10) and at the model counts their leads take on the 6×6 grid: the
// outsider rounds (n = 5) at 6, the ping-pong (n = 3) at 15 and the read
// run (n = 3) at 21, all three through the periodic pass.
func BenchmarkCosts(b *testing.B) {
	ctx := context.Background()
	type shape struct {
		name   string
		plan   *Plan
		models []cost.Model
	}
	var shapes []shape
	for _, s := range []struct{ n, length, models int }{
		{5, 60, 21}, {3, 8, 21}, {12, 60, 2},
		{3, 60, 1}, {5, 60, 1}, {12, 60, 1}, {16, 20, 1},
	} {
		rng := rand.New(rand.NewSource(1))
		sched := randomSchedule(rng, s.n, s.length, 0.3)
		for k := range s.n { // every processor is in the universe
			sched[k].Processor = model.ProcessorID(k)
		}
		plan, err := Compile(sched, model.NewSet(0, 1), 2)
		if err != nil {
			b.Fatal(err)
		}
		shapes = append(shapes, shape{fmt.Sprintf("n=%d,L=%d,models=%d", s.n, s.length, s.models), plan, gridModels(s.models)})
	}
	for _, s := range []struct {
		name, period string
		models       int
	}{{"outsider-rounds", "r2 r3 r4 w0", 6}, {"ping-pong", "w0 r2", 15}, {"read-run", "r2", 21}} {
		var sched model.Schedule
		for range 60 {
			sched = append(sched, model.MustParseSchedule(s.period)...)
		}
		plan, err := Compile(sched, model.NewSet(0, 1), 2)
		if err != nil {
			b.Fatal(err)
		}
		models := wholeGrid(s.models)
		shapes = append(shapes, shape{fmt.Sprintf("%s,n=%d,L=%d,models=%d", s.name, len(plan.ids), len(sched), s.models), plan, models})
	}
	for _, s := range shapes {
		plan, models, name := s.plan, s.models, s.name
		b.Run(name+"/Costs", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := plan.Costs(ctx, models); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/run", func(b *testing.B) {
			b.ReportAllocs()
			ws := new(workspace)
			for i := 0; i < b.N; i++ {
				for _, m := range models {
					if _, _, err := plan.run(ctx, m, nil, ws); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// A pass may be handed a workspace in any state: here one workspace serves
// plans of three universe sizes, each under lists of one model, two, the
// figure grid's 21 and a chunk and one more, and is filled with NaN
// before every use — a float read before the pass wrote it turns a cost
// into NaN. Every cost must carry the bits of a pass over fresh memory.
// The last two plans are periodic and priced at whole prices, so they
// take the periodic pass, whose kept boundaries are poisoned too (their
// hashes with a value no row hashes to, NaN's bits).
func TestWorkspaceReuseIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ctx := context.Background()
	var plans []*Plan
	for _, n := range []int{3, 5, 8} {
		sched, initial, tAvail := costsInstance(rng, n, 40, 0.4)
		plan, err := Compile(sched, initial, tAvail)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, plan)
	}
	for _, period := range []string{"r2 r3 r4 w0", "w0 r2"} {
		var sched model.Schedule
		for range 30 {
			sched = append(sched, model.MustParseSchedule(period)...)
		}
		plan, err := Compile(sched, model.NewSet(0, 1), 2)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, plan)
	}
	ws := new(workspace)
	poison := func() {
		for _, buf := range [][]float64{ws.buf[:cap(ws.buf)], ws.rows[:cap(ws.rows)]} {
			for i := range buf {
				buf[i] = math.NaN()
			}
		}
		keys := ws.keys[:cap(ws.keys)]
		for i := range keys {
			keys[i] = math.Float64bits(math.NaN())
		}
	}
	for round := 0; round < 2; round++ { // the second round never grows ws
		for k, plan := range plans {
			n := len(plan.ids)
			for _, count := range []int{1, 2, 21, ModelChunk(n) + 1} {
				models := gridModels(count)
				if k >= 3 {
					models = wholeGrid(count)
					if _, ends := plan.stretches(models); ends < 2 {
						t.Fatalf("plan %d does not take the periodic pass", k)
					}
				}
				got := make([]float64, count)
				poison()
				if err := plan.costs(ctx, models, ws, got); err != nil {
					t.Fatal(err)
				}
				for j, c := range got {
					want, _, err := plan.run(ctx, models[j], nil, new(workspace))
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(c) != math.Float64bits(want) {
						t.Fatalf("round %d, n = %d, model %d of %d: %b out of a poisoned workspace, %b out of a fresh one",
							round, n, j, count, c, want)
					}
				}
			}
		}
	}
	// The traceback reads the same rows.
	plan := plans[1]
	parents := make([]uint32, len(plan.reqs)*plan.size())
	poison()
	best, final, err := plan.run(ctx, gridBase[0], parents, ws)
	if err != nil {
		t.Fatal(err)
	}
	want, err := plan.Solve(ctx, gridBase[0])
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(best) != math.Float64bits(want.Cost) || plan.expand(final) != want.FinalScheme {
		t.Errorf("run out of a poisoned workspace = %b ending in %v, Solve = %b ending in %v", best, plan.expand(final), want.Cost, want.FinalScheme)
	}
}

// wholeModels draws count models with whole prices, cc <= cd, a third of
// them mobile (cio = 0).
func wholeModels(rng *rand.Rand, count int) []cost.Model {
	models := make([]cost.Model, count)
	for j := range models {
		cc := float64(rng.Intn(12))
		models[j] = cost.Model{CC: cc, CD: cc + float64(rng.Intn(25))}
		if rng.Intn(3) != 0 {
			models[j].CIO = float64(1 + rng.Intn(20))
		}
	}
	return models
}

// periodicInstance draws a period of 1–6 requests over n <= 6 sparse ids
// and repeats it 1–40 times, with 1 <= t <= n.
func periodicInstance(rng *rand.Rand) (model.Schedule, model.Set, int) {
	n := 1 + rng.Intn(6)
	period, initial, t := costsInstance(rng, n, 1+rng.Intn(6), []float64{0, 0.3, 0.6}[rng.Intn(3)])
	var sched model.Schedule
	for range 1 + rng.Intn(40) {
		sched = append(sched, period...)
	}
	return sched, initial, t
}

// The periodic pass against run, bit for bit: random periods repeated,
// priced under lists of whole SC and MC models. Most instances take the
// periodic pass (stretches says which); the rest take the plain walk and
// must agree all the same. First, three writes whose optimum cycles over
// two periods (see Rate) repeated 6 to 45 times: in stretches of three
// periods its rows cycle over two stretches, so the end falls mid-cycle
// as often as not.
func TestPeriodicPassIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	ctx := context.Background()
	pairs, periodic := 0, 0
	for iter := 0; iter < 1440; iter++ {
		var sched model.Schedule
		var initial model.Set
		var tAvail int
		var models []cost.Model
		if iter < 40 {
			for range 6 + iter {
				sched = append(sched, model.MustParseSchedule("w2 w1 w0")...)
			}
			initial, tAvail = model.NewSet(0, 1), 2
			models = append(wholeModels(rng, 3), cost.Model{CC: 1, CD: 4, CIO: 10})
		} else {
			sched, initial, tAvail = periodicInstance(rng)
			models = wholeModels(rng, []int{1, 2, 5, 21}[iter%4])
		}
		plan, err := Compile(sched, initial, tAvail)
		if err != nil {
			t.Fatal(err)
		}
		if _, ends := plan.stretches(models); ends >= 2 {
			periodic++
		}
		got, err := plan.Costs(ctx, models)
		if err != nil {
			t.Fatal(err)
		}
		for j, m := range models {
			want, _, err := plan.run(ctx, m, nil, new(workspace))
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got[j]) != math.Float64bits(want) {
				t.Fatalf("iter %d, %v: Costs %v, run %v\nt=%d initial=%v period %d of %d: %v",
					iter, m, got[j], want, tAvail, initial, plan.period, len(sched), sched)
			}
			pairs++
		}
	}
	if periodic < 700 {
		t.Errorf("only %d of 1440 instances took the periodic pass", periodic)
	}
	t.Logf("%d (plan, model) pairs, %d of 1440 plans periodic", pairs, periodic)
}

// What the periodic pass takes and what it leaves to the plain walk.
func TestStretches(t *testing.T) {
	whole := []cost.Model{{CC: 2, CD: 5, CIO: 10}, {CC: 1, CD: 1, CIO: 0}}
	for _, c := range []struct {
		reps          int
		period        string
		models        []cost.Model
		stretch, ends int
	}{
		{60, "r2", whole, 10, 6},                                              // SA's read run: 10 periods a stretch
		{60, "r2 r3 r4 w0", whole, 8, 30},                                     // DA's outsider rounds
		{60, "r0 w2", whole, 8, 15},                                           // a ping-pong
		{7, "r2 w0", whole, 0, 0},                                             // no divisor of 7 spans 8 requests
		{1, "r2 r3 r4 w0 r2 r3 r4 w0 w1", whole, 0, 0},                        // one repetition
		{60, "r2 w0", []cost.Model{cost.SC(0.5, 1)}, 0, 0},                    // a price that is not whole
		{60, "r2 w0", []cost.Model{{CC: 1 << 45, CD: 1 << 45, CIO: 1}}, 0, 0}, // sums past 2^52
	} {
		var sched model.Schedule
		for range c.reps {
			sched = append(sched, model.MustParseSchedule(c.period)...)
		}
		plan, err := Compile(sched, model.NewSet(0, 1), 2)
		if err != nil {
			t.Fatal(err)
		}
		if stretch, ends := plan.stretches(c.models); stretch != c.stretch || ends != c.ends {
			t.Errorf("%d × %q under %v: stretches %d × %d, want %d × %d", c.reps, c.period, c.models, ends, stretch, c.ends, c.stretch)
		}
	}
	for _, c := range []struct {
		sched  string
		period int
	}{
		{"", 0}, {"r1", 1}, {"r1 r1 r1", 1}, {"r1 w2 r1 w2", 2}, {"r1 w2 r1", 3}, {"r1 r1 w1 r1 r1 w1", 3}, {"r1 w1", 2},
	} {
		plan, err := Compile(model.MustParseSchedule(c.sched), model.NewSet(0, 1), 2)
		if err != nil {
			t.Fatal(err)
		}
		if plan.period != c.period {
			t.Errorf("%q: period %d, want %d", c.sched, plan.period, c.period)
		}
	}
	// Past the prefix function's stack buffer of 256 requests.
	var long model.Schedule
	for range 150 {
		long = append(long, model.MustParseSchedule("r1 w2 r1")...)
	}
	for _, c := range []struct {
		sched  model.Schedule
		period int
	}{{long, 3}, {append(long, model.W(2)), 451}} {
		plan, err := Compile(c.sched, model.NewSet(0, 1), 2)
		if err != nil {
			t.Fatal(err)
		}
		if plan.period != c.period {
			t.Errorf("%d requests: period %d, want %d", len(c.sched), plan.period, c.period)
		}
	}
}

// A cancelled context aborts a periodic pass too, as the plain walk's
// TestCostsCancelledMidPass shows for that one.
func TestPeriodicPassCancelled(t *testing.T) {
	var sched model.Schedule
	for range 60 {
		sched = append(sched, model.R(5))
	}
	plan, err := Compile(sched, model.NewSet(0, 1), 2)
	if err != nil {
		t.Fatal(err)
	}
	models := []cost.Model{{CC: 0, CD: 1, CIO: 2000}}
	if _, ends := plan.stretches(models); ends < 2 {
		t.Fatal("the read run does not take the periodic pass")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if got, err := plan.Costs(ctx, models); !errors.Is(err, context.Canceled) || got != nil {
		t.Errorf("Costs under a cancelled context = %v, %v; want nil, %v", got, err, context.Canceled)
	}
}
