package opt

import (
	"context"
	"errors"
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
// must return the very bits Cost returns — at one model (the one-model
// pass), a full chunk, a chunk and a one-model tail, and several chunks
// with a short one.
func TestCostsBitIdenticalToCost(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	ctx := context.Background()
	for iter := 0; iter < 60; iter++ {
		n := 2 + iter%6
		length := []int{0, 1, 7, 30, 80}[rng.Intn(5)]
		pWrite := []float64{0, 1, 0.1, 0.5, 0.9}[iter%5]
		sched, initial, tAvail := costsInstance(rng, n, length, pWrite)
		plan, err := Compile(sched, initial, tAvail)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]float64, len(gridBase))
		for j, m := range gridBase {
			if want[j], err = plan.Cost(ctx, m); err != nil {
				t.Fatal(err)
			}
		}
		chunk := ModelChunk(len(plan.ids))
		for _, count := range []int{1, chunk, chunk + 1, 2*chunk + 3} {
			got, err := plan.Costs(ctx, gridModels(count))
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != count {
				t.Fatalf("Costs returned %d costs for %d models", len(got), count)
			}
			for j, c := range got {
				if w := want[j%len(want)]; math.Float64bits(c) != math.Float64bits(w) {
					t.Fatalf("iter %d, model %d of %d, %v: Costs %b, Cost %b\nt=%d initial=%v sched: %v",
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

// BenchmarkCosts prices one n = 5 plan of 60 requests under the 21
// admissible cells of the 6×6 figure-1 grid: cell by cell through Cost,
// in one grid pass, and — the other side of the decision recorded in
// DESIGN §5 — one model through each kernel.
func BenchmarkCosts(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	plan, err := Compile(randomSchedule(rng, 5, 60, 0.3), model.NewSet(0, 1), 2)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	models := gridModels(21)
	b.Run("Cost/models=21", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, m := range models {
				if _, err := plan.Cost(ctx, m); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("Costs/models=21", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := plan.Costs(ctx, models); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Cost/models=1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := plan.Cost(ctx, models[0]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("costsPass/models=1", func(b *testing.B) {
		b.ReportAllocs()
		ws, out := new(workspace), make([]float64, 1)
		for i := 0; i < b.N; i++ {
			if err := plan.costsPass(ctx, models[:1], ws, out); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// A pass may be handed a workspace in any state: here one workspace serves
// plans of three universe sizes, each under lists of one model, two, the
// figure grid's 21 and a chunk and one more, and is filled with NaN
// before every use — a float read before the pass wrote it turns a cost
// into NaN. Every cost must carry the bits of a pass over fresh memory.
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
	ws := new(workspace)
	poison := func() {
		buf := ws.buf[:cap(ws.buf)]
		for i := range buf {
			buf[i] = math.NaN()
		}
	}
	for round := 0; round < 2; round++ { // the second round never grows ws
		for _, plan := range plans {
			n := len(plan.ids)
			for _, count := range []int{1, 2, 21, ModelChunk(n) + 1} {
				models := gridModels(count)
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
