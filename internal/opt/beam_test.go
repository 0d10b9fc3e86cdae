package opt

import (
	"math"
	"math/rand"
	"testing"

	"objalloc/internal/cost"
	"objalloc/internal/model"
)

func TestBeamAboveOptimalAndValid(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	m := cost.SC(0.3, 1.2)
	for iter := 0; iter < 60; iter++ {
		n := 3 + rng.Intn(5)
		tAvail := 1 + rng.Intn(2)
		sched := randomSchedule(rng, n, 2+rng.Intn(40), rng.Float64())
		initial := model.FullSet(tAvail)
		optCost, err := SolveCost(m, sched, initial, tAvail)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Beam(m, sched, initial, tAvail, 32)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cost < optCost-eps {
			t.Fatalf("iter %d: beam %g below OPT %g — illegal schedule?", iter, res.Cost, optCost)
		}
		if !res.Alloc.CorrespondsTo(sched) {
			t.Fatal("beam schedule does not correspond")
		}
		if err := res.Alloc.Validate(initial, tAvail); err != nil {
			t.Fatalf("iter %d: beam schedule invalid: %v", iter, err)
		}
		if priced := cost.ScheduleCost(m, res.Alloc, initial); math.Abs(priced-res.Cost) > eps {
			t.Fatalf("iter %d: beam reported %g but schedule prices at %g", iter, res.Cost, priced)
		}
		if got := res.Alloc.FinalScheme(initial); got != res.FinalScheme {
			t.Fatalf("iter %d: final scheme mismatch", iter)
		}
	}
}

func TestBeamNearOptimal(t *testing.T) {
	// On random instances the beam should track the exact optimum closely
	// (within 10% with width 64 on these sizes).
	rng := rand.New(rand.NewSource(44))
	m := cost.SC(0.3, 1.2)
	var worst float64 = 1
	for iter := 0; iter < 30; iter++ {
		sched := randomSchedule(rng, 6, 40, 0.3)
		initial := model.NewSet(0, 1)
		optCost, err := SolveCost(m, sched, initial, 2)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Beam(m, sched, initial, 2, 64)
		if err != nil {
			t.Fatal(err)
		}
		if optCost > 0 {
			if r := res.Cost / optCost; r > worst {
				worst = r
			}
		}
	}
	if worst > 1.10 {
		t.Errorf("beam within %.1f%% of OPT, want <= 10%%", 100*(worst-1))
	}
}

// Where the DP cannot reach, OPT is bracketed: on random instances of 20
// to 64 processors under SC and MC, every t = 1…3 and a random initial
// scheme, the exact solver refuses, Floor ≤ Price, and Price deflated by
// a relative 1e-9 stays at or below the cost of beam's legal schedule.
func TestBeamScalesBeyondExactLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	models := []cost.Model{cost.SC(0.3, 1.2), cost.SC(0.1, 0.3), cost.MC(0.4, 1.0), cost.MC(0, 1)}
	for iter := 0; iter < 40; iter++ {
		n := 20 + rng.Intn(model.MaxProcessors-19)
		tAvail := 1 + rng.Intn(3)
		sched := randomSchedule(rng, n, 50+rng.Intn(100), rng.Float64()/2)
		var initial model.Set
		for _, p := range rng.Perm(n)[:tAvail+rng.Intn(3)] {
			initial = initial.Add(model.ProcessorID(p))
		}
		if _, err := Compile(sched, initial, tAvail); err == nil {
			t.Fatalf("iter %d: exact solver accepted %d processors", iter, n)
		}
		bd, err := NewBound(sched, initial, tAvail)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range models {
			res, err := Beam(m, sched, initial, tAvail, 8)
			if err != nil {
				t.Fatal(err)
			}
			if floor, lb := bd.Floor(m), bd.Price(m); floor > lb || lb*(1-1e-9) > res.Cost {
				t.Fatalf("iter %d, n %d, t %d, %v: Floor %g, Price %g, beam %g", iter, n, tAvail, m, floor, lb, res.Cost)
			}
		}
	}
}

func TestBeamValidation(t *testing.T) {
	m := cost.SC(0.3, 1.2)
	sched := model.MustParseSchedule("r1 w2")
	// Initial below t, and t = 0: refused in Compile's words.
	for _, c := range []struct {
		initial model.Set
		t       int
	}{{model.NewSet(0), 2}, {model.NewSet(0, 1), 0}} {
		_, err := Beam(m, sched, c.initial, c.t, 8)
		if _, want := Compile(sched, c.initial, c.t); err == nil || want == nil || err.Error() != want.Error() {
			t.Errorf("initial %v, t = %d: Beam error %v, Compile error %v", c.initial, c.t, err, want)
		}
	}
	if _, err := Beam(cost.Model{CC: 2, CD: 1, CIO: 1}, sched, model.NewSet(0, 1), 2, 8); err == nil {
		t.Error("invalid model accepted")
	}
	// Width below 1 is clamped, not rejected.
	if _, err := Beam(m, sched, model.NewSet(0, 1), 2, 0); err != nil {
		t.Errorf("width 0 rejected: %v", err)
	}
}

func TestBeamEmptySchedule(t *testing.T) {
	res, err := Beam(cost.SC(0.3, 1.2), nil, model.NewSet(0, 1), 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != 0 || len(res.Alloc) != 0 || res.FinalScheme != model.NewSet(0, 1) {
		t.Errorf("empty schedule beam: %+v", res)
	}
}

func TestUpcomingReads(t *testing.T) {
	sched := model.MustParseSchedule("r1 r2 r1 w0 r3")
	up := upcomingReads(sched)
	// After position 0 (r1) and before the write: reads r2, r1.
	if up[0][1] != 1 || up[0][2] != 1 || up[0][3] != 0 {
		t.Errorf("up[0] = %v", up[0])
	}
	// After the write at position 3: one read by 3.
	if up[3][3] != 1 || len(up[3]) != 1 {
		t.Errorf("up[3] = %v", up[3])
	}
	// After the last request: nothing.
	if len(up[4]) != 0 {
		t.Errorf("up[4] = %v", up[4])
	}
}

func TestTrimAndPad(t *testing.T) {
	if got := trimTo(model.NewSet(1, 2, 3, 4), 2); got != model.NewSet(1, 2) {
		t.Errorf("trimTo = %v", got)
	}
	if got := trimTo(model.NewSet(1), 2); got != model.NewSet(1) {
		t.Errorf("trimTo small = %v", got)
	}
	if got := padTo(model.NewSet(5), model.FullSet(8), 3); got.Size() != 3 || !got.Contains(5) {
		t.Errorf("padTo = %v", got)
	}
}
