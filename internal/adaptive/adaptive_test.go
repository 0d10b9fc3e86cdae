package adaptive

import (
	"math/rand"
	"testing"

	"objalloc/internal/adversary"
	"objalloc/internal/cost"
	"objalloc/internal/dom"
	"objalloc/internal/model"
	"objalloc/internal/workload"
)

func initialScheme(t int) model.Set {
	var s model.Set
	for k := 0; k < t; k++ {
		s = s.Add(model.ProcessorID(k))
	}
	return s
}

type testCase struct {
	Name  string
	Sched model.Schedule
}

// testBattery is a small mixed battery: adversarial families plus seeded
// stochastic workloads.
func testBattery(t *testing.T, n int) []testCase {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	uni, err := workload.FromSpec(rng, "uniform:n=6,len=200,pwrite=0.4")
	if err != nil {
		t.Fatal(err)
	}
	hot, err := workload.FromSpec(rng, "hotspot:n=6,len=200,pwrite=0.1")
	if err != nil {
		t.Fatal(err)
	}
	out := model.ProcessorID(n - 1)
	return []testCase{
		{Name: "mixflip", Sched: adversary.MixFlip(out, 0, 40, 3)},
		{Name: "readrun", Sched: adversary.SAPunisher(out, 80)},
		{Name: "pingpong", Sched: adversary.PingPong(0, out, 40)},
		{Name: "uniform", Sched: uni},
		{Name: "hotspot", Sched: hot},
	}
}

// A controller with switching disabled is the pure protocol: identical
// total cost, identical integer accounting, no transitions, on every
// schedule of the battery.
func TestPinnedReproducesFixedProtocols(t *testing.T) {
	const n, avail = 6, 2
	initial := initialScheme(avail)
	m := cost.SC(0.25, 1)
	fixtures := []struct {
		start   string
		spec    Spec
		factory dom.Factory
	}{
		{"sa", Spec{Window: Disabled, Start: "sa"}, dom.StaticFactory},
		{"da", Spec{Window: Disabled, Start: "da"}, dom.DynamicFactory},
		{"sa", Spec{Hysteresis: Disabled, Start: "sa"}, dom.StaticFactory},
		{"da", Spec{Hysteresis: Disabled, Start: "da"}, dom.DynamicFactory},
	}
	for _, fx := range fixtures {
		for _, cs := range testBattery(t, n) {
			ctrl, err := New(m, fx.spec, initial, avail)
			if err != nil {
				t.Fatal(err)
			}
			if st := ctrl.WindowStat(); st.Adapting {
				t.Fatalf("%s/%s: pinned controller reports Adapting", fx.start, cs.Name)
			}
			gotCost, gotCounts, switches := RunCost(m, ctrl, cs.Sched)
			if switches != 0 || len(ctrl.Transitions()) != 0 {
				t.Fatalf("%s/%s: pinned controller switched %d times", fx.start, cs.Name, switches)
			}
			pure, err := fx.factory(initial, avail)
			if err != nil {
				t.Fatal(err)
			}
			alloc := dom.Run(pure, cs.Sched)
			wantCounts, _ := cost.ScheduleCounts(alloc, initial)
			wantCost := wantCounts.Price(m)
			if gotCounts != wantCounts || gotCost != wantCost {
				t.Errorf("%s/%s: pinned adaptive %v (%.4g) != pure %v (%.4g)",
					fx.start, cs.Name, gotCounts, gotCost, wantCounts, wantCost)
			}
		}
	}
}

// The figure 1/2 region test pins the controller wherever the paper's
// bounds decide the point, including auto-start protocol selection.
func TestRegionPinning(t *testing.T) {
	initial := initialScheme(2)
	cases := []struct {
		m        cost.Model
		protocol string
		adapting bool
	}{
		{cost.SC(0.25, 2), "DA", false},  // cd > 1: DA superior
		{cost.SC(0.1, 0.2), "SA", false}, // cc+cd < 0.5: SA superior
		{cost.MC(0.25, 1), "DA", false},  // mobile: DA superior everywhere
		{cost.SC(0.25, 1), "DA", true},   // unknown region: adapt, start DA
		{cost.SC(0.5, 1), "DA", true},    // unknown region
	}
	for _, cs := range cases {
		ctrl, err := New(cs.m, Spec{}, initial, 2)
		if err != nil {
			t.Fatal(err)
		}
		st := ctrl.WindowStat()
		if st.Protocol != cs.protocol || st.Adapting != cs.adapting {
			t.Errorf("%v: got protocol=%s adapting=%v, want %s/%v",
				cs.m, st.Protocol, st.Adapting, cs.protocol, cs.adapting)
		}
	}
	// region=off forces adaptation even where the bounds are decisive.
	ctrl, err := New(cost.SC(0.25, 2), Spec{IgnoreRegion: true}, initial, 2)
	if err != nil {
		t.Fatal(err)
	}
	if st := ctrl.WindowStat(); !st.Adapting {
		t.Error("IgnoreRegion: controller not adapting")
	}
}

// The acceptance property of the subsystem: on a mix-flipping schedule the
// adaptive controller's total cost — including its transition charges — is
// strictly lower than both pure SA and pure DA.
func TestMixFlipBeatsBothFixed(t *testing.T) {
	const n, avail = 6, 2
	initial := initialScheme(avail)
	m := cost.SC(0.25, 1) // unknown region: adaptation active
	sched := adversary.MixFlip(model.ProcessorID(n-1), 0, 60, 4)

	ctrl, err := New(m, Spec{Window: 8, Hysteresis: 2}, initial, avail)
	if err != nil {
		t.Fatal(err)
	}
	adaptiveCost, _, switches := RunCost(m, ctrl, sched)
	if switches == 0 {
		t.Fatal("controller never switched on the mix-flip schedule")
	}

	var fixed [2]float64
	for i, f := range []dom.Factory{dom.StaticFactory, dom.DynamicFactory} {
		alg, err := f(initial, avail)
		if err != nil {
			t.Fatal(err)
		}
		fixed[i], _, _ = RunCost(m, alg, sched)
	}
	if !(adaptiveCost < fixed[0] && adaptiveCost < fixed[1]) {
		t.Fatalf("adaptive %.4g not strictly below SA %.4g and DA %.4g (switches=%d)",
			adaptiveCost, fixed[0], fixed[1], switches)
	}
	t.Logf("mixflip: adaptive=%.4g SA=%.4g DA=%.4g switches=%d", adaptiveCost, fixed[0], fixed[1], switches)
}

// Transition charges are real: the sum of per-transition counts matches
// cost.TransitionCounts of the recorded scheme movement, and RunCost's
// total includes them.
func TestTransitionBilling(t *testing.T) {
	const avail = 2
	initial := initialScheme(avail)
	m := cost.SC(0.25, 1)
	sched := adversary.MixFlip(5, 0, 40, 3)

	ctrl, err := New(m, Spec{Window: 8, Hysteresis: 2}, initial, avail)
	if err != nil {
		t.Fatal(err)
	}
	total, counts, switches := RunCost(m, ctrl, sched)
	trans := ctrl.Transitions()
	if len(trans) != switches {
		t.Fatalf("RunCost saw %d switches, controller recorded %d", switches, len(trans))
	}
	var transCounts cost.Counts
	prevStep := -1
	for _, tr := range trans {
		if tr.Step <= prevStep {
			t.Fatalf("transitions out of order: %+v", trans)
		}
		prevStep = tr.Step
		if tr.From == tr.To {
			t.Fatalf("self-transition recorded: %+v", tr)
		}
		transCounts = transCounts.Add(tr.Counts)
	}
	// Replaying the same schedule through a fresh pinned-per-segment pair
	// is overkill; instead verify the accounting identity: RunCost's
	// counts equal the per-step counts plus the transition counts, by
	// re-running without billing.
	ctrl2, err := New(m, Spec{Window: 8, Hysteresis: 2}, initial, avail)
	if err != nil {
		t.Fatal(err)
	}
	var stepOnly cost.Counts
	for _, q := range sched {
		scheme := ctrl2.Scheme()
		st := ctrl2.Step(q)
		stepOnly = stepOnly.Add(cost.StepCounts(st, scheme))
	}
	if want := stepOnly.Add(transCounts); counts != want {
		t.Fatalf("counts %v != steps %v + transitions %v", counts, stepOnly, transCounts)
	}
	if total != counts.Price(m) {
		t.Fatalf("total %.6g != priced counts %.6g", total, counts.Price(m))
	}
}
