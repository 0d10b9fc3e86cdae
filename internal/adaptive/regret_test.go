package adaptive_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"objalloc/internal/adaptive"
	"objalloc/internal/adversary"
	"objalloc/internal/cost"
	"objalloc/internal/dom"
	"objalloc/internal/engine"
	"objalloc/internal/model"
	"objalloc/internal/opt"
	"objalloc/internal/workload"
)

// The regret harness of experiment E25 measures the adaptive controller
// against pure SA, pure DA and the exact offline optimum over a schedule
// battery. It lives in a test file so that no binary links the laboratory
// (adversary, engine, opt, workload) that only this measurement needs.

// regretSpec is one regret measurement: the cost model, which prices every
// run and drives the controller's region test, the controller's
// configuration, the system shape, the battery seed, and the number of
// cases measured at once (zero or negative selects
// engine.DefaultParallelism; the points are identical for every value).
type regretSpec struct {
	Model       cost.Model
	Spec        adaptive.Spec
	N, T        int
	Seed        int64
	Parallelism int
}

// regretBattery is E25's battery for an n-processor system, in battery
// order: the mix-flip schedule that punishes any fixed choice, the
// families each protocol is worst on, and three stochastic workloads drawn
// from the seed.
func regretBattery(n int, seed int64) (names []string, scheds []model.Schedule) {
	outsider := model.ProcessorID(n - 1)
	writer := model.ProcessorID(0)
	names = []string{"mixflip", "sa-punisher", "pingpong"}
	scheds = []model.Schedule{
		adversary.MixFlip(outsider, writer, 60, 4),
		adversary.SAPunisher(outsider, 120),
		adversary.PingPong(writer, outsider, 60),
	}
	for i, ws := range []string{
		fmt.Sprintf("uniform:n=%d,len=240,pwrite=0.3", n),
		fmt.Sprintf("hotspot:n=%d,len=240,pwrite=0.1", n),
		fmt.Sprintf("uniform:n=%d,len=240,pwrite=0.7", n),
	} {
		sched, err := workload.FromSpec(engine.TaskRNG(seed, i), ws)
		if err != nil {
			// The specs above are constants.
			panic(err)
		}
		names = append(names, ws)
		scheds = append(scheds, sched)
	}
	return names, scheds
}

// regretPoint is the measurement of one battery case: the total
// paper-model cost of the adaptive controller, transition charges
// included, against pure SA, pure DA and the exact offline optimum.
type regretPoint struct {
	Case                  string
	Requests              int
	Adaptive, SA, DA, Opt float64
	// Switches is how many protocol transitions the controller performed.
	Switches int
	// VsOpt is Adaptive/Opt, the regret ratio. VsBestFixed is
	// Adaptive/min(SA, DA): below 1 means the controller beat both fixed
	// protocols on this schedule.
	VsOpt, VsBestFixed float64
}

// regret measures every case of the battery on the engine's worker pool,
// with the first T processors as the initial scheme. The points come back
// in battery order. Cancelling the context aborts the remaining cases and
// returns ctx.Err().
func regret(ctx context.Context, spec regretSpec) ([]regretPoint, error) {
	names, scheds := regretBattery(spec.N, spec.Seed)
	initial := model.FullSet(spec.T)
	return engine.Collect(ctx, len(scheds), spec.Parallelism, func(ctx context.Context, i int) (regretPoint, error) {
		sched := scheds[i]
		p := regretPoint{Case: names[i], Requests: len(sched)}

		ctrl, err := adaptive.New(spec.Model, spec.Spec, initial, spec.T)
		if err != nil {
			return p, fmt.Errorf("regret case %q: %w", p.Case, err)
		}
		p.Adaptive, _, p.Switches = adaptive.RunCost(spec.Model, ctrl, sched)

		for _, fixed := range []struct {
			f    dom.Factory
			cost *float64
		}{{dom.StaticFactory, &p.SA}, {dom.DynamicFactory, &p.DA}} {
			alg, err := fixed.f(initial, spec.T)
			if err != nil {
				return p, fmt.Errorf("regret case %q: %w", p.Case, err)
			}
			*fixed.cost, _, _ = adaptive.RunCost(spec.Model, alg, sched)
		}

		p.Opt, err = opt.SolveCostContext(ctx, spec.Model, sched, initial, spec.T)
		if err != nil {
			return p, fmt.Errorf("regret case %q: %w", p.Case, err)
		}
		p.VsOpt = p.Adaptive / p.Opt
		p.VsBestFixed = p.Adaptive / math.Min(p.SA, p.DA)
		return p, nil
	})
}

// Regret is deterministic: parallel and serial runs produce identical
// points (via JSON) for several seeds.
func TestRegretDeterminism(t *testing.T) {
	for _, seed := range []int64{1, 42, 9001} {
		spec := regretSpec{
			Model: cost.SC(0.25, 1),
			Spec:  adaptive.Spec{Window: 8, Hysteresis: 2},
			N:     6, T: 2,
			Seed: seed,
		}
		serialSpec := spec
		serialSpec.Parallelism = 1
		serial, err := regret(context.Background(), serialSpec)
		if err != nil {
			t.Fatal(err)
		}
		parallelSpec := spec
		parallelSpec.Parallelism = 8
		parallel, err := regret(context.Background(), parallelSpec)
		if err != nil {
			t.Fatal(err)
		}
		sj, _ := json.Marshal(serial)
		pj, _ := json.Marshal(parallel)
		if string(sj) != string(pj) {
			t.Fatalf("seed %d: parallel regret differs from serial:\n%s\n%s", seed, sj, pj)
		}
	}
}

// At seed 1 the battery reproduces EXPERIMENTS E25's table cell for cell:
// the costs are multiples of 0.25, so they compare exactly, and the ratios
// compare as the table prints them. At seed 11 the points are sane: no
// ratio to the exact optimum is below 1, and the mix-flip case beats both
// fixed protocols.
func TestRegretBattery(t *testing.T) {
	spec := regretSpec{
		Model: cost.SC(0.25, 1),
		Spec:  adaptive.Spec{Window: 8, Hysteresis: 2},
		N:     6, T: 2,
		Seed: 1,
	}
	points, err := regret(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	table := []struct {
		requests              int
		adaptive, sa, da, opt float64
		switches              int
		vsOpt, vsBestFixed    string
	}{
		{480, 917.5, 1170, 1022.25, 722.5, 7, "1.270", "0.898"},
		{120, 122.25, 270, 122.25, 122.25, 0, "1.000", "1.000"},
		{120, 320, 315, 389.75, 240.25, 1, "1.332", "1.016"},
		{240, 588.5, 574.25, 593, 469.75, 11, "1.253", "1.025"},
		{240, 440, 581.75, 366, 320.75, 13, "1.372", "1.202"},
		{240, 752.25, 735.25, 719.75, 595.75, 20, "1.263", "1.045"},
	}
	if len(points) != len(table) {
		t.Fatalf("seed 1: %d cases, E25's table has %d rows", len(points), len(table))
	}
	for i, p := range points {
		t.Logf("%-32s %3d requests: adaptive %7.2f  SA %7.2f  DA %7.2f  OPT %7.2f  %2d switches  vs OPT %.3f  vs best fixed %.3f",
			p.Case, p.Requests, p.Adaptive, p.SA, p.DA, p.Opt, p.Switches, p.VsOpt, p.VsBestFixed)
		w := table[i]
		if p.Requests != w.requests || p.Adaptive != w.adaptive || p.SA != w.sa || p.DA != w.da || p.Opt != w.opt ||
			p.Switches != w.switches || fmt.Sprintf("%.3f", p.VsOpt) != w.vsOpt || fmt.Sprintf("%.3f", p.VsBestFixed) != w.vsBestFixed {
			t.Errorf("seed 1, %s: got %+v, E25's table says %+v", p.Case, p, w)
		}
	}

	spec.Seed = 11
	points, err = regret(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if p.VsOpt < 1-1e-9 {
			t.Errorf("seed 11, %s: adaptive %.6g beat exact OPT %.6g", p.Case, p.Adaptive, p.Opt)
		}
	}
	mf := points[0]
	if mf.Case != "mixflip" {
		t.Fatalf("seed 11: first case is %q, want mixflip", mf.Case)
	}
	if mf.VsBestFixed >= 1 {
		t.Errorf("seed 11, mixflip: adaptive did not beat best fixed (ratio %.4g, SA=%.4g DA=%.4g adaptive=%.4g)",
			mf.VsBestFixed, mf.SA, mf.DA, mf.Adaptive)
	}
	if mf.Switches == 0 {
		t.Error("seed 11, mixflip: no switches recorded")
	}
}

// Cancellation propagates.
func TestRegretCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := regret(ctx, regretSpec{Model: cost.SC(0.25, 1), N: 6, T: 2})
	if err == nil {
		t.Fatal("cancelled regret returned nil error")
	}
}
