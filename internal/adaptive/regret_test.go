package adaptive_test

import (
	"context"
	"encoding/json"
	"testing"

	"objalloc/internal/adaptive"
	"objalloc/internal/adaptive/regret"
	"objalloc/internal/cost"
)

// The regret harness lives in internal/adaptive/regret (so the daemon does
// not link it); its gates stay here, beside the controller they measure.

// Regret is deterministic: parallel and serial runs produce identical
// points (via JSON) for several seeds.
func TestRegretDeterminism(t *testing.T) {
	for _, seed := range []int64{1, 42, 9001} {
		spec := regret.RegretSpec{
			Model: cost.SC(0.25, 1),
			Spec:  adaptive.Spec{Window: 8, Hysteresis: 2},
			N:     6, T: 2,
			Seed: seed,
		}
		serialSpec := spec
		serialSpec.Parallelism = 1
		serial, err := regret.Regret(context.Background(), serialSpec)
		if err != nil {
			t.Fatal(err)
		}
		parallelSpec := spec
		parallelSpec.Parallelism = 8
		parallel, err := regret.Regret(context.Background(), parallelSpec)
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

// The default battery's regret points are sane: every ratio is >= 1 when
// OPT is exact, and the mix-flip case beats both fixed protocols.
func TestRegretBattery(t *testing.T) {
	points, err := regret.Regret(context.Background(), regret.RegretSpec{
		Model: cost.SC(0.25, 1),
		Spec:  adaptive.Spec{Window: 8, Hysteresis: 2},
		N:     6, T: 2,
		Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]regret.RegretPoint{}
	for _, p := range points {
		byName[p.Case] = p
		if p.Exact && p.VsOpt < 1-1e-9 {
			t.Errorf("case %q: adaptive %.6g beat exact OPT %.6g", p.Case, p.Adaptive, p.Opt)
		}
	}
	mf, ok := byName["mixflip"]
	if !ok {
		t.Fatal("default battery is missing the mixflip case")
	}
	if mf.VsBestFixed >= 1 {
		t.Errorf("mixflip: adaptive did not beat best fixed (ratio %.4g, SA=%.4g DA=%.4g adaptive=%.4g)",
			mf.VsBestFixed, mf.SA, mf.DA, mf.Adaptive)
	}
	if mf.Switches == 0 {
		t.Error("mixflip: no switches recorded")
	}
}

// Cancellation propagates.
func TestRegretCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := regret.Regret(ctx, regret.RegretSpec{Model: cost.SC(0.25, 1), N: 6, T: 2})
	if err == nil {
		t.Fatal("cancelled regret returned nil error")
	}
}
