package dom

import (
	"math/rand"
	"testing"
	"testing/quick"

	"objalloc/internal/cost"
	"objalloc/internal/model"
)

// randomSchedule draws length requests uniformly over n processors with the
// given write probability.
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

func TestStaticBasicSteps(t *testing.T) {
	alg, err := NewStatic(model.NewSet(1, 2), 2)
	if err != nil {
		t.Fatal(err)
	}
	// Member read: local singleton.
	st := alg.Step(model.R(2))
	if st.Exec != model.NewSet(2) || st.Saving {
		t.Errorf("member read step = %v", st)
	}
	// Non-member read: singleton from Q, not saving.
	st = alg.Step(model.R(5))
	if st.Exec != model.NewSet(1) || st.Saving {
		t.Errorf("non-member read step = %v", st)
	}
	// Write from anywhere: all of Q.
	st = alg.Step(model.W(5))
	if st.Exec != model.NewSet(1, 2) {
		t.Errorf("write step = %v", st)
	}
	// Scheme is constant.
	if alg.Scheme() != model.NewSet(1, 2) {
		t.Errorf("scheme = %v", alg.Scheme())
	}
	if alg.Name() != "SA" {
		t.Errorf("name = %q", alg.Name())
	}
}

func TestStaticRejectsSmallInitial(t *testing.T) {
	if _, err := NewStatic(model.NewSet(1), 2); err == nil {
		t.Error("initial scheme below t accepted")
	}
	if _, err := NewStatic(model.NewSet(1, 2), 0); err == nil {
		t.Error("t = 0 accepted")
	}
}

func TestStaticSchemeNeverChanges(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	initial := model.NewSet(0, 3, 7)
	alg, err := NewStatic(initial, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range randomSchedule(rng, 10, 200, 0.3) {
		alg.Step(q)
		if alg.Scheme() != initial {
			t.Fatalf("SA scheme changed to %v", alg.Scheme())
		}
	}
}

func TestRotatingPicker(t *testing.T) {
	alg, err := NewStatic(model.NewSet(1, 2, 3), 3)
	if err != nil {
		t.Fatal(err)
	}
	alg.(*Static).WithPicker(RotatingPicker())
	seen := map[model.ProcessorID]int{}
	for i := 0; i < 6; i++ {
		st := alg.Step(model.R(9))
		seen[st.Exec.Min()]++
	}
	for _, id := range []model.ProcessorID{1, 2, 3} {
		if seen[id] != 2 {
			t.Errorf("rotating picker served %d times from %d, want 2 (%v)", seen[id], id, seen)
		}
	}

	// Ablation A2: which replica serves a remote read is cost-neutral
	// under homogeneous prices — rotating and min-id cost exactly the same.
	initial, m := model.NewSet(0, 1, 2), cost.SC(0.3, 1.2)
	sched := randomSchedule(rand.New(rand.NewSource(7)), 6, 300, 0.2)
	algMin, _ := NewStatic(initial, 3)
	algRot, _ := NewStatic(initial, 3)
	algRot.(*Static).WithPicker(RotatingPicker())
	if rot, min := cost.ScheduleCost(m, Run(algRot, sched), initial), cost.ScheduleCost(m, Run(algMin, sched), initial); rot != min {
		t.Errorf("A2: rotating picker cost %v != min-id picker cost %v", rot, min)
	}
}

func TestDynamicCoreSelection(t *testing.T) {
	alg, err := NewDynamic(model.NewSet(2, 5, 9), 3)
	if err != nil {
		t.Fatal(err)
	}
	d := alg.(*Dynamic)
	if d.Core() != model.NewSet(2, 5) {
		t.Errorf("core = %v, want {2,5}", d.Core())
	}
	if d.Designated() != 9 {
		t.Errorf("designated = %d, want 9", d.Designated())
	}
	if d.Name() != "DA" {
		t.Errorf("name = %q", d.Name())
	}
}

func TestDynamicWithCore(t *testing.T) {
	d, err := NewDynamicWithCore(model.NewSet(0), 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.Scheme() != model.NewSet(0, 1) {
		t.Errorf("initial scheme = %v", d.Scheme())
	}
	if _, err := NewDynamicWithCore(model.NewSet(0, 1), 1); err == nil {
		t.Error("p inside F accepted")
	}
}

func TestDynamicSteps(t *testing.T) {
	// F = {0}, p = 1, t = 2 — the mobile base-station configuration of §2.
	d, err := NewDynamicWithCore(model.NewSet(0), 1)
	if err != nil {
		t.Fatal(err)
	}

	// Read by non-data processor 4: saving-read served from F.
	st := d.Step(model.R(4))
	if !st.Saving || st.Exec != model.NewSet(0) {
		t.Errorf("remote read step = %v", st)
	}
	if d.Scheme() != model.NewSet(0, 1, 4) {
		t.Errorf("scheme after join = %v", d.Scheme())
	}

	// Read by data processor 4: local, not saving.
	st = d.Step(model.R(4))
	if st.Saving || st.Exec != model.NewSet(4) {
		t.Errorf("local read step = %v", st)
	}

	// Write by 7 (outside F∪{p}): executes at F∪{7}, evicting 1 and 4.
	st = d.Step(model.W(7))
	if st.Exec != model.NewSet(0, 7) {
		t.Errorf("outside write step = %v", st)
	}
	if d.Scheme() != model.NewSet(0, 7) {
		t.Errorf("scheme after outside write = %v", d.Scheme())
	}

	// Write by 0 (in F): executes at F∪{p}, restoring p's copy.
	st = d.Step(model.W(0))
	if st.Exec != model.NewSet(0, 1) {
		t.Errorf("core write step = %v", st)
	}

	// Write by p itself: also F∪{p}.
	st = d.Step(model.W(1))
	if st.Exec != model.NewSet(0, 1) {
		t.Errorf("designated write step = %v", st)
	}
}

func TestDynamicSchemeAlwaysContainsCore(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		tAvail := 2 + rng.Intn(3)
		n := tAvail + 2 + rng.Intn(5)
		initial := model.FullSet(tAvail)
		alg, err := NewDynamic(initial, tAvail)
		if err != nil {
			t.Fatal(err)
		}
		d := alg.(*Dynamic)
		for _, q := range randomSchedule(rng, n, 100, 0.3) {
			alg.Step(q)
			if !d.Core().SubsetOf(alg.Scheme()) {
				t.Fatalf("scheme %v lost core %v", alg.Scheme(), d.Core())
			}
			if alg.Scheme().Size() < tAvail {
				t.Fatalf("scheme %v below t=%d", alg.Scheme(), tAvail)
			}
		}
	}
}

// Property: both SA and DA always produce legal, t-available allocation
// schedules that correspond to their input schedule, and their internal
// Scheme() tracks the model's scheme evolution exactly.
func TestAlgorithmsProduceLegalSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	factories := map[string]Factory{"SA": StaticFactory, "DA": DynamicFactory}
	for name, f := range factories {
		for trial := 0; trial < 100; trial++ {
			tAvail := 1 + rng.Intn(4)
			n := tAvail + 1 + rng.Intn(6)
			initial := model.FullSet(tAvail)
			sched := randomSchedule(rng, n, 50, rng.Float64())
			alg, err := f(initial, tAvail)
			if err != nil {
				t.Fatal(err)
			}
			las := Run(alg, sched)
			if !las.CorrespondsTo(sched) {
				t.Fatalf("%s: allocation schedule does not correspond to input", name)
			}
			if err := las.Validate(initial, tAvail); err != nil {
				t.Fatalf("%s: invalid allocation schedule: %v\nsched: %v\nlas: %v", name, err, sched, las)
			}
			if got, want := alg.Scheme(), las.FinalScheme(initial); got != want {
				t.Fatalf("%s: Scheme() = %v, model says %v", name, got, want)
			}
		}
	}
}

func TestRunFactory(t *testing.T) {
	sched := model.MustParseSchedule("r3 w1 r3")
	las, err := RunFactory(DynamicFactory, model.NewSet(0, 1), 2, sched)
	if err != nil {
		t.Fatal(err)
	}
	if len(las) != 3 {
		t.Fatalf("len = %d", len(las))
	}
	if _, err := RunFactory(DynamicFactory, model.NewSet(0), 2, sched); err == nil {
		t.Error("RunFactory accepted too-small initial scheme")
	}
}

func TestDynamicT1Degenerate(t *testing.T) {
	// t = 1: F is empty; DA must still produce legal schedules.
	alg, err := NewDynamic(model.NewSet(0), 1)
	if err != nil {
		t.Fatal(err)
	}
	sched := model.MustParseSchedule("r1 r1 r2 w2 r2 r2 r2")
	las := Run(alg, sched)
	if err := las.Validate(model.NewSet(0), 1); err != nil {
		t.Fatalf("t=1 DA schedule invalid: %v", err)
	}
}

// Property (testing/quick): feeding any request sequence into DA keeps the
// execution-set discipline of §4.2.2 — reads execute at singletons, writes
// at F∪{p} or F∪{writer}, and saving happens exactly on non-member reads.
func TestDynamicStepDiscipline(t *testing.T) {
	f := func(ops []uint8, procs []uint8) bool {
		alg, err := NewDynamic(model.NewSet(0, 1, 2), 3)
		if err != nil {
			return false
		}
		d := alg.(*Dynamic)
		fSet, anchor := d.Core(), d.Designated()
		n := len(ops)
		if len(procs) < n {
			n = len(procs)
		}
		for i := 0; i < n; i++ {
			p := model.ProcessorID(procs[i] % 8)
			wasMember := alg.Scheme().Contains(p)
			var st model.Step
			if ops[i]%2 == 0 {
				st = alg.Step(model.R(p))
				if wasMember {
					if st.Saving || st.Exec != model.NewSet(p) {
						return false
					}
				} else {
					if !st.Saving || st.Exec.Size() != 1 || !st.Exec.SubsetOf(fSet) {
						return false
					}
				}
			} else {
				st = alg.Step(model.W(p))
				want := fSet.Add(anchor)
				if !fSet.Contains(p) && p != anchor {
					want = fSet.Add(p)
				}
				if st.Exec != want || st.Saving {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: SA's execution sets never mention processors outside Q ∪ {reader}.
func TestStaticStepDiscipline(t *testing.T) {
	f := func(ops []uint8, procs []uint8) bool {
		q := model.NewSet(0, 3)
		alg, err := NewStatic(q, 2)
		if err != nil {
			return false
		}
		n := len(ops)
		if len(procs) < n {
			n = len(procs)
		}
		for i := 0; i < n; i++ {
			p := model.ProcessorID(procs[i] % 8)
			if ops[i]%2 == 0 {
				st := alg.Step(model.R(p))
				if st.Saving {
					return false
				}
				if q.Contains(p) {
					if st.Exec != model.NewSet(p) {
						return false
					}
				} else if !st.Exec.SubsetOf(q) || st.Exec.Size() != 1 {
					return false
				}
			} else {
				if st := alg.Step(model.W(p)); st.Exec != q {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
