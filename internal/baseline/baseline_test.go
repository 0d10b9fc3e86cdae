package baseline

import (
	"math/rand"
	"testing"

	"objalloc/internal/cost"
	"objalloc/internal/dom"
	"objalloc/internal/model"
	"objalloc/internal/workload"
)

func TestConstructorsValidate(t *testing.T) {
	if _, err := NewConvergent(model.NewSet(0), 2, 10); err == nil {
		t.Error("Convergent accepted initial < t")
	}
	if _, err := NewConvergent(model.NewSet(0, 1), 2, 0); err == nil {
		t.Error("Convergent accepted window 0")
	}
	if _, err := NewConvergent(model.NewSet(0, 1), 0, 5); err == nil {
		t.Error("Convergent accepted t = 0")
	}
	if _, err := NewKThreshold(model.NewSet(0, 1), 2, 0); err == nil {
		t.Error("KThreshold accepted k = 0")
	}
	if _, err := NewKThreshold(model.NewSet(0), 2, 1); err == nil {
		t.Error("KThreshold accepted initial < t")
	}
	if _, err := NewFullRepl(model.NewSet(0), model.NewSet(0, 1), 2); err == nil {
		t.Error("FullRepl accepted universe < t")
	}
	if _, err := NewFullRepl(model.NewSet(0, 1), model.NewSet(0, 2), 2); err == nil {
		t.Error("FullRepl accepted initial outside universe")
	}
}

func TestNames(t *testing.T) {
	c, _ := NewConvergent(model.NewSet(0, 1), 2, 16)
	if c.Name() != "Convergent(w=16)" {
		t.Errorf("name = %q", c.Name())
	}
	k, _ := NewKThreshold(model.NewSet(0, 1), 2, 3)
	if k.Name() != "DA-k(3)" {
		t.Errorf("name = %q", k.Name())
	}
	f, _ := NewFullRepl(model.FullSet(4), model.NewSet(0, 1), 2)
	if f.Name() != "FullRepl" {
		t.Errorf("name = %q", f.Name())
	}
}

// All baselines must satisfy the DOM contract: legal, t-available schedules
// corresponding to the input.
func TestBaselinesProduceLegalSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const n = 7
	factories := map[string]dom.Factory{
		"convergent-8":  ConvergentFactory(8),
		"convergent-64": ConvergentFactory(64),
		"k1":            KThresholdFactory(1),
		"k3":            KThresholdFactory(3),
		"full":          FullReplFactory(model.FullSet(n)),
	}
	for name, f := range factories {
		for trial := 0; trial < 60; trial++ {
			tAvail := 1 + rng.Intn(3)
			initial := model.FullSet(tAvail)
			sched := workload.Uniform(rng, n, 80, rng.Float64())
			las, err := dom.RunFactory(f, initial, tAvail, sched)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !las.CorrespondsTo(sched) {
				t.Fatalf("%s: schedule mismatch", name)
			}
			if err := las.Validate(initial, tAvail); err != nil {
				t.Fatalf("%s trial %d: %v\nsched: %v\nlas: %v", name, trial, err, sched, las)
			}
		}
	}
}

func TestKThresholdOneBehavesLikeDAOnReads(t *testing.T) {
	// With k = 1, a non-member read immediately saves — same decision DA
	// makes. Compare full allocation schedules on a random workload.
	rng := rand.New(rand.NewSource(5))
	initial := model.NewSet(0, 1)
	sched := workload.Uniform(rng, 6, 100, 0.3)
	kt, err := dom.RunFactory(KThresholdFactory(1), initial, 2, sched)
	if err != nil {
		t.Fatal(err)
	}
	da, err := dom.RunFactory(dom.DynamicFactory, initial, 2, sched)
	if err != nil {
		t.Fatal(err)
	}
	for i := range kt {
		if kt[i] != da[i] {
			t.Fatalf("step %d differs: k1 %v vs DA %v", i, kt[i], da[i])
		}
	}
}

func TestKThresholdDelaysReplication(t *testing.T) {
	// With k = 3, the first two reads from an outsider do not save;
	// the third does.
	a, err := NewKThreshold(model.NewSet(0, 1), 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		st := a.Step(model.R(5))
		if st.Saving {
			t.Fatalf("read %d saved early", i+1)
		}
	}
	if st := a.Step(model.R(5)); !st.Saving {
		t.Error("third read did not save")
	}
	if !a.Scheme().Contains(5) {
		t.Error("processor 5 did not join")
	}

	// Ablation A1: on a read-heavy hotspot the delay costs — waiting for
	// the 4th read is ~13% dearer than DA's replicate-on-first-read.
	sched := workload.Hotspot(rand.New(rand.NewSource(6)), 6, 300, 0.1, model.NewSet(4, 5), 0.8)
	initial, m := model.NewSet(0, 1), cost.SC(0.2, 1.5)
	price := func(k int) float64 {
		las, err := dom.RunFactory(KThresholdFactory(k), initial, 2, sched)
		if err != nil {
			t.Fatal(err)
		}
		return cost.ScheduleCost(m, las, initial)
	}
	if r := price(4) / price(1); r < 1.10 || r > 1.16 {
		t.Errorf("A1: k4/k1 cost = %.4f, want ~1.13", r)
	}
}

func TestKThresholdWriteResetsProgress(t *testing.T) {
	a, err := NewKThreshold(model.NewSet(0, 1), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	a.Step(model.R(5)) // progress 1/2
	a.Step(model.W(0)) // reset
	if st := a.Step(model.R(5)); st.Saving {
		t.Error("progress survived the write")
	}
	if st := a.Step(model.R(5)); !st.Saving {
		t.Error("threshold not reached after reset")
	}
}

func TestConvergentAdaptsToHotReader(t *testing.T) {
	// A processor that reads far more often than anyone writes should end
	// up holding a copy; when it stops reading and writes dominate, it
	// should lose the copy at the next write.
	c, err := NewConvergent(model.NewSet(0, 1), 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Hot reader 5: after a couple of reads its windowed rate exceeds the
	// (zero) write rate, so it joins.
	c.Step(model.R(5))
	if !c.Scheme().Contains(5) {
		t.Fatal("hot reader did not join")
	}
	// Now writes dominate the window; the next write evicts 5.
	for i := 0; i < 8; i++ {
		c.Step(model.W(0))
	}
	if c.Scheme().Contains(5) {
		t.Error("cold reader kept its copy under write-dominated window")
	}
}

func TestConvergentBeatsStaticOnRegularPattern(t *testing.T) {
	// §5.1: convergent algorithms excel on regular patterns. A phase of
	// heavy reading from processor 4 should make Convergent cheaper than
	// SA under the SC model.
	rng := rand.New(rand.NewSource(8))
	phases := []workload.Phase{{
		Length:    400,
		ReadRate:  map[model.ProcessorID]float64{4: 10, 5: 5},
		WriteRate: map[model.ProcessorID]float64{0: 1},
	}}
	sched, err := workload.Regular(rng, phases)
	if err != nil {
		t.Fatal(err)
	}
	initial := model.NewSet(0, 1)
	m := cost.SC(0.2, 1.5)
	conv, err := dom.RunFactory(ConvergentFactory(32), initial, 2, sched)
	if err != nil {
		t.Fatal(err)
	}
	sa, err := dom.RunFactory(dom.StaticFactory, initial, 2, sched)
	if err != nil {
		t.Fatal(err)
	}
	convCost := cost.ScheduleCost(m, conv, initial)
	saCost := cost.ScheduleCost(m, sa, initial)
	if convCost >= saCost {
		t.Errorf("Convergent (%g) did not beat SA (%g) on a regular read-heavy pattern", convCost, saCost)
	}
}

func TestFullReplMakesReadsLocalAfterWrite(t *testing.T) {
	f, err := NewFullRepl(model.FullSet(5), model.NewSet(0, 1), 2)
	if err != nil {
		t.Fatal(err)
	}
	st := f.Step(model.W(2))
	if st.Exec != model.FullSet(5) {
		t.Errorf("write exec = %v, want whole universe", st.Exec)
	}
	for p := model.ProcessorID(0); p < 5; p++ {
		st := f.Step(model.R(p))
		if st.Exec != model.NewSet(p) || st.Saving {
			t.Errorf("read by %d not local: %v", p, st)
		}
	}
}

func TestFullReplPreWriteReadJoins(t *testing.T) {
	f, err := NewFullRepl(model.FullSet(5), model.NewSet(0, 1), 2)
	if err != nil {
		t.Fatal(err)
	}
	st := f.Step(model.R(4))
	if !st.Saving || st.Exec != model.NewSet(0) {
		t.Errorf("pre-write outsider read = %v, want saving from {0}", st)
	}
	if st := f.Step(model.R(4)); st.Saving || st.Exec != model.NewSet(4) {
		t.Errorf("second read = %v, want local", st)
	}
}
