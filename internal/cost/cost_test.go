package cost

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"objalloc/internal/model"
)

const eps = 1e-12

func almost(a, b float64) bool { return math.Abs(a-b) < eps }

func TestSCMCConstructors(t *testing.T) {
	sc := SC(0.25, 1.5)
	if sc.CIO != 1 || sc.CC != 0.25 || sc.CD != 1.5 {
		t.Errorf("SC = %+v", sc)
	}
	if sc.IsMobile() {
		t.Error("SC reported mobile")
	}
	mc := MC(0.25, 1.5)
	if mc.CIO != 0 {
		t.Errorf("MC = %+v", mc)
	}
	if !mc.IsMobile() {
		t.Error("MC not reported mobile")
	}
}

func TestValidate(t *testing.T) {
	if err := SC(0.5, 0.5).Validate(); err != nil {
		t.Errorf("cc == cd should validate: %v", err)
	}
	if err := SC(0.6, 0.5).Validate(); err == nil {
		t.Error("cc > cd validated (the 'cannot be true' region)")
	}
	if err := (Model{CC: -1, CD: 1, CIO: 1}).Validate(); err == nil {
		t.Error("negative price validated")
	}
	// A price that is not finite is refused by name: NaN passes both
	// comparisons above, and an infinite CD makes 0·cd NaN in the DP.
	for _, c := range []struct {
		m     Model
		field string
	}{
		{Model{CC: 0.5, CD: math.Inf(1)}, "CD"},
		{Model{CC: math.NaN()}, "CC"},
		{Model{CIO: math.NaN()}, "CIO"},
		{Model{CIO: math.Inf(1)}, "CIO"},
		{Model{CC: math.Inf(-1), CD: 1}, "CC"},
	} {
		err := c.m.Validate()
		if err == nil || !strings.Contains(err.Error(), "non-finite price "+c.field+" ") {
			t.Errorf("%+v: Validate = %v, want a non-finite %s", c.m, err, c.field)
		}
	}
}

func TestModelString(t *testing.T) {
	if got := SC(0.25, 1.5).String(); got != "SC(cc=0.25,cd=1.5)" {
		t.Errorf("String = %q", got)
	}
	if got := MC(0.25, 1.5).String(); got != "MC(cc=0.25,cd=1.5)" {
		t.Errorf("String = %q", got)
	}
	if got := (Model{CC: 1, CD: 2, CIO: 3}).String(); got != "cost(cc=1,cd=2,cio=3)" {
		t.Errorf("String = %q", got)
	}
}

// Direct transcriptions of the paper's §3.2 (SC) and §3.3 (MC) formulas,
// used as an independent oracle for StepCost.
func paperCost(m Model, st model.Step, scheme model.Set) float64 {
	i := st.Request.Processor
	x := st.Exec
	nx := float64(x.Size())
	if st.Request.IsRead() {
		var c float64
		if x.Contains(i) {
			c = (nx-1)*m.CC + nx*m.CIO + (nx-1)*m.CD
		} else {
			c = nx * (m.CC + m.CIO + m.CD)
		}
		if st.Saving {
			c += m.CIO
		}
		return c
	}
	// Write.
	if x.Contains(i) {
		return float64(scheme.Diff(x).Size())*m.CC + (nx-1)*m.CD + nx*m.CIO
	}
	return float64(scheme.Diff(x).Remove(i).Size())*m.CC + nx*(m.CD+m.CIO)
}

func TestStepCostMatchesPaperFormulas(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	models := []Model{SC(0.3, 1.2), SC(0, 0), SC(2, 2), MC(0.3, 1.2), MC(1, 5), {CC: 0.1, CD: 0.9, CIO: 2.5}}
	const n = 8
	for iter := 0; iter < 5000; iter++ {
		m := models[rng.Intn(len(models))]
		scheme := randomNonEmpty(rng, n)
		exec := randomNonEmpty(rng, n)
		p := model.ProcessorID(rng.Intn(n))
		var st model.Step
		switch rng.Intn(3) {
		case 0:
			st = model.Step{Request: model.R(p), Exec: exec}
		case 1:
			st = model.Step{Request: model.R(p), Exec: exec, Saving: true}
		default:
			st = model.Step{Request: model.W(p), Exec: exec}
		}
		got := StepCost(m, st, scheme)
		want := paperCost(m, st, scheme)
		if !almost(got, want) {
			t.Fatalf("iter %d: StepCost(%v, %v, scheme=%v) = %g, want %g", iter, m, st, scheme, got, want)
		}
	}
}

func randomNonEmpty(rng *rand.Rand, n int) model.Set {
	for {
		var s model.Set
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				s = s.Add(model.ProcessorID(i))
			}
		}
		if !s.IsEmpty() {
			return s
		}
	}
}

func TestLocalReadCost(t *testing.T) {
	// A read executed only locally costs exactly one I/O in SC (§1.2) and
	// zero in MC (§3.3: "the cost of a read request executed only locally
	// is zero").
	st := model.Step{Request: model.R(2), Exec: model.NewSet(2)}
	scheme := model.NewSet(2, 3)
	if got := StepCost(SC(0.5, 1.5), st, scheme); !almost(got, 1) {
		t.Errorf("SC local read = %g, want 1", got)
	}
	if got := StepCost(MC(0.5, 1.5), st, scheme); !almost(got, 0) {
		t.Errorf("MC local read = %g, want 0", got)
	}
}

func TestRemoteReadCost(t *testing.T) {
	// §1.2: a read by s outside the scheme costs cc + cio + cd when served
	// by one processor of the scheme.
	st := model.Step{Request: model.R(0), Exec: model.NewSet(3)}
	scheme := model.NewSet(3, 4)
	m := SC(0.25, 1.25)
	if got := StepCost(m, st, scheme); !almost(got, 0.25+1+1.25) {
		t.Errorf("remote read = %g, want %g", got, 0.25+1+1.25)
	}
}

func TestSavingReadExtraIO(t *testing.T) {
	// SC: a saving-read costs exactly one more than the same non-saving
	// read; MC: the same.
	plain := model.Step{Request: model.R(0), Exec: model.NewSet(3)}
	saving := plain
	saving.Saving = true
	scheme := model.NewSet(3, 4)
	m := SC(0.25, 1.25)
	if got, want := StepCost(m, saving, scheme), StepCost(m, plain, scheme)+1; !almost(got, want) {
		t.Errorf("SC saving read = %g, want %g", got, want)
	}
	mc := MC(0.25, 1.25)
	if got, want := StepCost(mc, saving, scheme), StepCost(mc, plain, scheme); !almost(got, want) {
		t.Errorf("MC saving read = %g, want %g", got, want)
	}
}

func TestWriteCostMemberOfExec(t *testing.T) {
	// w2 with X={2,3}, Y={1,2,4}: invalidate Y\X = {1,4} (2 control
	// messages), transmit to 3 (1 data message), output at 2 and 3 (2 IOs).
	st := model.Step{Request: model.W(2), Exec: model.NewSet(2, 3)}
	scheme := model.NewSet(1, 2, 4)
	c := StepCounts(st, scheme)
	if c != (Counts{Control: 2, Data: 1, IO: 2}) {
		t.Errorf("counts = %+v", c)
	}
}

func TestWriteCostNonMemberOfExec(t *testing.T) {
	// w5 with X={2,3}, Y={2,5}: obsolete copies are Y\X\{5} = {} — the
	// writer itself needs no invalidate message. Transmit to both of X,
	// output at both.
	st := model.Step{Request: model.W(5), Exec: model.NewSet(2, 3)}
	scheme := model.NewSet(2, 5)
	c := StepCounts(st, scheme)
	if c != (Counts{Control: 0, Data: 2, IO: 2}) {
		t.Errorf("counts = %+v", c)
	}
}

func TestReadCountsMemberVsNonMember(t *testing.T) {
	scheme := model.NewSet(1, 2)
	in := model.Step{Request: model.R(1), Exec: model.NewSet(1, 2)}
	if c := StepCounts(in, scheme); c != (Counts{Control: 1, Data: 1, IO: 2}) {
		t.Errorf("member read counts = %+v", c)
	}
	out := model.Step{Request: model.R(5), Exec: model.NewSet(1, 2)}
	if c := StepCounts(out, scheme); c != (Counts{Control: 2, Data: 2, IO: 2}) {
		t.Errorf("non-member read counts = %+v", c)
	}
}

func TestScheduleCostIsSumOfStepCosts(t *testing.T) {
	a := model.AllocSchedule{
		{Request: model.W(2), Exec: model.NewSet(2, 3)},
		{Request: model.R(4), Exec: model.NewSet(2)},
		{Request: model.R(1), Exec: model.NewSet(2), Saving: true},
		{Request: model.W(3), Exec: model.NewSet(2, 3)},
	}
	initial := model.NewSet(3, 4)
	m := SC(0.5, 1.5)
	total, perStep := ScheduleCounts(a, initial)
	var sum Counts
	scheme := initial
	for i, st := range a {
		want := StepCounts(st, scheme)
		if perStep[i] != want {
			t.Errorf("perStep[%d] = %+v, want %+v", i, perStep[i], want)
		}
		sum = sum.Add(want)
		scheme = model.NextScheme(scheme, st)
	}
	if total != sum {
		t.Errorf("total = %+v, want %+v", total, sum)
	}
	if got := ScheduleCost(m, a, initial); !almost(got, total.Price(m)) {
		t.Errorf("ScheduleCost = %g, want %g", got, total.Price(m))
	}
}

// §1.3 worked example: schedule r1 r1 r2 w2 r2 r2 r2, initial scheme {1}.
// Dynamic allocation (move the copy from 1 to 2 at the write) must beat
// keeping the allocation fixed at {1}. The paper uses this example with
// t = 1 (single copy).
func TestWorkedExampleSection13(t *testing.T) {
	m := SC(0.25, 1.0)

	static := model.AllocSchedule{
		{Request: model.R(1), Exec: model.NewSet(1)},
		{Request: model.R(1), Exec: model.NewSet(1)},
		{Request: model.R(2), Exec: model.NewSet(1)},
		{Request: model.W(2), Exec: model.NewSet(1)},
		{Request: model.R(2), Exec: model.NewSet(1)},
		{Request: model.R(2), Exec: model.NewSet(1)},
		{Request: model.R(2), Exec: model.NewSet(1)},
	}
	dynamic := model.AllocSchedule{
		{Request: model.R(1), Exec: model.NewSet(1)},
		{Request: model.R(1), Exec: model.NewSet(1)},
		{Request: model.R(2), Exec: model.NewSet(1)},
		{Request: model.W(2), Exec: model.NewSet(2)}, // invalidates 1, moves scheme to {2}
		{Request: model.R(2), Exec: model.NewSet(2)},
		{Request: model.R(2), Exec: model.NewSet(2)},
		{Request: model.R(2), Exec: model.NewSet(2)},
	}
	initial := model.NewSet(1)
	if err := static.Validate(initial, 1); err != nil {
		t.Fatal(err)
	}
	if err := dynamic.Validate(initial, 1); err != nil {
		t.Fatal(err)
	}
	cs := ScheduleCost(m, static, initial)
	cdyn := ScheduleCost(m, dynamic, initial)
	if cdyn >= cs {
		t.Errorf("dynamic allocation (%g) should beat static (%g) on the §1.3 example", cdyn, cs)
	}
}

func TestCountsPriceAndString(t *testing.T) {
	c := Counts{Control: 3, Data: 2, IO: 4}
	if got := c.Price(Model{CC: 0.5, CD: 2, CIO: 1}); !almost(got, 3*0.5+2*2+4) {
		t.Errorf("Price = %g", got)
	}
	if c.String() != "3cc+2cd+4io" {
		t.Errorf("String = %q", c.String())
	}
}

// Property tests.

func TestCostNonNegative(t *testing.T) {
	f := func(execBits, schemeBits uint8, proc uint8, write, saving bool) bool {
		exec := model.Set(execBits)
		if exec.IsEmpty() {
			exec = model.NewSet(0)
		}
		scheme := model.Set(schemeBits)
		p := model.ProcessorID(proc % 8)
		var st model.Step
		if write {
			st = model.Step{Request: model.W(p), Exec: exec}
		} else {
			st = model.Step{Request: model.R(p), Exec: exec, Saving: saving}
		}
		c := StepCounts(st, scheme)
		return c.Control >= 0 && c.Data >= 0 && c.IO >= 0 &&
			StepCost(SC(0.5, 1.5), st, scheme) >= 0 &&
			StepCost(MC(0.5, 1.5), st, scheme) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestCostMonotoneInPrices(t *testing.T) {
	// Raising any price never lowers the cost of any step.
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 2000; iter++ {
		scheme := randomNonEmpty(rng, 8)
		exec := randomNonEmpty(rng, 8)
		p := model.ProcessorID(rng.Intn(8))
		st := model.Step{Request: model.R(p), Exec: exec, Saving: rng.Intn(2) == 0}
		if rng.Intn(2) == 0 {
			st = model.Step{Request: model.W(p), Exec: exec}
		}
		base := Model{CC: rng.Float64(), CD: rng.Float64() + 1, CIO: rng.Float64()}
		bumped := base
		switch rng.Intn(3) {
		case 0:
			bumped.CC += 0.5
		case 1:
			bumped.CD += 0.5
		default:
			bumped.CIO += 0.5
		}
		if StepCost(bumped, st, scheme) < StepCost(base, st, scheme)-eps {
			t.Fatalf("cost not monotone: %v vs %v on %v scheme %v", base, bumped, st, scheme)
		}
	}
}

func TestMCCostIgnoresIO(t *testing.T) {
	// In the MC model, converting a read to a saving-read is free, and
	// cost depends only on message counts.
	rng := rand.New(rand.NewSource(123))
	m := MC(0.4, 1.1)
	for iter := 0; iter < 1000; iter++ {
		scheme := randomNonEmpty(rng, 8)
		exec := randomNonEmpty(rng, 8)
		p := model.ProcessorID(rng.Intn(8))
		plain := model.Step{Request: model.R(p), Exec: exec}
		saving := plain
		saving.Saving = true
		if !almost(StepCost(m, plain, scheme), StepCost(m, saving, scheme)) {
			t.Fatalf("MC saving read costs differently")
		}
	}
}

// Golden table: the paper's §3.2/§3.3 cost formulas written out for every
// case of the case analysis, with hand-computed values — the
// documentation-grade record of the cost model's semantics.
func TestCostGoldenTable(t *testing.T) {
	sc := SC(0.25, 1.5) // cio = 1
	mc := MC(0.25, 1.5) // cio = 0
	scheme := model.NewSet(0, 1, 2)
	cases := []struct {
		name   string
		step   model.Step
		sc, mc float64
	}{
		{
			"local read (reader in scheme, X={i})",
			model.Step{Request: model.R(1), Exec: model.NewSet(1)},
			1.0, 0.0,
		},
		{
			"remote read, one server",
			model.Step{Request: model.R(5), Exec: model.NewSet(0)},
			0.25 + 1 + 1.5, 0.25 + 1.5,
		},
		{
			"remote saving read, one server",
			model.Step{Request: model.R(5), Exec: model.NewSet(0), Saving: true},
			0.25 + 1 + 1.5 + 1, 0.25 + 1.5,
		},
		{
			"quorum-style read, reader in X, |X|=3",
			model.Step{Request: model.R(1), Exec: model.NewSet(0, 1, 2)},
			2*0.25 + 3 + 2*1.5, 2 * (0.25 + 1.5),
		},
		{
			"quorum-style read, reader outside X, |X|=2",
			model.Step{Request: model.R(5), Exec: model.NewSet(0, 1)},
			2 * (0.25 + 1 + 1.5), 2 * (0.25 + 1.5),
		},
		{
			"write by scheme member, X={0,1}: invalidate 2",
			model.Step{Request: model.W(0), Exec: model.NewSet(0, 1)},
			1*0.25 + 1*1.5 + 2, 1*0.25 + 1*1.5,
		},
		{
			"write by outsider, X={0,1}: invalidations exclude the writer",
			model.Step{Request: model.W(5), Exec: model.NewSet(0, 1)},
			1*0.25 + 2*(1.5+1), 1*0.25 + 2*1.5,
		},
		{
			"write replacing the whole scheme, X=Y",
			model.Step{Request: model.W(0), Exec: model.NewSet(0, 1, 2)},
			2*1.5 + 3, 2 * 1.5,
		},
	}
	for _, c := range cases {
		if got := StepCost(sc, c.step, scheme); !almost(got, c.sc) {
			t.Errorf("%s: SC cost = %g, want %g", c.name, got, c.sc)
		}
		if got := StepCost(mc, c.step, scheme); !almost(got, c.mc) {
			t.Errorf("%s: MC cost = %g, want %g", c.name, got, c.mc)
		}
	}
}

func TestTransitionCounts(t *testing.T) {
	cases := []struct {
		name     string
		from, to model.Set
		want     Counts
	}{
		{
			"same scheme is free",
			model.NewSet(0, 1), model.NewSet(0, 1),
			Counts{},
		},
		{
			"pure install: one new replica",
			model.NewSet(0, 1), model.NewSet(0, 1, 4),
			Counts{Control: 1, Data: 1, IO: 1},
		},
		{
			"pure invalidation: two joined copies dropped",
			model.NewSet(0, 1, 4, 5), model.NewSet(0, 1),
			Counts{Control: 2},
		},
		{
			"mixed: drop one, install one",
			model.NewSet(0, 1, 4), model.NewSet(0, 1, 5),
			Counts{Control: 2, Data: 1, IO: 1},
		},
	}
	for _, c := range cases {
		if got := TransitionCounts(c.from, c.to); got != c.want {
			t.Errorf("%s: TransitionCounts(%v, %v) = %v, want %v", c.name, c.from, c.to, got, c.want)
		}
	}
}
