package chaos

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"objalloc/internal/netsim"
	"objalloc/internal/obs"
)

func adversarialPlan() netsim.FaultPlan {
	return netsim.FaultPlan{Loss: 0.12, Dup: 0.08, Delay: 0.15, DelayMax: 4, Flap: 0.005, FlapLen: 2}
}

// TestInvariantsHoldUnderFaults is the acceptance run: a long chaos
// schedule with loss ≥ 10%, duplication and delay over every engine, with
// zero invariant violations. Step counts are sized so the three engines
// together execute well past 10k steps in one test run.
func TestInvariantsHoldUnderFaults(t *testing.T) {
	cases := []struct {
		engine Engine
		steps  int
		churn  float64
	}{
		{EngineDA, 4000, 0},
		{EngineQuorum, 4000, 0.02},
		{EngineHA, 4000, 0.02},
	}
	if testing.Short() {
		for i := range cases {
			cases[i].steps = 300
		}
	}
	for _, tc := range cases {
		t.Run(tc.engine.String(), func(t *testing.T) {
			t.Parallel()
			sc := Scenario{
				Engine: tc.engine, N: 6, T: 3, Seed: 42,
				Steps: tc.steps, Faults: adversarialPlan(), Churn: tc.churn,
			}
			res, err := Run(sc, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range res.Violations {
				t.Errorf("violation: %v", v)
			}
			if res.StepsRun != tc.steps {
				t.Fatalf("ran %d of %d steps", res.StepsRun, tc.steps)
			}
			if res.Overhead.Dropped == 0 || res.Overhead.Retrans == 0 {
				t.Fatalf("fault plan injected nothing (overhead %+v) — run is vacuous", res.Overhead)
			}
		})
	}
}

// TestRetriesAreLoadBearing is the other direction: the same adversarial
// schedule with the retransmission discipline disabled must demonstrably
// violate an invariant on every engine.
func TestRetriesAreLoadBearing(t *testing.T) {
	for _, eng := range []Engine{EngineDA, EngineQuorum, EngineHA} {
		t.Run(eng.String(), func(t *testing.T) {
			sc := Scenario{
				Engine: eng, N: 6, T: 3, Seed: 42, Steps: 400,
				Faults: netsim.FaultPlan{Loss: 0.3, Delay: 0.2, DelayMax: 4},
				Retry:  netsim.RetryPolicy{Disabled: true},
			}
			res, err := Run(sc, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Failed() {
				t.Fatal("retries disabled survived an adversarial network — the discipline is not load-bearing")
			}
		})
	}
}

// TestRunDeterministic runs the same scenario twice with a metrics sink
// and asserts the JSONL event streams are byte-identical.
func TestRunDeterministic(t *testing.T) {
	for _, eng := range []Engine{EngineDA, EngineQuorum, EngineHA} {
		t.Run(eng.String(), func(t *testing.T) {
			run := func() (Result, []byte) {
				var buf bytes.Buffer
				o := &obs.Obs{Registry: obs.NewRegistry(), Sink: obs.NewJSONL(&buf)}
				sc := Scenario{
					Engine: eng, N: 5, T: 2, Seed: 7, Steps: 120,
					Faults: adversarialPlan(),
				}
				if eng != EngineDA {
					sc.Churn = 0.03
				}
				res, err := Run(sc, o)
				if err != nil {
					t.Fatal(err)
				}
				return res, buf.Bytes()
			}
			res1, out1 := run()
			res2, out2 := run()
			if res1.Failed() || res2.Failed() {
				t.Fatalf("violations: %v %v", res1.Violations, res2.Violations)
			}
			if res1.Counts != res2.Counts || res1.Overhead != res2.Overhead {
				t.Fatalf("results differ:\n%+v\n%+v", res1, res2)
			}
			if !bytes.Equal(out1, out2) {
				t.Fatal("event streams differ between identical runs")
			}
			if len(out1) == 0 {
				t.Fatal("no events emitted")
			}
		})
	}
}

// TestExpandDeterministicAndLive checks the workload generator: pure
// function of the scenario, never issues operations at crashed
// processors, and never crashes past a minority.
func TestExpandDeterministicAndLive(t *testing.T) {
	sc := Scenario{Engine: EngineHA, N: 7, T: 3, Seed: 99, Steps: 5000, Churn: 0.1}
	if err := sc.normalize(); err != nil {
		t.Fatal(err)
	}
	a, b := sc.Expand(), sc.Expand()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("Expand is not deterministic")
	}
	down := map[int]bool{}
	for i, st := range a {
		switch st.Kind {
		case StepCrash:
			down[int(st.Proc)] = true
			if len(down) > (sc.N-1)/2 {
				t.Fatalf("step %d: crash takes down %d of %d — majority lost", i, len(down), sc.N)
			}
		case StepRestart:
			if !down[int(st.Proc)] {
				t.Fatalf("step %d: restart of live processor %d", i, st.Proc)
			}
			delete(down, int(st.Proc))
		default:
			if down[int(st.Proc)] {
				t.Fatalf("step %d: %v issued at crashed processor", i, st)
			}
		}
	}
	kinds := map[StepKind]int{}
	for _, st := range a {
		kinds[st.Kind]++
	}
	if kinds[StepRead] == 0 || kinds[StepWrite] == 0 || kinds[StepCrash] == 0 || kinds[StepRestart] == 0 {
		t.Fatalf("generator never produced every kind: %v", kinds)
	}
}

// TestScenarioValidation covers the rejected shapes.
func TestScenarioValidation(t *testing.T) {
	bad := []Scenario{
		{Engine: EngineDA, N: 1, T: 2, Steps: 10},
		{Engine: EngineDA, N: 5, T: 1, Steps: 10},
		{Engine: EngineDA, N: 5, T: 2},
		{Engine: EngineDA, N: 5, T: 2, Steps: 10, WriteFrac: 1.5},
		{Engine: EngineDA, N: 5, T: 2, Steps: 10, Churn: 0.9},
		{Engine: EngineDA, N: 5, T: 2, Steps: 10, Churn: 0.1}, // churn needs a failure story
		{Engine: EngineDA, N: 5, T: 2, Steps: 10, Faults: netsim.FaultPlan{Loss: 2}},
	}
	for i, sc := range bad {
		if _, err := Run(sc, nil); err == nil {
			t.Errorf("case %d: bad scenario accepted: %+v", i, sc)
		}
	}
	if _, err := ParseEngine("paxos"); err == nil {
		t.Error("unknown engine accepted")
	}
	for _, e := range []Engine{EngineDA, EngineQuorum, EngineHA} {
		back, err := ParseEngine(e.String())
		if err != nil || back != e {
			t.Errorf("engine %v does not round-trip: %v %v", e, back, err)
		}
	}
}

// TestShrinkMinimizesFailure shrinks a failing no-retries scenario and
// checks the result still fails, is no larger, and replays exactly.
func TestShrinkMinimizesFailure(t *testing.T) {
	sc := Scenario{
		Engine: EngineDA, N: 5, T: 2, Seed: 3, Steps: 120,
		Faults: netsim.FaultPlan{Loss: 0.35, Dup: 0.05, Delay: 0.2, DelayMax: 3, Flap: 0.01, FlapLen: 2},
		Retry:  netsim.RetryPolicy{Disabled: true},
	}
	res, err := Run(sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed() {
		t.Skip("seed does not fail without retries; adjust the plan")
	}
	small := Shrink(sc)
	if small.Schedule == nil {
		t.Fatal("shrunk scenario has no explicit schedule")
	}
	if len(small.Schedule) > res.StepsRun {
		t.Fatalf("shrink grew the schedule: %d > %d", len(small.Schedule), res.StepsRun)
	}
	again, err := Run(small, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Failed() {
		t.Fatal("shrunk scenario no longer fails")
	}
	t.Logf("shrunk %d steps to %d (faults %q)", res.StepsRun, len(small.Schedule), netsim.FormatFaults(small.Faults))
}

// TestShrinkOnPassingScenarioIsIdentity leaves healthy scenarios alone.
func TestShrinkOnPassingScenarioIsIdentity(t *testing.T) {
	sc := Scenario{Engine: EngineDA, N: 4, T: 2, Seed: 5, Steps: 30, Faults: netsim.FaultPlan{Loss: 0.05}}
	out := Shrink(sc)
	if out.Schedule != nil || out.Steps != sc.Steps {
		t.Fatalf("shrink modified a passing scenario: %+v", out)
	}
}

// TestSearchReproducibleAcrossParallelism runs the same search with 1 and
// 8 workers and asserts identical results in identical order.
func TestSearchReproducibleAcrossParallelism(t *testing.T) {
	base := Scenario{
		Engine: EngineQuorum, N: 5, T: 2, Seed: 17, Steps: 60,
		Faults: adversarialPlan(), Churn: 0.02,
	}
	seq, err := Search(context.Background(), base, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Search(context.Background(), base, 6, 8)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", seq) != fmt.Sprintf("%+v", par) {
		t.Fatalf("search results depend on parallelism:\n%+v\n%+v", seq, par)
	}
	for i, r := range seq {
		if r.Failed() {
			t.Errorf("variant %d violated invariants: %v", i, r.Violations)
		}
	}
}

func TestFaultsRoundTrip(t *testing.T) {
	cases := []string{
		"",
		"loss=0.1",
		"loss=0.15,dup=0.1,delay=0.2,delaymax=4,flap=0.01,flaplen=3",
	}
	for _, s := range cases {
		plan, err := netsim.ParseFaults(s)
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		back, err := netsim.ParseFaults(netsim.FormatFaults(plan))
		if err != nil {
			t.Fatalf("%q re-parse: %v", s, err)
		}
		if back != plan {
			t.Errorf("%q does not round-trip: %+v vs %+v", s, plan, back)
		}
	}
	for _, s := range []string{"loss", "loss=x", "bogus=1", "loss=1.5", "delaymax=-1", "seed=abc"} {
		if _, err := netsim.ParseFaults(s); err == nil {
			t.Errorf("%q accepted", s)
		}
	}
}
