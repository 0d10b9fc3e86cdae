package competitive

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"objalloc/internal/adversary"
	"objalloc/internal/cost"
	"objalloc/internal/dom"
	"objalloc/internal/model"
	"objalloc/internal/obs"
	"objalloc/internal/opt"
)

// BLIS Type-1 determinism: a parallel run must be byte-identical to a
// serial run of the same seed. The table covers three fixed seeds for both
// Sweep and Search, rendering the full result (every ratio, witness and
// classification) and comparing the strings.
func TestSweepParallelIdenticalToSerial(t *testing.T) {
	for _, seed := range []int64{1, 1994, 424242} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			spec := SweepSpec{
				CDs:     []float64{0.2, 0.7, 1.2, 1.7},
				CCs:     []float64{0.1, 0.5, 0.9},
				Battery: BatteryConfig{N: 5, T: 2, RandomSchedules: 2, RandomLength: 16, NemesisRounds: 12},
				Seed:    seed,
			}
			spec.Parallelism = 1
			serial, err := Sweep(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			spec.Parallelism = 8
			parallel, err := Sweep(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			if s, p := fmt.Sprintf("%+v", serial), fmt.Sprintf("%+v", parallel); s != p {
				t.Errorf("parallel sweep differs from serial:\nserial:   %s\nparallel: %s", s, p)
			}
		})
	}
}

// The schedule-major sweep against the cell-by-cell definition: on a grid
// of 820 admissible cells — five model chunks per schedule at n = 8 —
// every 37th admissible cell must carry the very bits WorstRatioContext
// computes for that cell's model alone, at Parallelism 1 and 4.
func TestSweepMatchesWorstRatioPerCell(t *testing.T) {
	axis := make([]float64, 40)
	for i := range axis {
		axis[i] = 0.05 + float64(i)*0.05
	}
	battery := BatteryConfig{N: 8, T: 3, RandomSchedules: 2, RandomLength: 16, NemesisRounds: 12, Seed: 1994}
	if cells, chunk := 820, opt.ModelChunk(battery.N); cells <= 2*chunk {
		t.Fatalf("%d admissible cells are not several chunks of %d", cells, chunk)
	}
	scheds, initial := battery.Build(), battery.Initial()
	ctx := context.Background()
	for _, parallelism := range []int{1, 4} {
		points, err := Sweep(ctx, SweepSpec{CDs: axis, CCs: axis, Battery: battery, Parallelism: parallelism})
		if err != nil {
			t.Fatal(err)
		}
		admissible, checked := 0, 0
		for _, p := range points {
			if p.Analytic == RegionCannotBeTrue {
				continue
			}
			if admissible++; admissible%37 != 0 {
				continue
			}
			m := cost.SC(p.CC, p.CD)
			sa, err := WorstRatioContext(ctx, m, dom.StaticFactory, scheds, initial, battery.T)
			if err != nil {
				t.Fatal(err)
			}
			da, err := WorstRatioContext(ctx, m, dom.DynamicFactory, scheds, initial, battery.T)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(p.SAWorst) != math.Float64bits(sa.Ratio) || math.Float64bits(p.DAWorst) != math.Float64bits(da.Ratio) {
				t.Errorf("Parallelism %d, cc=%g cd=%g: sweep SA %b DA %b, per cell SA %b DA %b",
					parallelism, p.CC, p.CD, p.SAWorst, p.DAWorst, sa.Ratio, da.Ratio)
			}
			checked++
		}
		if admissible != 820 || checked != 22 {
			t.Fatalf("grid has %d admissible cells, %d checked; want 820 and 22", admissible, checked)
		}
	}
}

// A schedule the offline DP cannot take fails the sweep with that
// schedule's error — the first such schedule in battery order, whichever
// one the pool reached first, and also when the bound prunes it at every
// cell, so that no task would compile it. So does an algorithm that takes
// an illegal step: the first schedule in battery order on which SA or DA
// does, SA's error before DA's on the same schedule, whichever lane's task
// failed first.
func TestSweepReportsFirstFailingSchedule(t *testing.T) {
	// wide has 17 processors and costs every algorithm its lower bound
	// but for one write from each outsider: its ratio bounds sit just
	// above 1, below the nemesis families' ratios at every cell.
	wide := func(coreWrites int) model.Schedule {
		var s model.Schedule
		for i := 0; i < coreWrites; i++ {
			s = append(s, model.W(0))
		}
		for p := model.ProcessorID(2); p < 17; p++ {
			s = append(s, model.W(p))
		}
		return s
	}
	daNemesis, err := adversary.DAPunisher([]model.ProcessorID{2, 3, 4}, 0, 12)
	if err != nil {
		t.Fatal(err)
	}
	nemeses := []model.Schedule{adversary.SAPunisher(2, 12), daNemesis}
	cds, ccs := []float64{0.5, 1.5}, []float64{0.2, 0.4}
	for _, c := range []struct {
		name    string
		battery BatteryConfig
		scheds  []model.Schedule // nil: battery.Build()
		pruned  bool             // the first failing schedule is pruned at every cell
	}{
		{name: "20-processor battery", battery: BatteryConfig{N: 20, T: 2, RandomSchedules: 2, RandomLength: 60, NemesisRounds: 4, Seed: 3}},
		{name: "pruned at every cell", battery: BatteryConfig{N: 17, T: 2},
			scheds: append(nemeses[:2:2], wide(200), wide(400)), pruned: true},
	} {
		t.Run(c.name, func(t *testing.T) {
			scheds, initial := c.scheds, c.battery.Initial()
			if scheds == nil {
				scheds = c.battery.Build()
			}
			var want error
			var first model.Schedule
			for _, s := range scheds {
				if _, want = opt.Compile(s, initial, c.battery.T); want != nil {
					first = s
					break
				}
			}
			if want == nil {
				t.Fatal("every schedule of the battery compiled")
			}
			if c.pruned {
				assertPrunedEverywhere(t, nemeses, first, initial, c.battery.T, cds, ccs)
			}
			for _, parallelism := range []int{1, 4} {
				spec := SweepSpec{CDs: cds, CCs: ccs, Battery: c.battery, Parallelism: parallelism}
				ls, err := newLanes(saDA, landedSlots(scheds), initial, c.battery.T)
				if err != nil {
					t.Fatal(err)
				}
				_, err = sweep(context.Background(), spec, ls)
				if err == nil || err.Error() != want.Error() {
					t.Errorf("Parallelism %d: err = %v, want %v", parallelism, err, want)
				}
			}
		})
	}

	// spoiled is factory's algorithm with an empty execution set at step
	// at of every schedule longer than that: on the default battery, below
	// step 36 every schedule fails, from 36 to 59 the SA nemesis is the
	// first to fail, from step 60 to 119 the DA nemesis.
	spoiled := func(factory dom.Factory, at int) dom.Factory {
		return func(initial model.Set, t int) (dom.Algorithm, error) {
			alg, err := factory(initial, t)
			return &saboteur{Algorithm: alg, at: at, spoil: func(st model.Step) model.Step { st.Exec = 0; return st }}, err
		}
	}
	battery := DefaultBattery()
	scheds, initial := battery.Build(), battery.Initial()
	// firstViolation is the violation of the first schedule, in the order
	// given, on which one of factories takes an illegal step, the first
	// factory's before the second's on the same schedule.
	firstViolation := func(t *testing.T, factories [2]dom.Factory, order []model.Schedule) *model.Violation {
		t.Helper()
		for _, s := range order {
			for _, factory := range factories {
				las, err := dom.RunFactory(factory, initial, battery.T, s)
				if err != nil {
					t.Fatal(err)
				}
				if err := las.Validate(initial, battery.T); err != nil {
					var v *model.Violation
					if !errors.As(err, &v) {
						t.Fatal(err)
					}
					return v
				}
			}
		}
		return nil
	}
	for _, c := range []struct {
		name       string
		saAt, daAt int // -1: unspoiled
		step       int // the step of the violation the sweep reports
		// landsFirst: a nemesis schedule that lands before the first
		// failing schedule of a sweep's build fails too, with another
		// violation.
		landsFirst bool
	}{
		{"SA fails", 100, -1, 100, false},
		{"DA fails", -1, 50, 50, false},
		{"DA fails on an earlier schedule", 100, 50, 50, false},
		{"both fail on the same schedule", 55, 50, 55, false},
		{"DA fails on a nemesis and an earlier random schedule", -1, 20, 20, true},
		{"DA fails only on a nemesis schedule", -1, 100, 100, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			factories := saDA
			for f, at := range []int{c.saAt, c.daAt} {
				if at >= 0 {
					factories[f] = spoiled(saDA[f], at)
				}
			}
			want := firstViolation(t, factories, scheds)
			if want == nil || want.Index != c.step {
				t.Fatalf("the battery's first violation is %v, want one at step %d", want, c.step)
			}
			if c.landsFirst {
				b := battery.layout()
				b.fill()
				landing := make([]model.Schedule, len(b.scheds))
				for k := range landing {
					landing[k] = b.scheds[b.slot(k)]
				}
				if first := firstViolation(t, factories, landing); first == nil || *first == *want || !slices.Equal(landing[0], scheds[len(scheds)-3]) {
					t.Fatalf("in landing order the first violation is %v, in battery order %v; want a nemesis schedule's, and another", first, want)
				}
			}
			// The sweep's own build, which lands the nemesis families
			// first, and a battery landed whole in battery order.
			for name, slotsOf := range map[string]func() *slots{
				"built in the run": battery.layout,
				"landed":           func() *slots { return landedSlots(scheds) },
			} {
				for _, parallelism := range []int{1, 4, 0} {
					ls, err := newLanes(factories, slotsOf(), initial, battery.T)
					if err != nil {
						t.Fatal(err)
					}
					spec := SweepSpec{CDs: goldenAxis, CCs: goldenAxis, Battery: battery, Parallelism: parallelism}
					_, err = sweep(context.Background(), spec, ls)
					var got *model.Violation
					if !errors.As(err, &got) || *got != *want {
						t.Errorf("%s, Parallelism %d: err = %v, want %v", name, parallelism, err, want)
					}
				}
			}
		})
	}
}

// assertPrunedEverywhere fails unless, at every admissible SC cell of the
// grid and for SA and DA alike, sched's ratio bound is strictly below the
// incumbent that algorithm's lane takes in round 1 from a battery of the
// compiling schedules nemeses — its ratio on the schedule with its largest
// bound. Its bound, over the closed form a sweep tries first, is then
// below every nemesis bound, so adding sched changes no lead.
func assertPrunedEverywhere(t *testing.T, nemeses []model.Schedule, sched model.Schedule, initial model.Set, tAvail int, cds, ccs []float64) {
	t.Helper()
	ctx := context.Background()
	ls := measuredLanes(t, nemeses, initial, tAvail)
	for _, cc := range ccs {
		for _, cd := range cds {
			if cc > cd {
				continue
			}
			m := cost.SC(cc, cd)
			for f, factory := range saDA {
				l := ls[f]
				bound := func(s int) float64 {
					return l.counts[s].Price(m) / (l.bounds[s].Price(m) * boundMargin)
				}
				lead := 0
				for s := range nemeses {
					if bound(s) > bound(lead) {
						lead = s
					}
				}
				oc, err := opt.SolveCostContext(ctx, m, nemeses[lead], initial, tAvail)
				if err != nil {
					t.Fatal(err)
				}
				incumbent := l.measurement(lead, m, oc).Ratio
				alloc, err := dom.RunFactory(factory, initial, tAvail, sched)
				if err != nil {
					t.Fatal(err)
				}
				alg := cost.TotalCounts(alloc, initial).Price(m)
				if bound := alg / (opt.LowerBound(m, sched, tAvail) * boundMargin); !(bound < incumbent) {
					t.Fatalf("%v: factory %d's bound %g is not below its incumbent %g", m, f, bound, incumbent)
				}
			}
		}
	}
}

// forkCounter is an obs.Observer that counts a sweep's engine runs and the
// tasks they announce and start, and records whether the battery's slots
// had all landed when task 0 was done.
type forkCounter struct {
	runs, tasks, started atomic.Int64
	slots                *slots
	builtBy0             atomic.Bool
}

func (c *forkCounter) RunStart(total int) { c.runs.Add(1); c.tasks.Add(int64(total)) }
func (c *forkCounter) TaskStart(int)      { c.started.Add(1) }
func (c *forkCounter) TaskDone(i int, _ error) {
	if i == 0 && c.slots != nil {
		c.builtBy0.Store(int(c.slots.landed.Load()) == len(c.slots.scheds))
	}
}
func (c *forkCounter) RunDone() {}

// A sweep is one engine run: task 0 builds the battery, then come the
// (algorithm, model-chunk) tasks. The bench-shaped sweep, whose 21 models
// are one chunk, runs exactly three tasks, and a sweep over a 12-processor
// battery, whose chunk is 10 models, runs the build and two per chunk — at
// Parallelism 4, so that under -race the build races DA's first task,
// which measures each schedule as it lands, and a lane's measuring, which
// its first task does while the others wait, is raced. When task 0 is done
// the battery has landed whole.
func TestSweepForksOnce(t *testing.T) {
	wide := BatteryConfig{N: 12, T: 3, RandomSchedules: 2, RandomLength: 16, NemesisRounds: 12, Seed: 5}
	chunks := (21 + opt.ModelChunk(wide.N) - 1) / opt.ModelChunk(wide.N)
	if chunks < 2 {
		t.Fatalf("21 models are one chunk of %d at n = %d", opt.ModelChunk(wide.N), wide.N)
	}
	for _, c := range []struct {
		name  string
		spec  SweepSpec
		tasks int64
	}{
		{"bench-shaped", benchSweepSpec(0, 0), 1 + 2},
		{"n=12", SweepSpec{CDs: goldenAxis, CCs: goldenAxis, Battery: wide, Parallelism: 4}, 1 + 2*int64(chunks)},
	} {
		t.Run(c.name, func(t *testing.T) {
			// Sweep, with the battery's slots in the test's hands.
			if err := c.spec.Normalize(); err != nil {
				t.Fatal(err)
			}
			fc := forkCounter{slots: c.spec.Battery.layout()}
			c.spec.Obs = &obs.Obs{Observer: &fc}
			ls, err := newLanes(saDA, fc.slots, c.spec.Battery.Initial(), c.spec.Battery.T)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sweep(context.Background(), c.spec, ls); err != nil {
				t.Fatal(err)
			}
			if runs, tasks, started := fc.runs.Load(), fc.tasks.Load(), fc.started.Load(); runs != 1 || tasks != c.tasks || started != c.tasks {
				t.Errorf("%d engine runs of %d tasks, %d started; want 1 run of %d", runs, tasks, started, c.tasks)
			}
			if !fc.builtBy0.Load() {
				t.Error("the battery had not landed whole when task 0 was done")
			}
		})
	}
}

func TestSearchParallelIdenticalToSerial(t *testing.T) {
	for _, seed := range []int64{3, 77, 1994} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg := SearchConfig{
				Model: cost.SC(0.3, 1.1), Factory: dom.DynamicFactory,
				N: 5, T: 2, Length: 10, Restarts: 6, Steps: 30, Seed: seed,
			}
			cfg.Parallelism = 1
			serial, err := Search(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Parallelism = 8
			parallel, err := Search(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if serial.Ratio != parallel.Ratio ||
				serial.Evaluations != parallel.Evaluations ||
				serial.Schedule.String() != parallel.Schedule.String() {
				t.Errorf("parallel search differs from serial:\nserial:   ratio %.6f evals %d %v\nparallel: ratio %.6f evals %d %v",
					serial.Ratio, serial.Evaluations, serial.Schedule,
					parallel.Ratio, parallel.Evaluations, parallel.Schedule)
			}
		})
	}
}

// Crossover through the engine must agree with a hand-rolled serial
// bisection over the same battery (the pre-engine algorithm).
func TestCrossoverParallelMatchesSerialBisection(t *testing.T) {
	battery := DefaultBattery()
	got, err := Crossover(context.Background(), CrossoverSpec{CC: 0.2, CDMax: 2.0, Iters: 8, Battery: battery, Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	scheds := battery.Build()
	initial := battery.Initial()
	daWins := func(cd float64) bool {
		m := cost.SC(0.2, cd)
		sa, err := WorstRatio(m, dom.StaticFactory, scheds, initial, battery.T)
		if err != nil {
			t.Fatal(err)
		}
		da, err := WorstRatio(m, dom.DynamicFactory, scheds, initial, battery.T)
		if err != nil {
			t.Fatal(err)
		}
		return da.Ratio <= sa.Ratio
	}
	lo, hi := 0.2, 2.0
	if daWins(lo) {
		t.Fatal("DA wins at cd=cc; cannot compare bisections")
	}
	for i := 0; i < 8; i++ {
		mid := (lo + hi) / 2
		if daWins(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	if want := (lo + hi) / 2; got.CD != want {
		t.Errorf("engine crossover cd=%.6f, serial bisection cd=%.6f", got.CD, want)
	}
}

// Cancelling mid-sweep must return ctx.Err() promptly and leave no
// goroutines behind (acceptance criterion of the engine PR).
func TestSweepCancellationPromptAndLeakFree(t *testing.T) {
	before := runtime.NumGoroutine()

	// A grid large enough (11k admissible cells, over a second of work)
	// that it cannot finish before the cancel lands.
	grid := make([]float64, 150)
	for i := range grid {
		grid[i] = 0.05 + float64(i)*0.05
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := Sweep(ctx, SweepSpec{
			CDs: grid, CCs: grid,
			Battery:     DefaultBattery(),
			Parallelism: 4,
		})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let a few cells start
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("sweep did not return promptly after cancellation")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("cancellation took %v", d)
	}

	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

// A context cancelled before the call must abort Search and FitAsymptotic
// too.
func TestSearchAndFitPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Search(ctx, SearchConfig{
		Model: cost.SC(0.2, 0.8), Factory: dom.StaticFactory,
		N: 4, T: 2, Length: 8, Restarts: 2, Steps: 20,
	}); !errors.Is(err, context.Canceled) {
		t.Errorf("Search err = %v, want context.Canceled", err)
	}
	if _, err := FitAsymptotic(ctx, FitSpec{
		Model: cost.SC(0.4, 1.1), Factory: dom.StaticFactory,
		Family:  func(k int) model.Schedule { return adversary.SAPunisher(5, k) },
		Ks:      []int{5, 10},
		Initial: DefaultBattery().Initial(), T: 2,
	}); err == nil {
		t.Error("FitAsymptotic accepted a cancelled context")
	}
}
