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
// computes for that cell's pricing model alone, at Parallelism 1 and 4.
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
			m := pricing(cost.SC(p.CC, p.CD), 1)
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
	bd, err := opt.NewBound(sched, initial, tAvail)
	if err != nil {
		t.Fatal(err)
	}
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
				if bound := alg / (bd.Floor(m) * boundMargin); !(bound < incumbent) {
					t.Fatalf("%v: factory %d's bound %g is not below its incumbent %g", m, f, bound, incumbent)
				}
			}
		}
	}
}

// A sweep's lanes measure the battery once each, whichever of a lane's
// (algorithm, model-chunk) tasks starts first, while task 0 builds it: the
// bench-shaped sweep, whose 21 models are one chunk, and a sweep over a
// 12-processor battery, whose chunk is 10 models, so that each lane has
// several tasks — at Parallelism 4, so that under -race the build races
// DA's first task, which measures each schedule as it lands, and a lane's
// measuring, which its first task does while the others wait, is raced.
// Each lane makes one algorithm per schedule, and the battery has landed
// whole when the sweep returns.
func TestSweepForksOnce(t *testing.T) {
	wide := BatteryConfig{N: 12, T: 3, RandomSchedules: 2, RandomLength: 16, NemesisRounds: 12, Seed: 5}
	if chunks := (21 + opt.ModelChunk(wide.N) - 1) / opt.ModelChunk(wide.N); chunks < 2 {
		t.Fatalf("21 models are one chunk of %d at n = %d", opt.ModelChunk(wide.N), wide.N)
	}
	for _, c := range []struct {
		name string
		spec SweepSpec
	}{
		{"bench-shaped", benchSweepSpec(0, 0)},
		{"n=12", SweepSpec{CDs: goldenAxis, CCs: goldenAxis, Battery: wide, Parallelism: 4}},
	} {
		t.Run(c.name, func(t *testing.T) {
			// Sweep, with the battery's slots and the factories in the
			// test's hands.
			if err := c.spec.Normalize(); err != nil {
				t.Fatal(err)
			}
			var made [2]atomic.Int64
			var factories [2]dom.Factory
			for f, factory := range saDA {
				factories[f] = func(initial model.Set, t int) (dom.Algorithm, error) {
					made[f].Add(1)
					return factory(initial, t)
				}
			}
			b := c.spec.Battery.layout()
			ls, err := newLanes(factories, b, c.spec.Battery.Initial(), c.spec.Battery.T)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sweep(context.Background(), c.spec, ls); err != nil {
				t.Fatal(err)
			}
			if landed := int(b.landed.Load()); landed != len(b.scheds) {
				t.Errorf("%d of %d schedules landed", landed, len(b.scheds))
			}
			for f := range made {
				if n := made[f].Load(); n != int64(len(b.scheds)) {
					t.Errorf("lane %d made %d algorithms over %d schedules", f, n, len(b.scheds))
				}
			}
		})
	}
}

func TestSearchParallelIdenticalToSerial(t *testing.T) {
	for _, seed := range []int64{3, 77, 1994} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg := SearchConfig{
				Model: cost.SC(0.3, 1.1), N: 5, T: 2, Length: 10, Restarts: 6, Steps: 30, Seed: seed,
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
			if serial.Factor != parallel.Factor ||
				serial.Evaluations != parallel.Evaluations ||
				serial.Period.String() != parallel.Period.String() {
				t.Errorf("parallel search differs from serial:\nserial:   factor %.6f evals %d %v\nparallel: factor %.6f evals %d %v",
					serial.Factor, serial.Evaluations, serial.Period,
					parallel.Factor, parallel.Evaluations, parallel.Period)
			}
		})
	}
}

// Cancelling mid-sweep must return ctx.Err() promptly and leave no
// goroutines behind (acceptance criterion of the engine PR). The cancel
// lands as SA's lane makes its first algorithm, as its first task starts
// with DA's last tasks in flight and more of SA's to go: a 20 ms timer,
// which this test used, stopped landing mid-sweep once the 150×150 grid's
// sweep took ~11 ms (2-core Xeon, before the periodic pass as after it).
func TestSweepCancellationPromptAndLeakFree(t *testing.T) {
	before := runtime.NumGoroutine()

	// 11k admissible cells: 18 (algorithm, model-chunk) tasks.
	grid := make([]float64, 150)
	for i := range grid {
		grid[i] = 0.05 + float64(i)*0.05
	}
	ctx, cancel := context.WithCancel(context.Background())
	spec := SweepSpec{CDs: grid, CCs: grid, Battery: DefaultBattery(), Parallelism: 4}
	sa := func(initial model.Set, t int) (dom.Algorithm, error) {
		cancel()
		return dom.StaticFactory(initial, t)
	}
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		ls, err := newLanes([2]dom.Factory{sa, dom.DynamicFactory}, spec.Battery.layout(), spec.Battery.Initial(), spec.Battery.T)
		if err == nil {
			_, err = sweep(ctx, spec, ls)
		}
		done <- err
	}()
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

// A context cancelled before the call must abort Search and Factor too.
func TestSearchAndFitPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Search(ctx, SearchConfig{
		Model: cost.SC(0.2, 0.8), N: 4, T: 2, Length: 8, Restarts: 2, Steps: 20,
	}); !errors.Is(err, context.Canceled) {
		t.Errorf("Search err = %v, want context.Canceled", err)
	}
	if _, err := Factor(ctx, cost.SC(0.4, 1.1), dom.StaticFactory, adversary.SAPunisher(5, 1), DefaultBattery().Initial(), 2); !errors.Is(err, context.Canceled) {
		t.Errorf("Factor err = %v, want context.Canceled", err)
	}
}
