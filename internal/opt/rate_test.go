package opt

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"objalloc/internal/cost"
	"objalloc/internal/model"
)

// A read run from outside the scheme repeats only because of the cut: the
// state without the reader climbs by remote − local = cc + cd a period
// until it passes K = n·(2cc + cd + cio), and from then on the row is the
// reader's state alone, growing by one local read a period. At
// n = 3, cc = 4, cd = 11, cio = 10 it climbs by 15 past K = 87 at the
// eighth period.
func TestRateReadRunRepeatsUnderTheCut(t *testing.T) {
	ctx := context.Background()
	m := cost.Model{CC: 4, CD: 11, CIO: 10}
	plan, err := Compile(model.MustParseSchedule("r5"), model.NewSet(0, 1), 2)
	if err != nil {
		t.Fatal(err)
	}
	growth, periods, start, err := plan.Rate(ctx, m)
	if err != nil {
		t.Fatal(err)
	}
	if growth != 10 || periods != 1 || start != 8 {
		t.Errorf("Rate = growth %v over %d periods from %d, want 10 over 1 from 8", growth, periods, start)
	}

	// At cc + cd = 1 against K = 3·2001 the gap takes ~8 000 periods to
	// pass K, and Rate gives up at maxPeriods.
	if _, _, _, err := plan.Rate(ctx, cost.Model{CC: 0, CD: 1, CIO: 2000}); err == nil || !strings.Contains(err.Error(), "did not repeat within 1024 periods") {
		t.Errorf("Rate past maxPeriods: err = %v", err)
	}
}

// Past n = 6 a pass's kept rows would outgrow rowBudget before maxPeriods,
// but Rate, which cannot walk on without them, still runs as long: a read
// run by a processor outside an n−1-member scheme settles only once the
// gap of cc+cd a period has passed K = n·(2cc+cd+cio), after 25 periods
// at n = 12 and 27 at n = 13, as a period-at-a-time replay of the
// one-model DP with a text key per row found them.
func TestRateRunsPastRowBudget(t *testing.T) {
	for _, c := range []struct {
		n, t, start int
	}{{12, 2, 25}, {13, 3, 27}} {
		scheme := model.NewSet()
		for i := range c.n - 1 {
			scheme = scheme.Add(model.ProcessorID(i))
		}
		plan, err := Compile(model.Schedule{model.R(model.ProcessorID(c.n - 1))}, scheme, c.t)
		if err != nil {
			t.Fatal(err)
		}
		growth, periods, start, err := plan.Rate(context.Background(), cost.Model{CC: 4, CD: 11, CIO: 10})
		if err != nil || growth != 10 || periods != 1 || start != c.start {
			t.Errorf("n = %d: Rate = growth %v over %d periods from %d, %v; want 10 over 1 from %d",
				c.n, growth, periods, start, err, c.start)
		}
	}
}

// Whole is math.Trunc's test on each price, including where int64 no
// longer holds the value.
func TestWhole(t *testing.T) {
	xs := []float64{0, math.Copysign(0, -1), 1, 0.5, 3, -2, -2.5, 1e-300, 1<<52 - 0.5, 1 << 52, 1<<53 + 2,
		1 << 63, 1e300, math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
	for _, x := range xs {
		for _, m := range []cost.Model{{CC: x, CD: 2, CIO: 1}, {CC: 1, CD: x, CIO: 0}, {CC: 0, CD: 1, CIO: x}} {
			if got, want := Whole(m), x == math.Trunc(x); got != want {
				t.Errorf("Whole(%+v) = %t, want %t", m, got, want)
			}
		}
	}
}

func TestRateRefusals(t *testing.T) {
	plan, err := Compile(model.MustParseSchedule("r2 w0"), model.NewSet(0, 1), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := plan.Rate(context.Background(), cost.SC(0.5, 1)); err == nil {
		t.Error("Rate accepted a price that is not whole")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, _, err := plan.Rate(ctx, cost.SC(1, 2)); !errors.Is(err, context.Canceled) {
		t.Errorf("Rate under a cancelled context: err = %v, want context.Canceled", err)
	}
}

// Steps is Rate's walk a request at a time: along a random walk over the
// plan's requests from the start row, the rises add up to the optimum of
// the walked schedule (run, with no cut), at t = 1 and t = 2.
func TestStepsWalkTheOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := cost.Model{CC: 3, CD: 12, CIO: 10}
	reqs := model.MustParseSchedule("r0 w0 r1 w1 r2 w2 r3 w3")
	for _, avail := range []int{1, 2} {
		initial := model.FullSet(avail)
		plan, err := Compile(reqs, initial, avail)
		if err != nil {
			t.Fatal(err)
		}
		for walk := 0; walk < 20; walk++ {
			var row, next, rises []float64
			var sched model.Schedule
			total := 0.0
			for len(sched) < 30 {
				if next, rises, err = plan.Steps(m, row, next[:0], rises[:0]); err != nil {
					t.Fatal(err)
				}
				k, width := rng.Intn(len(reqs)), len(next)/len(reqs)
				row = append(row[:0], next[k*width:][:width]...)
				sched, total = append(sched, reqs[k]), total+rises[k]
			}
			res, err := Solve(m, sched, initial, avail)
			if err != nil {
				t.Fatal(err)
			}
			if total != res.Cost {
				t.Errorf("t = %d, %v: the rises add to %v, the optimum is %v", avail, sched, total, res.Cost)
			}
		}
	}
}

// A batch of rows steps as each row does alone, bit for bit, across grid
// passes' chunk boundaries and with an odd chunk's pad column: the rows a
// random walk from the start reaches, repeated to 2·stepsChunk + 3 rows.
func TestStepsBatchIsEachRow(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	m := cost.Model{CC: 3, CD: 12, CIO: 10}
	reqs := model.MustParseSchedule("r0 w0 r1 w1 r2 w2 r3 w3")
	plan, err := Compile(reqs, model.FullSet(2), 2)
	if err != nil {
		t.Fatal(err)
	}
	var walked, row []float64
	for range 40 {
		next, _, err := plan.Steps(m, row, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		k, width := rng.Intn(len(reqs)), len(next)/len(reqs)
		row = append(row[:0], next[k*width:][:width]...)
		walked = append(walked, row...)
	}
	var batch []float64
	for len(batch) < (2*stepsChunk+3)*len(row) {
		batch = append(batch, walked...)
	}
	batch = batch[:(2*stepsChunk+3)*len(row)]
	all, allRises, err := plan.Steps(m, batch, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(batch)/len(row); i++ {
		one, rises, err := plan.Steps(m, batch[i*len(row):][:len(row)], nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(one, all[i*len(one):][:len(one)]) || !slices.Equal(rises, allRises[i*len(rises):][:len(rises)]) {
			t.Fatalf("row %d of the batch steps to %v, %v; alone to %v, %v", i, all[i*len(one):][:len(one)], allRises[i*len(rises):][:len(rises)], one, rises)
		}
	}
}

func TestStepsRefusals(t *testing.T) {
	plan, err := Compile(model.MustParseSchedule("r2 w0"), model.NewSet(0, 1), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := plan.Steps(cost.SC(0.5, 1), nil, nil, nil); err == nil {
		t.Error("Steps accepted a price that is not whole")
	}
	if _, _, err := plan.Steps(cost.SC(1, 2), []float64{0, 1}, nil, nil); err == nil {
		t.Error("Steps accepted a row of 2 values for 4 feasible states")
	}
}
