package competitive

import (
	"context"
	"runtime"
	"testing"

	"objalloc/internal/model"
	"objalloc/internal/opt"
)

// benchSweepSpec is the sweep bench/'s sweep_offline workload runs as its
// rep-th operation: the 6×6 figure-1 grid over DefaultBattery, the battery
// seed cycling through goldenSeeds values.
func benchSweepSpec(rep, parallelism int) SweepSpec {
	return SweepSpec{
		CDs: goldenAxis, CCs: goldenAxis,
		Battery:     DefaultBattery(),
		Parallelism: parallelism,
		Seed:        1 + int64(rep%goldenSeeds),
	}
}

// benchSweeps runs n bench-shaped sweeps and returns what they added to
// the runtime's allocation and GC counters.
func benchSweeps(tb testing.TB, n, parallelism int) (bytes, mallocs, gcCycles uint64) {
	ctx := context.Background()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for rep := 0; rep < n; rep++ {
		if _, err := Sweep(ctx, benchSweepSpec(rep, parallelism)); err != nil {
			tb.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs, uint64(after.NumGC - before.NumGC)
}

// BenchmarkSweep is a measuring aid for the sweep's allocation and GC
// traffic (`make allocs`); speed claims come from bench/ alone.
func BenchmarkSweep(b *testing.B) {
	for _, c := range []struct {
		name        string
		parallelism int
	}{{"parallelism=1", 1}, {"parallelism=default", 0}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			_, _, gcCycles := benchSweeps(b, b.N, c.parallelism)
			b.ReportMetric(1000*float64(gcCycles)/float64(b.N), "gc/kop")
		})
	}
}

// BenchmarkBound is the lower bound's share of a bench-shaped sweep, a
// measuring aid for `make allocs`: in each lane, the bounds over the
// default battery from what measuring counted (opt.BoundOf), then the
// lazy rule at the grid's 21 admissible cells on the task's own copies,
// each building its signature on its first Price — the lane's lead per
// cell, the +Inf test and round 2's test against the worst ratios the
// sweep found, with the relaxation priced only where the floor cannot
// decide. A bound that costs more than the DP passes it saves is no gain;
// this row is where that shows.
func BenchmarkBound(b *testing.B) {
	ctx := context.Background()
	spec := benchSweepSpec(0, 1)
	if err := spec.Normalize(); err != nil {
		b.Fatal(err)
	}
	models := gridModels(goldenAxis, false)
	ls, err := newLanes(saDA, landedSlots(spec.Battery.Build()), spec.Battery.Initial(), spec.Battery.T)
	if err != nil {
		b.Fatal(err)
	}
	worst, _, err := ls.worst(ctx, models, opt.ModelChunk(spec.Battery.N), 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	scheds := ls[0].scheds
	procs, reads := make([]model.Set, len(scheds)), make([]int, len(scheds))
	for i, s := range scheds {
		procs[i], reads[i] = s.Processors(), s.Reads()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for f, l := range ls {
			for i, s := range scheds {
				if l.bounds[i], err = opt.BoundOf(s, l.initial, l.t, procs[i], reads[i]); err != nil {
					b.Fatal(err)
				}
			}
			x := l.newPairBounds(models)
			for j := range models {
				x.lead(j)
				for s := range scheds {
					_ = x.unbounded(s, j) || x.under(s, j, worst[f][j])
				}
			}
		}
	}
}
