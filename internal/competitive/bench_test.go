package competitive

import (
	"context"
	"runtime"
	"testing"

	"objalloc/internal/cost"
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
// measuring aid for `make allocs`: opt.NewBound over the default battery,
// then the lazy rule at the grid's 21 admissible cells — each cell's two
// leads, the +Inf test and round 2's test against the worst ratios the
// sweep found, with the relaxation priced only where the floor cannot
// decide. A bound that costs more than the DP passes it saves is no gain;
// this row is where that shows.
func BenchmarkBound(b *testing.B) {
	ctx := context.Background()
	spec := benchSweepSpec(0, 1)
	var models []cost.Model
	for _, cc := range spec.CCs {
		for _, cd := range spec.CDs {
			if m := cost.SC(cc, cd); m.Region() != RegionCannotBeTrue {
				models = append(models, m)
			}
		}
	}
	prep, err := newPrepared(saDA, spec.Battery.Build(), spec.Battery.Initial(), spec.Battery.T)
	if err != nil {
		b.Fatal(err)
	}
	if err := prep.measureAll(ctx, 1, nil); err != nil {
		b.Fatal(err)
	}
	sa, da, _, err := prep.worstSADA(ctx, models, opt.ModelChunk(spec.Battery.N), 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for i, s := range prep.scheds {
			if prep.bounds[i], err = opt.NewBound(s, prep.initial, prep.t); err != nil {
				b.Fatal(err)
			}
		}
		x := prep.newPairBounds(models)
		for j := range models {
			x.lead(0, j)
			x.lead(1, j)
			for s := range prep.scheds {
				_ = x.unbounded(s, j) || x.below(s, j, sa[j], da[j])
			}
		}
	}
}
