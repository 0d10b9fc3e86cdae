package competitive

import (
	"context"
	"runtime"
	"testing"
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
