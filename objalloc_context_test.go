package objalloc_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"objalloc"
)

// Cancelling mid-sweep through the facade must surface context.Canceled.
func TestFacadeSweepContextCancellation(t *testing.T) {
	// Large enough (11k admissible cells, over a second of work) that the
	// sweep cannot finish before the cancel lands.
	grid := make([]float64, 150)
	for i := range grid {
		grid[i] = 0.05 + float64(i)*0.06
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := objalloc.SweepContext(ctx, objalloc.SweepSpec{
			CDs: grid, CCs: grid, Battery: objalloc.DefaultBattery(), Parallelism: 4,
		})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("sweep did not return after cancellation")
	}
}

// Every context entry point must refuse an already-cancelled context.
func TestFacadePreCancelledContexts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := objalloc.SC(0.3, 1.2)
	sched := objalloc.MustParseSchedule("w2 r4 w3 r1 r2")
	initial := objalloc.NewSet(0, 1)

	if _, err := objalloc.OptimalCostContext(ctx, m, sched, initial, 2); !errors.Is(err, context.Canceled) {
		t.Errorf("OptimalCostContext err = %v, want context.Canceled", err)
	}
	if _, err := objalloc.OptimalContext(ctx, m, sched, initial, 2); !errors.Is(err, context.Canceled) {
		t.Errorf("OptimalContext err = %v, want context.Canceled", err)
	}
	if _, err := objalloc.OptimalBeamContext(ctx, m, sched, initial, 2, 8); !errors.Is(err, context.Canceled) {
		t.Errorf("OptimalBeamContext err = %v, want context.Canceled", err)
	}
	if _, err := objalloc.SearchWorstCaseContext(ctx, objalloc.SearchConfig{
		Model: m, N: 4, T: 2, Length: 8, Restarts: 2, Steps: 20,
	}); !errors.Is(err, context.Canceled) {
		t.Errorf("SearchWorstCaseContext err = %v, want context.Canceled", err)
	}
}

// SearchWorstCaseContext must be deterministic across parallelism through
// the facade, and the deprecated form must match Parallelism-default runs.
func TestFacadeSearchContextDeterministic(t *testing.T) {
	cfg := objalloc.SearchConfig{
		Model: objalloc.SC(0.3, 1.1), N: 5, T: 2, Length: 10, Restarts: 4, Steps: 25, Seed: 7,
	}
	cfg.Parallelism = 1
	serial, err := objalloc.SearchWorstCaseContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Parallelism = 8
	parallel, err := objalloc.SearchWorstCaseContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Factor != parallel.Factor || serial.Period.String() != parallel.Period.String() {
		t.Errorf("facade search not deterministic: serial %.6f %v, parallel %.6f %v",
			serial.Factor, serial.Period, parallel.Factor, parallel.Period)
	}

	cfg.Parallelism = 0
	byDefault, err := objalloc.SearchWorstCaseContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if byDefault.Factor != serial.Factor {
		t.Errorf("default-parallelism factor %.6f != serial %.6f", byDefault.Factor, serial.Factor)
	}
}

func TestFacadeDefaultParallelism(t *testing.T) {
	if objalloc.DefaultParallelism() < 1 {
		t.Errorf("DefaultParallelism() = %d, want >= 1", objalloc.DefaultParallelism())
	}
}
