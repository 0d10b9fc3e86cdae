package objalloc_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"objalloc"
)

// Cancelling Classify through the facade must surface context.Canceled
// promptly, mid-build and before it: SC(0.9, 0.9) is in the band the
// bounds leave open, at a whole-price scale of 10, and its graph at n = 3
// takes ~0.1 s to build (2-core Xeon), while a cancel is seen within
// ~0.3 ms. Each cancelled call must return within a quarter of an
// uncancelled one.
func TestFacadeClassifyCancellation(t *testing.T) {
	m := objalloc.SC(0.9, 0.9)
	start := time.Now()
	if _, err := objalloc.Classify(context.Background(), m); err != nil {
		t.Fatal(err)
	}
	full := time.Since(start)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := objalloc.Classify(ctx, m)
		done <- err
	}()
	time.Sleep(full / 5)
	cancelled := time.Now()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if d := time.Since(cancelled); d > full/4 {
			t.Errorf("Classify returned %v after the cancel; a whole call takes %v", d, full)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Classify did not return after cancellation")
	}
	start = time.Now()
	if _, err := objalloc.Classify(ctx, m); !errors.Is(err, context.Canceled) {
		t.Errorf("Classify on a cancelled context: err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > full/4 {
		t.Errorf("Classify on a cancelled context took %v; a whole call takes %v", d, full)
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
