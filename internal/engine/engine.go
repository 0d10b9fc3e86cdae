// Package engine is the shared parallel evaluation runner behind every
// grid-shaped workload in the repository: the (cd, cc) cells of figures 1
// and 2, the offline benchmark's plane sweep, the certified search's
// restarts, and the cmd/experiments harness. All of these are embarrassingly parallel —
// many independent evaluations whose results are combined by an
// order-insensitive or index-ordered reduction — so one bounded worker
// pool serves them all.
//
// The engine makes three guarantees the evaluation stack depends on:
//
//   - Determinism. Tasks receive only their index; results are returned
//     in index order (Collect), and per-task randomness is derived from a
//     base seed plus the task index (TaskSeed/TaskRNG), never from worker
//     identity or scheduling. A run with N workers is therefore
//     byte-identical to a run with 1 worker.
//   - Cancellation. The context is observed between tasks and passed into
//     each task; the first task error (or a cancelled parent context)
//     stops the dispatch of further tasks and cancels in-flight ones.
//     Map/Collect do not return until every started task has finished, so
//     no goroutines outlive the call.
//   - Bounded concurrency. At most workers goroutines run tasks;
//     workers <= 0 selects runtime.GOMAXPROCS(0).
package engine

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"objalloc/internal/obs"
)

// DefaultParallelism is the worker count used when a caller leaves its
// Parallelism option at zero: one worker per usable CPU.
func DefaultParallelism() int { return runtime.GOMAXPROCS(0) }

// clampWorkers resolves the worker count for n tasks.
func clampWorkers(workers, n int) int {
	if workers <= 0 {
		workers = DefaultParallelism()
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Map runs fn(ctx, i) for every i in 0..n-1 on a bounded pool of workers
// and waits for all started tasks to finish. The context passed to fn is
// cancelled as soon as any task returns an error or the parent context is
// cancelled; tasks not yet started are then skipped. Map returns the error
// of the lowest-indexed failed task, or the parent context's error when
// the run was cancelled from outside, or nil.
func Map(ctx context.Context, n, workers int, fn func(ctx context.Context, i int) error) error {
	return MapObserved(ctx, n, workers, nil, fn)
}

// MapObserved is Map with an observer hook: the observer (if non-nil)
// receives RunStart/TaskStart/TaskDone/RunDone callbacks from the worker
// goroutines, for progress reporting and queue-depth telemetry. An
// unobserved run pays one nil-check per task.
func MapObserved(ctx context.Context, n, workers int, ob obs.Observer, fn func(ctx context.Context, i int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if n <= 0 {
		return ctx.Err()
	}
	workers = clampWorkers(workers, n)
	if ob != nil {
		ob.RunStart(n)
		defer ob.RunDone()
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next     atomic.Int64 // next task index to dispatch
		mu       sync.Mutex
		firstIdx = -1 // lowest failed task index seen
		firstErr error
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || runCtx.Err() != nil {
					return
				}
				if ob != nil {
					ob.TaskStart(i)
				}
				err := fn(runCtx, i)
				if ob != nil {
					ob.TaskDone(i, err)
				}
				if err != nil {
					mu.Lock()
					if firstIdx < 0 || i < firstIdx {
						firstIdx, firstErr = i, err
					}
					mu.Unlock()
					cancel()
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		// A cancelled parent context makes tasks fail with (wrapped)
		// context errors; surfacing one of those as "the" failure points
		// the caller at an arbitrary cell instead of the cancellation.
		// Report the parent's own error for that case and reserve task
		// errors for genuine failures.
		if ctxErr := ctx.Err(); ctxErr != nil &&
			(errors.Is(firstErr, context.Canceled) || errors.Is(firstErr, context.DeadlineExceeded)) {
			return ctxErr
		}
		return firstErr
	}
	return ctx.Err()
}

// Collect is the ordered-results variant of Map: it runs fn for every
// index and returns the results in index order, so a parallel run is
// indistinguishable from a serial one. On error the partial results are
// discarded and the first error (as defined by Map) is returned.
func Collect[T any](ctx context.Context, n, workers int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	return CollectObserved(ctx, n, workers, nil, fn)
}

// CollectObserved is Collect with an observer hook; see MapObserved.
func CollectObserved[T any](ctx context.Context, n, workers int, ob obs.Observer, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := MapObserved(ctx, n, workers, ob, func(ctx context.Context, i int) error {
		v, err := fn(ctx, i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
