package server

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"objalloc/internal/cost"
	"objalloc/internal/model"
	"objalloc/internal/netsim"
	"objalloc/internal/tracing"
)

// traceFingerprint runs the snapshot-determinism workload (adaptive
// engine, mobile model, faults, seed 42) under a deterministic tracer
// and returns the canonical trace file bytes.
func traceFingerprint(t *testing.T, shards, workers int) string {
	t.Helper()
	tr := tracing.New(tracing.Config{Deterministic: true})
	s, err := New(Config{
		Shards: shards, N: 6, T: 3, Seed: 42,
		Engine: EngineAdaptive,
		Model:  cost.MC(0.25, 1),
		Faults: &netsim.FaultPlan{Seed: 9, Loss: 0.2, Dup: 0.1, Delay: 0.15, DelayMax: 3},
		Retry:  netsim.RetryPolicy{MaxAttempts: 4},
		Trace:  tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	drive(t, s, 24, 15, workers)
	s.Drain()
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestTraceDeterminismAcrossShardsAndWorkers is the tentpole guarantee:
// a deterministic-mode trace file is byte-identical at any shard count
// and client parallelism under the same seed.
func TestTraceDeterminismAcrossShardsAndWorkers(t *testing.T) {
	want := traceFingerprint(t, 1, 1)
	if want == "" {
		t.Fatal("empty baseline trace")
	}
	for _, tc := range []struct{ shards, workers int }{{1, 8}, {3, 1}, {3, 8}, {8, 8}} {
		got := traceFingerprint(t, tc.shards, tc.workers)
		if got != want {
			t.Fatalf("trace at shards=%d workers=%d diverges from serial baseline", tc.shards, tc.workers)
		}
	}
}

// TestTraceReconcilesExactly checks the acceptance criterion that
// traceview reproduces the exact billed cost from spans alone: on a
// fully-sampled trace, the sum of service-span cost units equals the
// engine's drain-time total, and the message/I/O counts match.
func TestTraceReconcilesExactly(t *testing.T) {
	for _, engine := range []Engine{EngineDA, EngineSA, EngineAdaptive} {
		t.Run(engine.String(), func(t *testing.T) {
			tr := tracing.New(tracing.Config{Deterministic: true})
			s, err := New(Config{
				Shards: 3, N: 6, T: 3, Seed: 11,
				Engine: engine,
				Model:  cost.MC(0.25, 1),
				Faults: &netsim.FaultPlan{Seed: 5, Loss: 0.15, Delay: 0.1, DelayMax: 2},
				Retry:  netsim.RetryPolicy{MaxAttempts: 4},
				Trace:  tr,
			})
			if err != nil {
				t.Fatal(err)
			}
			drive(t, s, 16, 12, 4)
			s.Drain()
			var buf bytes.Buffer
			if _, err := tr.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			a, err := tracing.Parse(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if !a.FullySampled() {
				t.Fatalf("trace not fully sampled: %+v", a.Summary)
			}
			if err := a.Reconcile(); err != nil {
				t.Fatal(err)
			}
			st := s.Stats()
			if got, want := a.SpanCostMilli(), milli(st.Cost); got != want {
				t.Fatalf("span cost %d milli != stats cost %d milli", got, want)
			}
			if int64(len(a.Requests)) != a.Summary.Requests {
				t.Fatalf("trace has %d requests, summary says %d", len(a.Requests), a.Summary.Requests)
			}
		})
	}
}

// TestTraceParentPropagation checks DoTraced records spans under the
// caller's trace context — the in-process analogue of the traceparent
// header.
func TestTraceParentPropagation(t *testing.T) {
	tr := tracing.New(tracing.Config{})
	s, err := New(Config{Shards: 2, N: 4, T: 2, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	parent, err := tracing.ParseTraceparent("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.DoTraced("obj", model.W(1), parent); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Do("untied", model.R(0)); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	var buf bytes.Buffer
	tr.WriteTo(&buf)
	a, err := tracing.Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var tied, fresh int
	for _, s := range a.Spans {
		if s.Name != tracing.NameRequest {
			continue
		}
		if s.Trace == parent.Trace.String() {
			tied++
			if s.Parent != parent.Span.String() {
				t.Fatalf("tied root parent = %q, want caller span %q", s.Parent, parent.Span.String())
			}
		} else {
			fresh++
			if s.Parent != "" {
				t.Fatalf("fresh root has parent %q", s.Parent)
			}
		}
	}
	if tied != 1 || fresh != 1 {
		t.Fatalf("tied/fresh roots = %d/%d, want 1/1", tied, fresh)
	}
	// Non-deterministic traces carry wall clocks: the request root's
	// duration covers its queue + service children.
	for _, rv := range a.Requests {
		if rv.TotalNS <= 0 {
			t.Fatalf("request %s/%d has no wall-clock duration", rv.Object, rv.Seq)
		}
	}
}

// TestTraceOverloadSampled checks admission rejections are always kept
// by the tail sampler and marked with the overloaded outcome.
func TestTraceOverloadSampled(t *testing.T) {
	stall := make(chan struct{})
	tr := tracing.New(tracing.Config{SampleRate: 1e-12}) // only flagged survive
	s, err := New(Config{
		Shards: 1, Queue: 1, Batch: 1, N: 2, T: 1, Trace: tr,
		testBeforeRound: func(int) { <-stall },
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Do("hot", model.R(0)) // occupies the single queue slot
	}()
	// The stalled shard loop cannot consume the mailbox, so once the
	// first task is visibly enqueued the next submission must bounce.
	for len(s.shards[0].mail) == 0 {
		runtime.Gosched()
	}
	if _, err := s.Do("hot2", model.R(0)); err == nil {
		t.Fatal("second request accepted past the full queue")
	}
	close(stall)
	<-done
	s.Drain()
	var buf bytes.Buffer
	tr.WriteTo(&buf)
	a, err := tracing.Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var rejected int
	for _, rv := range a.Requests {
		if rv.Outcome == "overloaded" {
			rejected++
		}
	}
	if rejected == 0 {
		t.Fatal("no overloaded request traced despite rejections")
	}
}

// TestTracedRunMatchesUntracedAccounting pins the observability rule:
// attaching a tracer must not change the deterministic accounting.
func TestTracedRunMatchesUntracedAccounting(t *testing.T) {
	run := func(tr *tracing.Tracer) Stats {
		s, err := New(Config{
			Shards: 2, N: 6, T: 3, Seed: 42, Model: cost.MC(0.25, 1),
			Faults: &netsim.FaultPlan{Seed: 9, Loss: 0.2, Delay: 0.15, DelayMax: 3},
			Retry:  netsim.RetryPolicy{MaxAttempts: 4},
			Trace:  tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		drive(t, s, 12, 10, 4)
		s.Drain()
		return s.Stats()
	}
	plain := run(nil)
	traced := run(tracing.New(tracing.Config{Deterministic: true}))
	if fmt.Sprintf("%.6f", plain.Cost) != fmt.Sprintf("%.6f", traced.Cost) ||
		plain.Counts != traced.Counts || plain.Retrans != traced.Retrans {
		t.Fatalf("tracing changed the accounting:\nplain  %+v\ntraced %+v", plain, traced)
	}
}
