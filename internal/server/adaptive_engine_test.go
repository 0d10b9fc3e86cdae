package server

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"objalloc/internal/adaptive"
	"objalloc/internal/adversary"
	"objalloc/internal/cost"
	"objalloc/internal/model"
	"objalloc/internal/obs"
)

// driveSchedule replays one fixed schedule against every object,
// partitioned over workers by object index so per-object order is
// preserved at any worker count.
func driveSchedule(t *testing.T, s *Server, objects, workers int, sched model.Schedule) {
	t.Helper()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for o := w; o < objects; o += workers {
				name := fmt.Sprintf("obj-%d", o)
				for i := 0; i < len(sched); i++ {
					if _, err := s.Do(name, sched[i]); err != nil {
						if _, ok := err.(*Overloaded); ok {
							i-- // retry: per-object order still intact
							continue
						}
						t.Errorf("Do(%s): %v", name, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// engineFingerprint runs the fixed faulted workload of
// snapshotFingerprint under an arbitrary engine and adaptive spec and
// returns the deterministic registry snapshot plus the finalize event
// stream as JSON.
func engineFingerprint(t *testing.T, shards, workers int, eng Engine, spec adaptive.Spec) string {
	t.Helper()
	reg := obs.NewRegistry()
	sink := &obs.MemSink{}
	s, err := New(Config{
		Shards: shards, Engine: eng, Adaptive: spec, N: 6, T: 3, Seed: 42,
		Model: cost.SC(0.25, 1),
		Loss:  0.2, LossSeed: 9, Attempts: 4,
		Obs: &obs.Obs{Registry: reg, Sink: sink},
	})
	if err != nil {
		t.Fatal(err)
	}
	drive(t, s, 24, 15, workers)
	s.Drain()
	snap, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	events, err := json.Marshal(sink.Events())
	if err != nil {
		t.Fatal(err)
	}
	return string(snap) + "\n" + string(events)
}

// A pinned adaptive engine (window=inf) is the pure protocol: the whole
// deterministic accounting — registry snapshot and finalize event
// stream — must be byte-identical to EngineSA/EngineDA under the same
// seed, faults and workload.
func TestAdaptivePinnedByteIdenticalToPureEngines(t *testing.T) {
	for _, tc := range []struct {
		start string
		pure  Engine
	}{
		{"sa", EngineSA},
		{"da", EngineDA},
	} {
		t.Run(tc.start, func(t *testing.T) {
			pinned := adaptive.Spec{Window: adaptive.Disabled, Start: tc.start}
			got := engineFingerprint(t, 3, 4, EngineAdaptive, pinned)
			want := engineFingerprint(t, 3, 4, tc.pure, adaptive.Spec{})
			if got != want {
				t.Fatalf("pinned adaptive(%s) accounting diverges from pure %s engine:\n%s\nvs\n%s",
					tc.start, tc.pure, got, want)
			}
			if strings.Contains(got, "policy_switch") {
				t.Fatal("pinned adaptive run emitted policy events")
			}
		})
	}
}

// adaptiveSwitchFingerprint drives a mix-flip adversary — alternating
// read-heavy and write-heavy phases — through an actively switching
// adaptive engine and fingerprints the deterministic accounting.
func adaptiveSwitchFingerprint(t *testing.T, shards, workers int) string {
	t.Helper()
	reg := obs.NewRegistry()
	sink := &obs.MemSink{}
	s, err := New(Config{
		Shards: shards, Engine: EngineAdaptive,
		Adaptive: adaptive.Spec{Window: 8, Hysteresis: 2},
		N:        6, T: 3, Seed: 42,
		Model: cost.SC(0.25, 1),
		Obs:   &obs.Obs{Registry: reg, Sink: sink},
	})
	if err != nil {
		t.Fatal(err)
	}
	driveSchedule(t, s, 12, workers, adversary.MixFlip(5, 0, 40, 3))
	s.Drain()
	snap, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	events, err := json.Marshal(sink.Events())
	if err != nil {
		t.Fatal(err)
	}
	return string(snap) + "\n" + string(events)
}

// The acceptance criterion: a switching adaptive server's deterministic
// accounting (including every policy_switch event) is byte-identical at
// any shard count and client parallelism under a fixed seed.
func TestAdaptiveSnapshotDeterminism(t *testing.T) {
	want := adaptiveSwitchFingerprint(t, 1, 1)
	if !strings.Contains(want, `"policy_switch"`) {
		t.Fatal("mix-flip adversary triggered no policy_switch events")
	}
	if !strings.Contains(want, "server.policy_switches") {
		t.Fatal("registry snapshot missing the server.policy_switches counter")
	}
	if !strings.Contains(want, `"policy_window"`) {
		t.Fatal("no policy_window snapshot for an adapting object")
	}
	for _, tc := range []struct{ shards, workers int }{{1, 8}, {3, 1}, {3, 8}, {8, 8}} {
		got := adaptiveSwitchFingerprint(t, tc.shards, tc.workers)
		if got != want {
			t.Fatalf("adaptive snapshot at shards=%d workers=%d diverges from serial baseline:\n%s\nvs\n%s",
				tc.shards, tc.workers, got, want)
		}
	}

	// E25 end to end: with every transition billed, the switching engine
	// serves the mix-flip stream for less than the better fixed engine.
	total := func(eng Engine) float64 {
		s, err := New(Config{
			Shards: 3, Engine: eng, Adaptive: adaptive.Spec{Window: 8, Hysteresis: 2},
			N: 6, T: 3, Model: cost.SC(0.25, 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		driveSchedule(t, s, 12, 4, adversary.MixFlip(5, 0, 40, 3))
		s.Drain()
		return s.Stats().Cost
	}
	if got, best := total(EngineAdaptive), math.Min(total(EngineSA), total(EngineDA)); got >= best {
		t.Errorf("adaptive engine cost %.1f not below the best fixed engine's %.1f", got, best)
	}
}

func TestAdaptiveEngineValidation(t *testing.T) {
	if _, err := New(Config{Engine: EngineAdaptive, Adaptive: adaptive.Spec{Decay: 2}}); err == nil {
		t.Fatal("invalid adaptive spec accepted")
	}
	if eng, err := ParseEngine("adaptive"); err != nil || eng != EngineAdaptive {
		t.Fatalf("ParseEngine(adaptive) = %v, %v", eng, err)
	}
}
