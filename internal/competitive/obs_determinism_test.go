package competitive

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"objalloc/internal/cost"
	"objalloc/internal/dom"
	"objalloc/internal/obs"
)

// The instrumentation layer must not reintroduce scheduling
// nondeterminism: a sweep observed at Parallelism 8 must produce the
// same registry snapshot and the same byte-for-byte event stream as the
// same sweep at Parallelism 1.
func TestSweepObsDeterminism(t *testing.T) {
	run := func(parallelism int) (obs.Snapshot, []byte) {
		var buf bytes.Buffer
		r := obs.NewRegistry()
		spec := SweepSpec{
			CDs:         []float64{0.5, 1.0, 2.0},
			CCs:         []float64{0.2, 0.8, 1.5},
			Battery:     BatteryConfig{N: 5, T: 2, RandomSchedules: 2, RandomLength: 14, NemesisRounds: 10},
			Seed:        7,
			Parallelism: parallelism,
			Obs:         &obs.Obs{Registry: r, Sink: obs.NewJSONL(&buf)},
		}
		if _, err := Sweep(context.Background(), spec); err != nil {
			t.Fatal(err)
		}
		return r.Snapshot(), buf.Bytes()
	}

	serialSnap, serialEvents := run(1)
	parallelSnap, parallelEvents := run(8)

	if !reflect.DeepEqual(serialSnap, parallelSnap) {
		t.Errorf("registry snapshots differ:\nserial:   %+v\nparallel: %+v", serialSnap, parallelSnap)
	}
	if !bytes.Equal(serialEvents, parallelEvents) {
		t.Errorf("event streams differ:\nserial:\n%s\nparallel:\n%s", serialEvents, parallelEvents)
	}
	if serialSnap.Counters == nil || len(serialEvents) == 0 {
		t.Fatal("observed sweep produced no metrics or events")
	}

	// The bound's work counters are in the compared snapshot, and they
	// account for every (schedule, admissible cell) pair.
	pairs := map[string]int64{}
	for _, c := range serialSnap.Counters {
		pairs[c.Name] = c.Value
	}
	priced, pruned := pairs["sweep.pairs_priced"], pairs["sweep.pairs_pruned"]
	// The battery is 2 random mixes × 4 write fractions, the skewed mix
	// and the 3 nemesis families.
	if want := int64(12 * (pairs["sweep.cells"] - pairs["sweep.cells.skipped"])); priced == 0 || priced+pruned != want {
		t.Errorf("sweep.pairs_priced %d + sweep.pairs_pruned %d, want %d in all", priced, pruned, want)
	}

	// Sanity on the stream's content: one "cell" event per grid point.
	cells := bytes.Count(serialEvents, []byte(`{"event":"cell"`))
	if want := 3 * 3; cells != want {
		t.Fatalf("event stream has %d cell events, want %d", cells, want)
	}
}

// A search observed through the same bundle must also be deterministic:
// restart events come out in restart order regardless of which worker
// finished first.
func TestSearchObsDeterminism(t *testing.T) {
	run := func(parallelism int) (obs.Snapshot, []byte) {
		var buf bytes.Buffer
		r := obs.NewRegistry()
		cfg := SearchConfig{
			Model: cost.SC(0.3, 1.2), Factory: dom.DynamicFactory,
			N: 4, T: 2, Length: 10,
			Restarts: 6, Steps: 40, Seed: 3,
			Parallelism: parallelism,
			Obs:         &obs.Obs{Registry: r, Sink: obs.NewJSONL(&buf)},
		}
		if _, err := Search(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
		return r.Snapshot(), buf.Bytes()
	}

	serialSnap, serialEvents := run(1)
	parallelSnap, parallelEvents := run(6)

	if !reflect.DeepEqual(serialSnap, parallelSnap) {
		t.Errorf("registry snapshots differ:\nserial:   %+v\nparallel: %+v", serialSnap, parallelSnap)
	}
	if !bytes.Equal(serialEvents, parallelEvents) {
		t.Errorf("event streams differ:\nserial:\n%s\nparallel:\n%s", serialEvents, parallelEvents)
	}
	if restarts := bytes.Count(serialEvents, []byte(`{"event":"restart"`)); restarts != 6 {
		t.Fatalf("event stream has %d restart events, want 6", restarts)
	}
}
