package competitive

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"objalloc/internal/cost"
	"objalloc/internal/obs"
)

// The instrumentation layer must not reintroduce scheduling
// nondeterminism: a search observed at Parallelism 6 must produce the same
// registry snapshot and the same byte-for-byte event stream as the same
// search at Parallelism 1, restart events in restart order regardless of
// which worker finished first.
func TestSearchObsDeterminism(t *testing.T) {
	run := func(parallelism int) (obs.Snapshot, []byte) {
		var buf bytes.Buffer
		r := obs.NewRegistry()
		cfg := SearchConfig{
			Model: cost.SC(0.3, 1.2), N: 4, T: 2, Length: 10,
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
