package competitive

import (
	"errors"
	"math/rand"
	"testing"

	"objalloc/internal/cost"
	"objalloc/internal/dom"
	"objalloc/internal/model"
	"objalloc/internal/workload"
)

// saboteur is SA until step at, where it does something no legal
// allocation schedule contains.
type saboteur struct {
	dom.Algorithm
	at, k int
	spoil func(model.Step) model.Step
}

func (s *saboteur) Step(q model.Request) model.Step {
	st := s.Algorithm.Step(q)
	if s.k++; s.k-1 == s.at {
		st = s.spoil(st)
	}
	return st
}

// lane.measure reduces an algorithm's run to its counts one step at a
// time; what it keeps must be the total of the materialised allocation
// schedule, and what it rejects must be rejected as Validate rejects it.
func TestMeasureStreamEqualsMaterialised(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 500; iter++ {
		n := 2 + rng.Intn(5)
		tAvail := 1 + rng.Intn(min(n, 3))
		initial := model.FullSet(tAvail + rng.Intn(n-tAvail+1))
		sched := workload.Uniform(rng, n, rng.Intn(60), []float64{0.05, 0.3, 0.7}[iter%3])
		for f, factory := range saDA {
			l, err := newLane(factory, landedSlots([]model.Schedule{sched}), initial, tAvail)
			if err != nil {
				t.Fatal(err)
			}
			if err := l.measure(0); err != nil {
				t.Fatal(err)
			}
			las, err := dom.RunFactory(factory, initial, tAvail, sched)
			if err != nil {
				t.Fatal(err)
			}
			if want, _ := cost.ScheduleCounts(las, initial); l.counts[0] != want {
				t.Fatalf("iter %d, factory %d: streamed %v, materialised %v\nt=%d initial=%v sched: %v",
					iter, f, l.counts[0], want, tAvail, initial, sched)
			}
		}
	}

	sched := model.MustParseSchedule("r3 w0 r2 w3 r1 r4 w2")
	initial, tAvail := model.NewSet(0, 1), 2
	for name, spoil := range map[string]func(model.Step) model.Step{
		"empty execution set": func(st model.Step) model.Step { st.Exec = 0; return st },
		"read from a processor without the object": func(st model.Step) model.Step {
			if st.Request.IsRead() {
				st.Exec = model.NewSet(5)
			}
			return st
		},
		"write below t": func(st model.Step) model.Step {
			if st.Request.IsWrite() {
				st.Exec = model.NewSet(st.Request.Processor)
			}
			return st
		},
		"saving write": func(st model.Step) model.Step { st.Saving = st.Request.IsWrite(); return st },
	} {
		rejected := 0
		for at := range sched {
			bad := func(initial model.Set, t int) (dom.Algorithm, error) {
				alg, err := dom.StaticFactory(initial, t)
				return &saboteur{Algorithm: alg, at: at, spoil: spoil}, err
			}
			las, err := dom.RunFactory(bad, initial, tAvail, sched)
			if err != nil {
				t.Fatal(err)
			}
			var want *model.Violation
			if err := las.Validate(initial, tAvail); err != nil && !errors.As(err, &want) {
				t.Fatal(err)
			}
			l, err := newLane(bad, landedSlots([]model.Schedule{sched}), initial, tAvail)
			if err != nil {
				t.Fatal(err)
			}
			var got *model.Violation
			if err := l.measure(0); err != nil && !errors.As(err, &got) {
				t.Fatal(err)
			}
			switch {
			case want == nil && got == nil: // the spoiler left this step legal
			case want == nil || got == nil || *got != *want:
				t.Errorf("%s at step %d: stream reports %v, Validate %v", name, at, got, want)
			default:
				rejected++
			}
		}
		if rejected == 0 {
			t.Errorf("%s: no step of %v was made illegal", name, sched)
		}
	}
}
