package netsim

import (
	"errors"
	"sync/atomic"
	"testing"

	"objalloc/internal/model"
	"objalloc/internal/storage"
)

// relay is a toy protocol for exercising the runtime on its own: a
// command of k hops sends a message around the ring that is forwarded
// until its hop count reaches zero.
type relay struct {
	rt      *Runtime[int]
	id      model.ProcessorID
	n       int
	handled *atomic.Int64
}

func (r *relay) HandleCommand(hops int) { r.forward(uint64(hops)) }

func (r *relay) HandleMessage(m Message) {
	r.handled.Add(1)
	if m.Seq > 0 {
		r.forward(m.Seq - 1)
	}
}

func (r *relay) forward(hops uint64) {
	next := model.ProcessorID((int(r.id) + 1) % r.n)
	r.rt.Network().Send(Message{From: r.id, To: next, Type: TInvalidate, Seq: hops})
}

func newRelay(t *testing.T, n int, faults *FaultPlan) (*Runtime[int], *atomic.Int64) {
	t.Helper()
	rt, err := NewRuntime[int](n, nil, nil, faults, RetryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	handled := new(atomic.Int64)
	rt.Start(func(id model.ProcessorID, _ storage.Store) Handler[int] {
		return &relay{rt: rt, id: id, n: n, handled: handled}
	})
	return rt, handled
}

// TestRuntimeQuiesceUnderDelay: Quiesce returns only once no tracked work
// is outstanding and the network holds no delayed message — so every
// message of the cascade has been handled — even when most messages are
// artificially held.
func TestRuntimeQuiesceUnderDelay(t *testing.T) {
	const n, hops, cascades = 4, 40, 3
	rt, handled := newRelay(t, n, &FaultPlan{Seed: 7, Delay: 0.6, DelayMax: 5})
	defer rt.Close()
	for round := 1; round <= 5; round++ {
		for p := 0; p < cascades; p++ {
			if err := rt.Submit(model.ProcessorID(p), hops); err != nil {
				t.Fatal(err)
			}
		}
		rt.Quiesce()
		rt.track.mu.Lock()
		outstanding := rt.track.n
		rt.track.mu.Unlock()
		if outstanding != 0 {
			t.Fatalf("round %d: Quiesce returned with %d tracked items outstanding", round, outstanding)
		}
		rt.net.mu.Lock()
		for k, l := range rt.net.links {
			if len(l.held) != 0 {
				t.Errorf("round %d: Quiesce returned with %d messages held on link %v", round, len(l.held), k)
			}
		}
		rt.net.mu.Unlock()
		// No loss or duplication in the plan: each cascade is hops+1
		// messages, all handled by now.
		if got, want := handled.Load(), int64(round*cascades*(hops+1)); got != want {
			t.Fatalf("round %d: %d messages handled at quiescence, want %d", round, got, want)
		}
	}
	if rt.net.Stats().Delayed == 0 {
		t.Fatal("the delay plan held nothing — the test is vacuous")
	}
}

// TestTrackerUnderflowPanics: finishing more work than was tracked is a
// bug in the runtime's accounting and must not pass silently.
func TestTrackerUnderflowPanics(t *testing.T) {
	rt, _ := newRelay(t, 1, nil)
	defer rt.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("tracker underflow did not panic")
		}
	}()
	rt.track.done()
}

// TestRuntimeSubmitAfterClose: a command submitted to a closed runtime is
// reported as closed rather than queued for a loop that has exited, and
// Close is idempotent.
func TestRuntimeSubmitAfterClose(t *testing.T) {
	rt, _ := newRelay(t, 3, nil)
	if err := rt.Submit(0, 2); err != nil {
		t.Fatal(err)
	}
	rt.Quiesce()
	rt.Close()
	rt.Close()
	for i := 0; i < 100; i++ {
		if err := rt.Submit(model.ProcessorID(i%3), 1); !errors.Is(err, ErrClosed) {
			t.Fatalf("submit %d after Close: got %v, want ErrClosed", i, err)
		}
	}
	reply := make(chan Result, 1)
	if _, err := rt.Perform(1, 1, reply, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Perform after Close: got %v, want ErrClosed", err)
	}
	if err := rt.Submit(9, 1); err == nil || errors.Is(err, ErrClosed) {
		t.Fatalf("submit to unknown processor: got %v", err)
	}
}
