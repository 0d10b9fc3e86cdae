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
	// reply, when non-nil, is told when a cascade reaches its last hop.
	reply chan<- Result
}

func (r *relay) HandleCommand(hops int) { r.forward(uint64(hops)) }

func (r *relay) HandleMessage(m Message) {
	r.handled.Add(1)
	switch {
	case m.Seq > 0:
		r.forward(m.Seq - 1)
	case r.reply != nil:
		r.reply <- Result{}
	}
}

func (r *relay) forward(hops uint64) {
	next := model.ProcessorID((int(r.id) + 1) % r.n)
	r.rt.Network().Send(Message{From: r.id, To: next, Type: TInvalidate, Seq: hops})
}

func newRelay(t *testing.T, n int, faults *FaultPlan) (*Runtime[int], *atomic.Int64) {
	t.Helper()
	return newRelayReplying(t, n, faults, RetryPolicy{}, nil)
}

func newRelayReplying(t *testing.T, n int, faults *FaultPlan, retry RetryPolicy, reply chan<- Result) (*Runtime[int], *atomic.Int64) {
	t.Helper()
	rt, err := NewRuntime[int](n, nil, nil, faults, retry)
	if err != nil {
		t.Fatal(err)
	}
	handled := new(atomic.Int64)
	rt.Start(func(id model.ProcessorID, _ storage.Store) Handler[int] {
		return &relay{rt: rt, id: id, n: n, handled: handled, reply: reply}
	})
	return rt, handled
}

// TestRuntimeQuiesceUnderDelay: Quiesce returns only once no mailbox holds
// a message and the network holds no delayed one — so every message of the
// cascade has been handled — even when most messages are artificially
// held.
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
		for p, ep := range rt.mailbox {
			if ep.Len() != 0 {
				t.Fatalf("round %d: Quiesce returned with %d messages in mailbox %d", round, ep.Len(), p)
			}
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

// TestPerformStalledWithoutRetries: with loss and the retransmission
// discipline disabled, an operation whose message is lost can never
// complete. Perform says so with ErrStalled as soon as nothing is left to
// deliver — it does not block — and the runtime stays usable: a later
// operation whose messages all get through succeeds.
func TestPerformStalledWithoutRetries(t *testing.T) {
	const n, hops = 3, 2
	reply := make(chan Result, 1)
	rt, _ := newRelayReplying(t, n, &FaultPlan{Seed: 1, Loss: 0.4}, RetryPolicy{Disabled: true}, reply)
	defer rt.Close()
	stalled := 0
	for i := 0; i < 50; i++ {
		_, err := rt.Perform(model.ProcessorID(i%n), hops, reply, nil)
		switch {
		case errors.Is(err, ErrStalled):
			stalled++
		case err != nil:
			t.Fatalf("operation %d: %v", i, err)
		case stalled > 0:
			if st := rt.net.Stats(); st.DroppedLoss < stalled {
				t.Fatalf("%d operations stalled on %d losses", stalled, st.DroppedLoss)
			}
			return // an operation after a stalled one went through
		}
	}
	t.Fatalf("%d of 50 operations stalled, none succeeded after one: want both", stalled)
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
