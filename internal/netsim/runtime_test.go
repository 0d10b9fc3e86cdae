package netsim

import (
	"errors"
	"testing"

	"objalloc/internal/model"
	"objalloc/internal/storage"
)

// relay is a toy protocol for exercising the runtime on its own: a
// cascade of k hops sends a message around the ring that is forwarded
// until its hop count reaches zero.
type relay struct {
	rg *ring
	id model.ProcessorID
}

// ring is a runtime running the relay protocol.
type ring struct {
	*Runtime
	relays  []*relay
	handled int
	// done, when non-nil, is told when a cascade reaches its last hop: one
	// cascade runs at a time where it is set.
	done func(Result)
}

func (r *relay) HandleMessage(m Message) {
	r.rg.handled++
	switch {
	case m.Seq > 0:
		r.forward(m.Seq - 1)
	case r.rg.done != nil:
		r.rg.done(Result{})
	}
}

func (r *relay) forward(hops uint64) {
	next := model.ProcessorID((int(r.id) + 1) % len(r.rg.relays))
	r.rg.Network().Send(Message{From: r.id, To: next, Type: TInvalidate, Seq: hops})
}

func newRelay(t *testing.T, n int, faults *FaultPlan, retry RetryPolicy) *ring {
	t.Helper()
	rt, err := NewRuntime(n, nil, nil, faults, retry)
	if err != nil {
		t.Fatal(err)
	}
	rg := &ring{Runtime: rt}
	rt.Start(func(id model.ProcessorID, _ storage.Store) Handler {
		r := &relay{rg: rg, id: id}
		rg.relays = append(rg.relays, r)
		return r
	})
	return rg
}

// submit starts a cascade of the given length at processor p through Do.
func (rg *ring) submit(p model.ProcessorID, hops uint64) error {
	return rg.Do(p, func() { rg.relays[p].forward(hops) })
}

// cascade is the operation of one cascade started at p: it is answered
// when the last hop is handled.
func (rg *ring) cascade(p model.ProcessorID, hops uint64) Op {
	return Op{P: p, Start: func(done func(Result)) {
		rg.done = done
		rg.relays[p].forward(hops)
	}}
}

// TestRuntimeQuiesceUnderDelay: Quiesce returns only once no mailbox holds
// a message and the network holds no delayed one — so every message of the
// cascade has been handled — even when most messages are artificially
// held.
func TestRuntimeQuiesceUnderDelay(t *testing.T) {
	const n, hops, cascades = 4, 40, 3
	rt := newRelay(t, n, &FaultPlan{Seed: 7, Delay: 0.6, DelayMax: 5}, RetryPolicy{})
	defer rt.Close()
	for round := 1; round <= 5; round++ {
		for p := 0; p < cascades; p++ {
			if err := rt.submit(model.ProcessorID(p), hops); err != nil {
				t.Fatal(err)
			}
		}
		rt.Quiesce()
		for p, ep := range rt.mailbox {
			if ep.Len() != 0 {
				t.Fatalf("round %d: Quiesce returned with %d messages in mailbox %d", round, ep.Len(), p)
			}
		}
		for k, l := range rt.net.links {
			if len(l.held) != 0 {
				t.Errorf("round %d: Quiesce returned with %d messages held on link %v", round, len(l.held), k)
			}
		}
		// No loss or duplication in the plan: each cascade is hops+1
		// messages, all handled by now.
		if got, want := rt.handled, round*cascades*(hops+1); got != want {
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
	rt := newRelay(t, n, &FaultPlan{Seed: 1, Loss: 0.4}, RetryPolicy{Disabled: true})
	defer rt.Close()
	stalled := 0
	for i := 0; i < 50; i++ {
		_, err := rt.Perform(rt.cascade(model.ProcessorID(i%n), hops))
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

// TestRuntimeSubmitAfterClose: a driver call on a closed runtime is
// reported as closed rather than run, and Close is idempotent.
func TestRuntimeSubmitAfterClose(t *testing.T) {
	rt := newRelay(t, 3, nil, RetryPolicy{})
	if err := rt.submit(0, 2); err != nil {
		t.Fatal(err)
	}
	rt.Quiesce()
	rt.Close()
	rt.Close()
	for i := 0; i < 100; i++ {
		if err := rt.submit(model.ProcessorID(i%3), 1); !errors.Is(err, ErrClosed) {
			t.Fatalf("submit %d after Close: got %v, want ErrClosed", i, err)
		}
	}
	if _, err := rt.Perform(rt.cascade(1, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Perform after Close: got %v, want ErrClosed", err)
	}
	if err := rt.submit(9, 1); err == nil || errors.Is(err, ErrClosed) {
		t.Fatalf("submit to unknown processor: got %v", err)
	}
}
