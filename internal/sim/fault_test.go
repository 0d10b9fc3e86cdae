package sim

import (
	"errors"
	"fmt"
	"testing"

	"objalloc/internal/model"
	"objalloc/internal/netsim"
)

// TestRunConcurrentMidRunCrashCleanError is the regression test for the
// failure mode where a crash injected mid-run through the raw network left
// RunConcurrent hanging forever on a read reply that would never come. The
// failure detector's nack must surface a clean error instead — no stall,
// no double-count.
func TestRunConcurrentMidRunCrashCleanError(t *testing.T) {
	c := newCluster(t, DA, 6, 3)
	// DA: F = {0, 1}, p = 2. Remote reads are served by min(F) = 0.
	if _, err := c.Write(3, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := c.Network().Crash(0); err != nil {
		t.Fatal(err)
	}

	// Processor 5 holds no copy, so its reads go to the crashed server 0.
	_, err := c.RunConcurrent(model.Schedule{model.R(5), model.R(5), model.R(5)})
	if err == nil {
		t.Fatal("reads against a crashed server should fail")
	}
	if errors.Is(err, netsim.ErrStalled) {
		t.Fatalf("RunConcurrent stalled on mid-run crash: %v", err)
	}
	var u netsim.Unreachable
	if !errors.As(err, &u) {
		t.Fatalf("want netsim.Unreachable, got %v", err)
	}
	if u.Peer != 0 {
		t.Fatalf("unreachable peer = %d, want 0", u.Peer)
	}

	// The cluster must still be functional for processors with local
	// copies, and settle (Scheme quiesces).
	if _, err := c.Read(3); err != nil {
		t.Fatalf("local read after crash: %v", err)
	}
	_ = c.Scheme()
}

// TestReadAfterCrashFailsFastWithoutRetries checks the plain (reliable
// network) cluster: a blocking read to a crashed server resolves with an
// error through the nack path even though no retry discipline is engaged.
func TestReadAfterCrashFailsFastWithoutRetries(t *testing.T) {
	c := newCluster(t, SA, 4, 2)
	if err := c.Network().Crash(0); err != nil {
		t.Fatal(err)
	}
	_, err := c.Read(3) // SA serves remote reads from min(Q) = 0
	var u netsim.Unreachable
	if !errors.As(err, &u) || u.Peer != 0 {
		t.Fatalf("want Unreachable{0}, got %v", err)
	}
}

func newLossyCluster(t *testing.T, protocol Protocol, n, tAvail int, plan netsim.FaultPlan) *Cluster {
	t.Helper()
	c, err := New(Config{
		N: n, T: tAvail, Protocol: protocol, Initial: model.FullSet(tAvail),
		Faults: &plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestLossyLinearizable runs a mixed schedule over an adversarial network
// (loss, duplication, delay, flaps) and asserts the retransmission
// discipline preserves the protocol's guarantee: every read returns the
// version of the most recent write.
func TestLossyLinearizable(t *testing.T) {
	for _, protocol := range []Protocol{SA, DA} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%v/seed%d", protocol, seed), func(t *testing.T) {
				plan := netsim.FaultPlan{
					Seed: seed, Loss: 0.15, Dup: 0.1, Delay: 0.2, DelayMax: 4,
					Flap: 0.01, FlapLen: 3,
				}
				c := newLossyCluster(t, protocol, 5, 3, plan)
				latest := uint64(1)
				step := 0
				for i := 0; i < 40; i++ {
					p := model.ProcessorID(step % 5)
					step++
					if i%4 == 3 {
						v, err := c.Write(p, []byte("w"))
						if err != nil {
							t.Fatalf("write %d: %v", i, err)
						}
						latest = v.Seq
						continue
					}
					v, err := c.Read(p)
					if err != nil {
						t.Fatalf("read %d at %d: %v", i, p, err)
					}
					if v.Seq != latest {
						t.Fatalf("read %d observed seq %d, want %d", i, v.Seq, latest)
					}
				}
				st := c.Network().Stats()
				if st.Dropped == 0 {
					t.Fatal("fault plan injected nothing — test is vacuous")
				}
				if st.RetransControl+st.RetransData == 0 {
					t.Fatal("no retransmissions despite drops")
				}
			})
		}
	}
}

// TestLossyWithoutRetriesViolates shows the other direction: with the
// retransmission discipline disabled the same adversarial network breaks
// the protocol — some read either fails or observes a stale version.
func TestLossyWithoutRetriesViolates(t *testing.T) {
	plan := netsim.FaultPlan{Seed: 2, Loss: 0.3, Delay: 0.2, DelayMax: 4}
	c, err := New(Config{
		N: 5, T: 3, Protocol: DA, Initial: model.FullSet(3),
		Faults: &plan, Retry: netsim.RetryPolicy{Disabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	violated := false
	latest := uint64(1)
	for i := 0; i < 60 && !violated; i++ {
		p := model.ProcessorID(i % 5)
		if i%3 == 2 {
			v, werr := c.Write(p, []byte("w"))
			if werr != nil {
				violated = true
				break
			}
			latest = v.Seq
			continue
		}
		// A read whose request or reply is lost with nobody retransmitting
		// reports netsim.ErrStalled.
		if v, rerr := c.Read(p); rerr != nil || v.Seq != latest {
			violated = true
		}
	}
	if !violated {
		t.Fatal("disabled retries survived an adversarial network — the discipline is not load-bearing")
	}
}

// TestLossyDeterministicCounts asserts the whole lossy execution is
// deterministic: identical schedules over identical plans produce
// identical network statistics.
func TestLossyDeterministicCounts(t *testing.T) {
	run := func() netsim.Stats {
		plan := netsim.FaultPlan{Seed: 11, Loss: 0.2, Dup: 0.15, Delay: 0.25, DelayMax: 3}
		c, err := New(Config{N: 4, T: 2, Protocol: DA, Initial: model.FullSet(2), Faults: &plan})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for i := 0; i < 30; i++ {
			p := model.ProcessorID(i % 4)
			if i%5 == 4 {
				if _, err := c.Write(p, []byte("w")); err != nil {
					t.Fatalf("write %d: %v", i, err)
				}
			} else if _, err := c.Read(p); err != nil {
				t.Fatalf("read %d: %v", i, err)
			}
		}
		c.Quiesce()
		return c.Network().Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different stats:\n%+v\n%+v", a, b)
	}
}

// TestCrashedIssuerRefused: a crashed processor issues nothing. A read or a
// write at it — alone or inside a burst — is refused with Unreachable naming
// the issuer before a message is billed or a place in the write order is
// taken (a write it "issued" used to be acknowledged having reached nobody),
// and the same operations go through once the processor is back.
func TestCrashedIssuerRefused(t *testing.T) {
	const down = model.ProcessorID(3)
	for _, p := range []Protocol{SA, DA} {
		c := newCluster(t, p, 5, 2)
		if err := c.Crash(down); err != nil {
			t.Fatal(err)
		}
		before := c.Counts()
		_, werr := c.Write(down, []byte("lost"))
		_, rerr := c.Read(down)
		_, berr := c.RunConcurrent(model.Schedule{model.R(down), model.R(down)})
		for what, err := range map[string]error{"write": werr, "read": rerr, "burst": berr} {
			var u netsim.Unreachable
			if !errors.As(err, &u) || u.Peer != down {
				t.Errorf("%v: %s at crashed %d: got %v, want Unreachable{%d}", p, what, down, err, down)
			}
		}
		if got := c.Counts(); got != before {
			t.Errorf("%v: refused operations were billed: %v, was %v", p, got, before)
		}
		if err := c.Restart(down); err != nil {
			t.Fatal(err)
		}
		// The refused write took no sequence number: the next one is 2.
		v, err := c.Write(down, []byte("kept"))
		if err != nil || v.Seq != 2 {
			t.Fatalf("%v: write after restart = seq %d, %v; want seq 2", p, v.Seq, err)
		}
		for _, sched := range []model.Schedule{{model.R(down)}, {model.R(4), model.R(down)}} {
			got, err := c.RunConcurrent(sched)
			if err != nil {
				t.Fatalf("%v: %v after restart: %v", p, sched, err)
			}
			for i, r := range got {
				if r.Seq != v.Seq {
					t.Errorf("%v: %v after restart saw seq %d, want %d", p, sched[i], r.Seq, v.Seq)
				}
			}
		}
	}
}
