package quorum

import (
	"errors"
	"fmt"
	"testing"

	"objalloc/internal/model"
	"objalloc/internal/netsim"
)

// TestLossyQuorumLinearizable drives the quorum engine over an adversarial
// network and asserts the retry discipline (vote/fetch/install kicks)
// preserves the intersection guarantee: every read returns the latest
// committed version.
func TestLossyQuorumLinearizable(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			plan := netsim.FaultPlan{
				Seed: seed, Loss: 0.15, Dup: 0.1, Delay: 0.2, DelayMax: 4,
			}
			c, err := New(Config{N: 5, Preload: true, Faults: &plan})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			latest := uint64(1)
			for i := 0; i < 40; i++ {
				p := model.ProcessorID(i % 5)
				if i%4 == 3 {
					v, werr := c.Write(p, []byte("w"))
					if werr != nil {
						t.Fatalf("write %d: %v", i, werr)
					}
					latest = v.Seq
					continue
				}
				v, rerr := c.Read(p)
				if rerr != nil {
					t.Fatalf("read %d at %d: %v", i, p, rerr)
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

// TestLossyQuorumGiveUpSurfacesUnavailable crashes a majority so every
// quorum round stalls; the retry budget must run out and surface
// ErrUnavailable (wrapping the unreachable peer) instead of spinning.
func TestLossyQuorumGiveUpSurfacesUnavailable(t *testing.T) {
	plan := netsim.FaultPlan{Seed: 4, Loss: 0.05}
	c, err := New(Config{N: 5, Preload: true, Faults: &plan, Retry: netsim.RetryPolicy{MaxAttempts: 3}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for id := model.ProcessorID(1); id <= 3; id++ {
		if cerr := c.Crash(id); cerr != nil {
			t.Fatal(cerr)
		}
	}
	_, err = c.Read(0)
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("want ErrUnavailable, got %v", err)
	}
}

// TestLossyQuorumDeterministic runs the same lossy schedule twice and
// asserts identical network statistics — the fault plan is a pure function
// of (seed, link, send index), independent of goroutine scheduling.
func TestLossyQuorumDeterministic(t *testing.T) {
	run := func() netsim.Stats {
		plan := netsim.FaultPlan{Seed: 9, Loss: 0.2, Dup: 0.1, Delay: 0.25, DelayMax: 3}
		c, err := New(Config{N: 4, Preload: true, Faults: &plan})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for i := 0; i < 25; i++ {
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
// write at it is refused with Unreachable naming the issuer before a vote
// request is billed (it used to stall after billing three the processor
// never sent), and the same operations go through once it is back.
func TestCrashedIssuerRefused(t *testing.T) {
	const down = model.ProcessorID(3)
	c := newCluster(t, 5)
	if err := c.Crash(down); err != nil {
		t.Fatal(err)
	}
	before, latest := c.Counts(), c.LatestSeq()
	_, werr := c.Write(down, []byte("lost"))
	_, rerr := c.Read(down)
	for what, err := range map[string]error{"write": werr, "read": rerr} {
		var u netsim.Unreachable
		if !errors.As(err, &u) || u.Peer != down {
			t.Errorf("%s at crashed %d: got %v, want Unreachable{%d}", what, down, err, down)
		}
	}
	if got := c.Counts(); got != before {
		t.Errorf("refused operations were billed: %v, was %v", got, before)
	}
	if got := c.LatestSeq(); got != latest {
		t.Errorf("LatestSeq moved from %d to %d on a refused write", latest, got)
	}
	if err := c.Restart(down); err != nil {
		t.Fatal(err)
	}
	v, err := c.Write(down, []byte("kept"))
	if err != nil || v.Seq != latest+1 {
		t.Fatalf("write after restart = seq %d, %v; want seq %d", v.Seq, err, latest+1)
	}
	if r, err := c.Read(down); err != nil || r.Seq != v.Seq {
		t.Fatalf("read after restart = seq %d, %v; want seq %d", r.Seq, err, v.Seq)
	}
}
