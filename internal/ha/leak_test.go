package ha

import (
	"runtime"
	"testing"
	"time"

	"objalloc/internal/model"
	"objalloc/internal/quorum"
	"objalloc/internal/sim"
	"objalloc/internal/storage"
)

// TestCloseIsIdempotentAndLeakFree: every executed stack runs on the one
// processor runtime, so one check covers them all — after Close (called
// twice) no actor goroutine is left, for SA, DA, quorum, and an ha cluster
// that went through a failover → failback cycle (which closes two engines
// on the way).
func TestCloseIsIdempotentAndLeakFree(t *testing.T) {
	const n = 5
	drive := func(t *testing.T, c interface {
		Read(model.ProcessorID) (storage.Version, error)
		Write(model.ProcessorID, []byte) (storage.Version, error)
	}) {
		t.Helper()
		for p := model.ProcessorID(0); p < n; p++ {
			if _, err := c.Write(p, []byte("w")); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Read((p + 1) % n); err != nil {
				t.Fatal(err)
			}
		}
	}
	simStack := func(protocol sim.Protocol) func(t *testing.T) func() {
		return func(t *testing.T) func() {
			c, err := sim.New(sim.Config{N: n, T: 2, Protocol: protocol, Initial: model.FullSet(2)})
			if err != nil {
				t.Fatal(err)
			}
			drive(t, c)
			return c.Close
		}
	}
	stacks := map[string]func(t *testing.T) (close func()){
		"SA": simStack(sim.SA),
		"DA": simStack(sim.DA),
		"quorum": func(t *testing.T) func() {
			c, err := quorum.New(quorum.Config{N: n, Preload: true})
			if err != nil {
				t.Fatal(err)
			}
			drive(t, c)
			return c.Close
		},
		"ha": func(t *testing.T) func() {
			h, err := New(Config{N: n, T: 2, Initial: model.FullSet(2)})
			if err != nil {
				t.Fatal(err)
			}
			if err := h.Crash(0); err != nil {
				t.Fatal(err)
			}
			if h.Mode() != ModeQuorum {
				t.Fatalf("mode %v after essential crash", h.Mode())
			}
			if _, err := h.Write(3, []byte("degraded")); err != nil {
				t.Fatal(err)
			}
			if err := h.Restart(0); err != nil {
				t.Fatal(err)
			}
			if h.Mode() != ModeDA {
				t.Fatalf("mode %v after recovery", h.Mode())
			}
			drive(t, h)
			return h.Close
		},
	}
	for name, run := range stacks {
		t.Run(name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			closeFn := run(t)
			// Two goroutines per processor; the slack absorbs goroutines of an
			// earlier test that were still retiring when baseline was read.
			if during := runtime.NumGoroutine(); during < baseline+n {
				t.Fatalf("%d goroutines while running, baseline %d: the actors are not where this test looks", during, baseline)
			}
			closeFn()
			closeFn()
			// Close has waited for every actor to finish; the scheduler may
			// still be retiring the last of them.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > baseline {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after Close, baseline %d", runtime.NumGoroutine(), baseline)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}
