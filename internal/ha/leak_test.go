package ha

import (
	"errors"
	"runtime"
	"testing"

	"objalloc/internal/model"
	"objalloc/internal/netsim"
	"objalloc/internal/quorum"
	"objalloc/internal/sim"
	"objalloc/internal/storage"
)

// TestCloseIsIdempotentAndLeakFree: every executed stack runs on the one
// processor runtime, so one check covers them all — the runtime starts no
// goroutine while a cluster runs, none is left after Close (called twice),
// and an operation after Close reports netsim.ErrClosed, for SA, DA, quorum,
// and an ha cluster that went through a failover → failback cycle (which
// closes two engines on the way).
func TestCloseIsIdempotentAndLeakFree(t *testing.T) {
	const n = 5
	type cluster interface {
		Read(model.ProcessorID) (storage.Version, error)
		Write(model.ProcessorID, []byte) (storage.Version, error)
		Close()
	}
	drive := func(t *testing.T, c cluster) {
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
	simStack := func(protocol sim.Protocol) func(t *testing.T) cluster {
		return func(t *testing.T) cluster {
			c, err := sim.New(sim.Config{N: n, T: 2, Protocol: protocol, Initial: model.FullSet(2)})
			if err != nil {
				t.Fatal(err)
			}
			drive(t, c)
			return c
		}
	}
	stacks := map[string]func(t *testing.T) cluster{
		"SA": simStack(sim.SA),
		"DA": simStack(sim.DA),
		"quorum": func(t *testing.T) cluster {
			c, err := quorum.New(quorum.Config{N: n, Preload: true})
			if err != nil {
				t.Fatal(err)
			}
			drive(t, c)
			return c
		},
		"ha": func(t *testing.T) cluster {
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
			return h
		},
	}
	for name, run := range stacks {
		t.Run(name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			c := run(t)
			// Handlers run in the caller's goroutine: a running cluster adds
			// none. (A goroutine of an earlier test may still be retiring, so
			// the count can fall, never rise.)
			if during := runtime.NumGoroutine(); during > baseline {
				t.Fatalf("%d goroutines while running, baseline %d: something started one", during, baseline)
			}
			c.Close()
			c.Close()
			if after := runtime.NumGoroutine(); after > baseline {
				t.Fatalf("%d goroutines after Close, baseline %d", after, baseline)
			}
			if _, err := c.Read(1); !errors.Is(err, netsim.ErrClosed) {
				t.Fatalf("read after Close: got %v, want ErrClosed", err)
			}
		})
	}
}
