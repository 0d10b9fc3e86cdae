package objalloc_test

import (
	"context"
	"testing"

	"objalloc"
	"objalloc/internal/sim"
)

// Every evaluation spec validates and defaults itself in Normalize, and
// the entry points surface its validation errors.
func TestSpecNormalize(t *testing.T) {
	if err := (&objalloc.SearchConfig{}).Normalize(); err == nil {
		t.Error("the zero SearchConfig normalized without error")
	}
	if err := (&objalloc.SearchConfig{Model: objalloc.SC(0.25, 1), N: 2, T: 3, Length: 8}).Normalize(); err == nil {
		t.Error("a SearchConfig with T > N normalized without error")
	}
	good := &objalloc.SearchConfig{
		Model: objalloc.SC(0.25, 1), N: 4, T: 2, Length: 8,
	}
	if err := good.Normalize(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if good.Restarts != 1 {
		t.Fatalf("defaults not resolved: %+v", good)
	}
	if _, err := objalloc.SearchWorstCaseContext(context.Background(), objalloc.SearchConfig{}); err == nil {
		t.Fatal("entry point did not surface the Normalize error")
	}
}

// A cluster built through functional options behaves identically to one
// built from the equivalent config struct.
func TestClusterOptionsEquivalence(t *testing.T) {
	sched := objalloc.MustParseSchedule("w2 r4 w3 r1 r2 w0 r3")
	build := func(c *objalloc.Cluster, err error) (objalloc.Counts, objalloc.Set) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Run(sched); err != nil {
			t.Fatal(err)
		}
		return c.Counts(), c.Scheme()
	}
	optCounts, optScheme := build(objalloc.NewCluster(5,
		objalloc.WithProtocol(objalloc.ProtocolDA),
		objalloc.WithAvailability(2),
		objalloc.WithInitial(objalloc.NewSet(0, 1)),
	))
	cfgCounts, cfgScheme := build(sim.New(objalloc.ClusterConfig{
		N: 5, T: 2, Protocol: objalloc.ProtocolDA, Initial: objalloc.NewSet(0, 1),
	}))
	if optCounts != cfgCounts || optScheme != cfgScheme {
		t.Fatalf("options build diverges: %v %v vs %v %v", optCounts, optScheme, cfgCounts, cfgScheme)
	}
}

func TestClusterOptionsFaultSeed(t *testing.T) {
	run := func(opts ...objalloc.ClusterOption) objalloc.Counts {
		t.Helper()
		c, err := objalloc.NewCluster(4, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for i := 0; i < 10; i++ {
			if _, err := c.Write(objalloc.ProcessorID(i%4), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		return c.Counts()
	}
	base := []objalloc.ClusterOption{
		objalloc.WithInitial(objalloc.FullSet(2)),
		objalloc.WithFaults(objalloc.FaultPlan{Seed: 1, Loss: 0.3}),
	}
	a := run(base...)
	b := run(append(base, objalloc.WithSeed(1))...) // same seed, same run
	if a != b {
		t.Fatalf("WithSeed(1) changed a Seed-1 plan: %v vs %v", a, b)
	}
}

// The serving facade: build, drive and drain a sharded server through
// the public objalloc surface.
func TestServerFacade(t *testing.T) {
	s, err := objalloc.NewServer(objalloc.ServerConfig{
		Shards: 2, N: 4, T: 2, Model: objalloc.MC(0.25, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := s.Do("obj", objalloc.R(1)); err != nil {
			t.Fatal(err)
		}
	}
	s.Drain()
	st := s.Stats()
	if st.Accepted != 20 || st.Complete != 20 {
		t.Fatalf("accepted %d completed %d, want 20/20", st.Accepted, st.Complete)
	}
	if st.Coalesce == 0 {
		t.Fatal("repeat mobile reads were not coalesced")
	}
	if _, err := s.Do("obj", objalloc.R(1)); err != objalloc.ErrServerDraining {
		t.Fatalf("post-drain error = %v, want ErrServerDraining", err)
	}
	if eng, err := objalloc.ParseServerEngine("adaptive"); err != nil || eng != objalloc.ServerEngineAdaptive {
		t.Fatalf("ParseServerEngine = %v, %v", eng, err)
	}
}
