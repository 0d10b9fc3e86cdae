package objalloc_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"objalloc"
)

// The §1.3 worked example: a dynamic strategy beats a static one on the
// schedule r1 r1 r2 w2 r2 r2 r2.
func ExampleRatio() {
	sched := objalloc.MustParseSchedule("r1 r1 r2 w2 r2 r2 r2")
	m := objalloc.SC(0.25, 1.0)
	initial := objalloc.NewSet(0, 1)

	sa, _ := objalloc.Ratio(m, objalloc.StaticFactory, sched, initial, 2)
	da, _ := objalloc.Ratio(m, objalloc.DynamicFactory, sched, initial, 2)
	fmt.Printf("SA pays %.2fx the optimum, DA pays %.2fx\n", sa.Ratio, da.Ratio)
	// Output: SA pays 1.43x the optimum, DA pays 1.10x
}

func ExampleNewDynamic() {
	alg, _ := objalloc.NewDynamic(objalloc.NewSet(0, 1), 2)
	las := objalloc.Run(alg, objalloc.MustParseSchedule("r4 w0 r4"))
	fmt.Println(las)
	// Output: R4{0} w0{0,1} R4{0}
}

func TestFacadeEndToEnd(t *testing.T) {
	sched := objalloc.MustParseSchedule("w2 r4 w3 r1 r2")
	initial := objalloc.NewSet(0, 1)
	m := objalloc.SC(0.3, 1.2)

	optCost, err := objalloc.OptimalCostContext(context.Background(), m, sched, initial, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := objalloc.OptimalContext(context.Background(), m, sched, initial, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != optCost {
		t.Errorf("OptimalContext cost %g != OptimalCostContext %g", res.Cost, optCost)
	}

	alg, err := objalloc.NewStatic(initial, 2)
	if err != nil {
		t.Fatal(err)
	}
	las := objalloc.Run(alg, sched)
	if got := objalloc.ScheduleCost(m, las, initial); got < optCost {
		t.Errorf("SA cost %g below optimum %g", got, optCost)
	}
}

func TestFacadeBounds(t *testing.T) {
	m := objalloc.SC(0.5, 1.5)
	if got := objalloc.SABound(m); got != 3.0 {
		t.Errorf("SABound = %g", got)
	}
	if got := objalloc.DABound(m); got != 2.5 { // cd > 1: 2+cc
		t.Errorf("DABound = %g", got)
	}
}

func TestFacadeCluster(t *testing.T) {
	c, err := objalloc.NewCluster(4,
		objalloc.WithProtocol(objalloc.ProtocolDA),
		objalloc.WithInitial(objalloc.NewSet(0, 1)),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write(2, []byte("x")); err != nil {
		t.Fatal(err)
	}
	v, err := c.Read(3)
	if err != nil {
		t.Fatal(err)
	}
	if string(v.Data) != "x" {
		t.Errorf("read %q", v.Data)
	}
}

func TestFacadeHAAndQuorum(t *testing.T) {
	h, err := objalloc.NewHACluster(5, objalloc.WithInitial(objalloc.NewSet(0, 1)))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if _, err := h.Write(2, []byte("y")); err != nil {
		t.Fatal(err)
	}

	q, err := objalloc.NewQuorumCluster(3, objalloc.WithPreload(true))
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if _, err := q.Write(0, []byte("z")); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeWorkloadsAndSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if s := objalloc.UniformWorkload(rng, 4, 10, 0.5); len(s) != 10 {
		t.Error("uniform workload wrong length")
	}
	if s := objalloc.ZipfWorkload(rng, 4, 10, 0.5, 1.5); len(s) != 10 {
		t.Error("zipf workload wrong length")
	}
	if s := objalloc.MobileTrace(rng, 4, 3, 2); s.Writes() != 3 {
		t.Error("mobile trace writes wrong")
	}
	if s := objalloc.PublishingTrace(rng, 4, 2, objalloc.NewSet(0), 1); s.Writes() != 2 {
		t.Error("publishing trace writes wrong")
	}
	if s := objalloc.AppendOnlyTrace(rng, 4, 2, 1); s.Writes() != 2 {
		t.Error("append-only trace writes wrong")
	}

	// A one-row grid, cd 0.5 and 1.5 at cc 0.2: the band the bounds leave
	// open, then DA's region.
	var cells []objalloc.Proved
	for _, cd := range []float64{0.5, 1.5} {
		c, err := objalloc.Classify(context.Background(), objalloc.SC(0.2, cd))
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells, c)
	}
	if cells[0].DA3.States == 0 || cells[1].Mark != 'D' {
		t.Errorf("cells %c with %d states and %c, want a graph at n = 3 and D", cells[0].Mark, cells[0].DA3.States, cells[1].Mark)
	}
	if out := objalloc.RenderProved(cells, false); !strings.ContainsRune(out, 'D') {
		t.Errorf("render has no D:\n%s", out)
	}
}

func TestFacadeDB(t *testing.T) {
	db, err := objalloc.OpenDB(objalloc.DBConfig{
		Factory: objalloc.DynamicFactory, T: 2, Model: objalloc.SC(0.3, 1.2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Write("doc", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Read("doc", 3); err != nil {
		t.Fatal(err)
	}
	if db.TotalCost() <= 0 {
		t.Error("no cost accounted")
	}
}

func TestFacadeStores(t *testing.T) {
	mem := objalloc.NewMemStore()
	if err := mem.Put(objalloc.Version{Seq: 1, Data: []byte("m")}); err != nil {
		t.Fatal(err)
	}
	disk, err := objalloc.OpenDiskStore(t.TempDir()+"/obj.log", objalloc.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	if err := disk.Put(objalloc.Version{Seq: 1, Data: []byte("d")}); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeBaselines(t *testing.T) {
	if _, err := objalloc.NewConvergent(objalloc.NewSet(0, 1), 2, 16); err != nil {
		t.Fatal(err)
	}
	sched := objalloc.MustParseSchedule("r3 r3 w0")
	for _, f := range []objalloc.Factory{objalloc.ConvergentFactory(8), objalloc.KThresholdFactory(2)} {
		alg, err := f(objalloc.NewSet(0, 1), 2)
		if err != nil {
			t.Fatal(err)
		}
		las := objalloc.Run(alg, sched)
		if err := las.Validate(objalloc.NewSet(0, 1), 2); err != nil {
			t.Fatal(err)
		}
		// Their state is more than their scheme, so no exact factor is
		// theirs: KThreshold(2) repeats its scheme on r2 while its read
		// counter does not.
		if f, err := objalloc.AsymptoticFactor(context.Background(), objalloc.SC(0.3, 1.2), f, objalloc.MustParseSchedule("r2"), objalloc.NewSet(0, 1), 2); err == nil {
			t.Errorf("AsymptoticFactor = %v for %s, want a refusal", f, alg.Name())
		}
	}
}

func TestFacadeOfflineApproximations(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sched := objalloc.UniformWorkload(rng, 20, 100, 0.3) // beyond the exact solver
	initial := objalloc.NewSet(0, 1)
	m := objalloc.SC(0.3, 1.2)

	beam, err := objalloc.OptimalBeamContext(context.Background(), m, sched, initial, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !(beam.Cost > 0) {
		t.Errorf("beam cost %g", beam.Cost)
	}
	if err := beam.Alloc.Validate(initial, 2); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeHeteroAndLatency(t *testing.T) {
	m := objalloc.ClusteredHetero(6, 3, 0.1, 0.5, 1, 5, 1)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	flat := objalloc.UniformHetero(4, objalloc.SC(0.3, 1.2))
	if err := flat.Validate(); err != nil {
		t.Fatal(err)
	}

	alg, err := objalloc.NewDynamic(objalloc.NewSet(0, 1), 2)
	if err != nil {
		t.Fatal(err)
	}
	las := objalloc.Run(alg, objalloc.MustParseSchedule("r3 w0 r3 r3"))
	res, err := objalloc.SimulateLatency(objalloc.LatencyProfile{
		ControlTime: 0.05, DataTime: 1, DiskTime: 0.5, SharedBus: true,
	}, las, objalloc.NewSet(0, 1), objalloc.UniformArrivals(len(las), 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Mean <= 0 || res.BusUtilization() <= 0 {
		t.Errorf("latency result: %+v", res.Summary)
	}
}

func TestFacadeAdvisor(t *testing.T) {
	if objalloc.Advise(objalloc.SC(0.2, 1.5)) != objalloc.AdviseDA {
		t.Error("cd > 1 should advise DA")
	}
	if objalloc.Advise(objalloc.SC(0.1, 0.2)) != objalloc.AdviseSA {
		t.Error("cheap messages should advise SA")
	}
	if objalloc.Advise(objalloc.SC(0.3, 0.8)) != objalloc.AdviseEither {
		t.Error("the gap should advise either")
	}
	rng := rand.New(rand.NewSource(5))
	sample := objalloc.UniformWorkload(rng, 5, 80, 0.2)
	adv, err := objalloc.AdviseForWorkload(objalloc.SC(0.3, 0.8), sample, objalloc.NewSet(0, 1), 2)
	if err != nil {
		t.Fatal(err)
	}
	if adv.Best != "SA" && adv.Best != "DA" {
		t.Errorf("best = %q", adv.Best)
	}
}

// Advising an algorithm for a mobile deployment straight from the figures.
func ExampleAdvise() {
	fmt.Println(objalloc.Advise(objalloc.MC(0.2, 1.0)))
	fmt.Println(objalloc.Advise(objalloc.SC(0.1, 0.2)))
	// Output:
	// DA
	// SA
}

// Running the executed DA protocol and pricing the traffic it generated.
func ExampleNewCluster() {
	c, _ := objalloc.NewCluster(4,
		objalloc.WithProtocol(objalloc.ProtocolDA),
		objalloc.WithInitial(objalloc.NewSet(0, 1)),
	)
	defer c.Close()
	c.Write(2, []byte("v2"))
	c.Read(3) // saving-read: 3 joins the allocation scheme
	fmt.Println(c.Counts(), c.Scheme())
	// Output: 2cc+2cd+4io {0,2,3}
}

func TestFacadeFeedAndTrace(t *testing.T) {
	f, err := objalloc.OpenFeed(objalloc.FeedConfig{Stations: 4, T: 2, Policy: objalloc.TemporaryOrders})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Publish(1, []byte("img")); err != nil {
		t.Fatal(err)
	}
	data, seq, err := f.Latest(3)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 1 || string(data) != "img" {
		t.Errorf("latest = %d %q", seq, data)
	}
}

func TestFacadeCacheManager(t *testing.T) {
	m, err := objalloc.NewCacheManager(objalloc.CacheConfig{
		N: 4, Capacity: 2, Replacement: objalloc.CacheLRU, Model: objalloc.SC(0.3, 1.2),
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Read("a", 2)
	m.Read("b", 2)
	m.Read("c", 2) // evicts a
	if m.Evictions() != 1 {
		t.Errorf("evictions = %d", m.Evictions())
	}
	if m.Cost() <= 0 {
		t.Error("no cost accounted")
	}
	_ = objalloc.CacheMRU
}

// The certified search, its shrunk period and a certified crossover point,
// through the facade.
func TestFacadeSearchShrinkCrossover(t *testing.T) {
	ctx := context.Background()
	initial := objalloc.NewSet(0, 1)
	m := objalloc.SC(0.3, 0.9)
	res, err := objalloc.SearchWorstCaseContext(ctx, objalloc.SearchConfig{
		Model: m, N: 5, T: 2, Length: 8, Restarts: 4, Steps: 150, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Factor <= 1.5 || res.Factor > objalloc.DABound(m) {
		t.Errorf("certified factor %v on %v outside (1.5, %v]", res.Factor, res.Period, objalloc.DABound(m))
	}
	// The period is shrunk: dropping any one request lowers its factor.
	for i := range res.Period {
		less := append(append(objalloc.Schedule{}, res.Period[:i]...), res.Period[i+1:]...)
		if f, err := objalloc.AsymptoticFactor(ctx, m, objalloc.DynamicFactory, less, initial, 2); err == nil && f >= res.Factor {
			t.Errorf("%v without request %d still reads %v >= %v", res.Period, i, f, res.Factor)
		}
	}

	// At SC(0.3, 0.49), inside the band the bounds leave open, a 6-request
	// period gives DA a factor above SA's exact 1+cc+cd: SA is better there.
	at := objalloc.SC(0.3, 0.49)
	f, err := objalloc.AsymptoticFactor(ctx, at, objalloc.DynamicFactory, objalloc.MustParseSchedule("w1 r4 r3 w2 r3 r4"), initial, 2)
	if err != nil {
		t.Fatal(err)
	}
	if f <= objalloc.SABound(at) {
		t.Errorf("DA's factor %v at %v does not exceed SA's %v", f, at, objalloc.SABound(at))
	}

	// Closed-loop latency through the facade.
	alg, _ := objalloc.NewStatic(objalloc.NewSet(0, 1), 2)
	las := objalloc.Run(alg, objalloc.MustParseSchedule("r3 r4 w0 r3"))
	lr, err := objalloc.SimulateLatencyClosedLoop(objalloc.LatencyProfile{DataTime: 1, DiskTime: 0.5}, las, objalloc.NewSet(0, 1), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if lr.Summary.Mean <= 0 {
		t.Error("closed-loop mean not positive")
	}
}

func TestFacadeTopologyAwareDAAndFit(t *testing.T) {
	hm := objalloc.ClusteredHetero(6, 3, 0.05, 0.25, 0.8, 4.0, 1)
	alg, err := objalloc.TopologyAwareDynamicFactory(hm)(objalloc.NewSet(0, 3, 5), 3)
	if err != nil {
		t.Fatal(err)
	}
	st := alg.Step(objalloc.R(4)) // cluster-B reader served by F member 3
	if st.Exec != objalloc.NewSet(3) {
		t.Errorf("aware DA served from %v", st.Exec)
	}

	factor, err := objalloc.AsymptoticFactor(context.Background(), objalloc.SC(0.4, 1.1), objalloc.StaticFactory,
		objalloc.Schedule{objalloc.R(5)}, objalloc.NewSet(0, 1), 2)
	if err != nil {
		t.Fatal(err)
	}
	if factor != 2.5 {
		t.Errorf("SA's factor on a read run = %v, want 2.5", factor)
	}
}

// ExampleClassify marks cells of Figure 1 from exact factors: the paper's
// regions where its bounds decide, and in the band they leave open a
// nemesis period that makes DA worse than SA from 4 processors on, or DA's
// exact factor on 3 processors where no witness beats SA's.
func ExampleClassify() {
	for _, m := range []objalloc.CostModel{objalloc.SC(0.1, 0.2), objalloc.SC(0.2, 0.4), objalloc.SC(0.3, 0.7), objalloc.SC(0.2, 1.5), objalloc.SC(0.5, 0.2)} {
		c, err := objalloc.Classify(context.Background(), m)
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("cc=%.1f cd=%.1f %c", m.CC, m.CD, c.Mark)
		switch {
		case c.N > 0:
			fmt.Printf(": DA %.4g > SA %.4g from n = %d on %v", c.Witness, c.SA, c.N, c.Period)
		case c.DA3.States > 0:
			fmt.Printf(": DA %d/%d < SA %.4g at n = 3", c.DA3.Num, c.DA3.Den, c.SA)
		}
		fmt.Println()
	}
	// Output:
	// cc=0.1 cd=0.2 S
	// cc=0.2 cd=0.4 S: DA 1.667 > SA 1.6 from n = 4 on r2 r3 w0
	// cc=0.3 cd=0.7 d: DA 60/37 < SA 2 at n = 3
	// cc=0.2 cd=1.5 D
	// cc=0.5 cd=0.2 x
}

// TestGrandTour exercises the whole public surface end to end in one
// miniature scenario: generate a workload, pick an algorithm with the
// advisor, run it analytically and on the executed cluster, check the costs
// agree, survive a failure, and reproduce a figure cell.
func TestGrandTour(t *testing.T) {
	rng := rand.New(rand.NewSource(1994))
	m := objalloc.SC(0.2, 1.5)
	initial := objalloc.NewSet(0, 1)
	// Hot readers outside the initial scheme: the classic DA-favorable
	// pattern (remote reads that repeat until the next write).
	sample := func() objalloc.Schedule {
		var s objalloc.Schedule
		for i := 0; i < 30; i++ {
			s = append(s, objalloc.W(objalloc.ProcessorID(rng.Intn(2))))
			for r := 0; r < 4; r++ {
				s = append(s, objalloc.R(objalloc.ProcessorID(4+rng.Intn(2))))
			}
		}
		return s
	}()

	// 1. Advice: cd > 1 and a read-heavy sample — both layers say DA.
	if objalloc.Advise(m) != objalloc.AdviseDA {
		t.Fatal("analytic advice should be DA at cd > 1")
	}
	adv, err := objalloc.AdviseForWorkload(m, sample, initial, 2)
	if err != nil {
		t.Fatal(err)
	}
	if adv.Best != "DA" {
		t.Fatalf("empirical advice = %q", adv.Best)
	}

	// 2. Analytic run, bound check, optimal comparison.
	alg, err := objalloc.NewDynamic(initial, 2)
	if err != nil {
		t.Fatal(err)
	}
	las := objalloc.Run(alg, sample)
	if err := las.Validate(initial, 2); err != nil {
		t.Fatal(err)
	}
	analyticCost := objalloc.ScheduleCost(m, las, initial)
	meas, err := objalloc.Ratio(m, objalloc.DynamicFactory, sample, initial, 2)
	if err != nil {
		t.Fatal(err)
	}
	if meas.Ratio > objalloc.DABound(m) {
		t.Fatalf("ratio %.3f above the paper bound", meas.Ratio)
	}

	// 3. Executed run matches the analytic cost exactly.
	cluster, err := objalloc.NewCluster(6,
		objalloc.WithProtocol(objalloc.ProtocolDA),
		objalloc.WithInitial(initial),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.Run(sample); err != nil {
		cluster.Close()
		t.Fatal(err)
	}
	executedCost := cluster.Cost(m)
	cluster.Close()
	if diff := executedCost - analyticCost; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("executed %.4f != analytic %.4f", executedCost, analyticCost)
	}

	// 4. The same deployment survives an F failure.
	h, err := objalloc.NewHACluster(6, objalloc.WithInitial(initial))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if _, err := h.Write(2, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := h.Crash(0); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Read(3); err != nil {
		t.Fatalf("read during outage: %v", err)
	}
	if err := h.Restart(0); err != nil {
		t.Fatal(err)
	}

	// 5. The figure cell this deployment sits in: DA superior.
	cell, err := objalloc.Classify(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if cell.Mark != 'D' {
		t.Fatalf("figure cell = %c", cell.Mark)
	}
}
