package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"objalloc/internal/cost"
	"objalloc/internal/dom"
	"objalloc/internal/model"
	"objalloc/internal/netsim"
	"objalloc/internal/storage"
	"objalloc/internal/workload"
)

func newCluster(t *testing.T, protocol Protocol, n, tAvail int) *Cluster {
	t.Helper()
	c, err := New(Config{N: n, T: tAvail, Protocol: protocol, Initial: model.FullSet(tAvail)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{N: 0, T: 2, Initial: model.NewSet(0, 1)},
		{N: 4, T: 0, Initial: model.NewSet(0, 1)},
		{N: 4, T: 3, Initial: model.NewSet(0, 1)},
		{N: 2, T: 2, Initial: model.NewSet(0, 5)},
		{N: 4, T: 1, Protocol: DA, Initial: model.NewSet(0)},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
}

func TestInitialScheme(t *testing.T) {
	for _, p := range []Protocol{SA, DA} {
		c := newCluster(t, p, 5, 2)
		if got := c.Scheme(); got != model.NewSet(0, 1) {
			t.Errorf("%v initial scheme = %v", p, got)
		}
	}
}

func TestProtocolString(t *testing.T) {
	if SA.String() != "SA" || DA.String() != "DA" || Protocol(7).String() == "" {
		t.Error("protocol strings wrong")
	}
}

func TestReadYourWrite(t *testing.T) {
	for _, p := range []Protocol{SA, DA} {
		c := newCluster(t, p, 5, 2)
		want, err := c.Write(3, []byte("hello"))
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Read(3)
		if err != nil {
			t.Fatal(err)
		}
		if got.Seq != want.Seq || string(got.Data) != "hello" {
			t.Errorf("%v: read-your-write got %+v", p, got)
		}
	}
}

func TestEveryReadSeesLatestWrite(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, p := range []Protocol{SA, DA} {
		c := newCluster(t, p, 6, 2)
		sched := workload.Uniform(rng, 6, 120, 0.3)
		versions, err := c.Run(sched)
		if err != nil {
			t.Fatal(err)
		}
		latest := uint64(1) // preloaded initial version
		for i, q := range sched {
			if q.IsWrite() {
				latest = versions[i].Seq
				continue
			}
			if versions[i].Seq != latest {
				t.Fatalf("%v: read %d (%v) saw seq %d, latest is %d", p, i, q, versions[i].Seq, latest)
			}
		}
	}
}

func TestDASchemeEvolution(t *testing.T) {
	// Mirror of the dom.Dynamic unit test, but through the executed
	// protocol: F = {0}, p = 1, t = 2.
	c := newCluster(t, DA, 8, 2)

	if _, err := c.Read(4); err != nil { // 4 joins via saving-read
		t.Fatal(err)
	}
	if got := c.Scheme(); got != model.NewSet(0, 1, 4) {
		t.Errorf("scheme after join = %v", got)
	}

	if _, err := c.Write(7, nil); err != nil { // write by outsider: F∪{7}
		t.Fatal(err)
	}
	if got := c.Scheme(); got != model.NewSet(0, 7) {
		t.Errorf("scheme after outsider write = %v", got)
	}

	if _, err := c.Write(0, nil); err != nil { // write by F: F∪{p}
		t.Fatal(err)
	}
	if got := c.Scheme(); got != model.NewSet(0, 1) {
		t.Errorf("scheme after core write = %v", got)
	}
}

func TestSASchemeConstant(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := newCluster(t, SA, 6, 3)
	sched := workload.Uniform(rng, 6, 60, 0.4)
	if _, err := c.Run(sched); err != nil {
		t.Fatal(err)
	}
	if got := c.Scheme(); got != model.NewSet(0, 1, 2) {
		t.Errorf("SA scheme drifted to %v", got)
	}
}

// E15: the executed protocol's message and I/O counts must equal the
// analytic cost model's accounting of the corresponding dom allocation
// schedule — exactly, for both protocols, across random workloads.
func TestSimulatorFidelity(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(6)
		tAvail := 2 + rng.Intn(2)
		if tAvail > n {
			tAvail = n
		}
		sched := workload.Uniform(rng, n, 60, rng.Float64())
		initial := model.FullSet(tAvail)

		for _, tc := range []struct {
			protocol Protocol
			factory  dom.Factory
		}{{SA, dom.StaticFactory}, {DA, dom.DynamicFactory}} {
			c, err := New(Config{N: n, T: tAvail, Protocol: tc.protocol, Initial: initial})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Run(sched); err != nil {
				c.Close()
				t.Fatal(err)
			}
			got := c.Counts()
			c.Close()

			las, err := dom.RunFactory(tc.factory, initial, tAvail, sched)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := cost.ScheduleCounts(las, initial)
			if got != want {
				t.Fatalf("trial %d %v (n=%d t=%d): executed counts %v != analytic %v\nsched: %v",
					trial, tc.protocol, n, tAvail, got, want, sched)
			}
		}
	}
}

// distinctReaderSchedule interleaves writes with read-runs in which every
// read comes from a different processor. For such schedules the cost of a
// read-run is order-independent, so concurrent execution must reproduce the
// sequential analysis exactly.
func distinctReaderSchedule(rng *rand.Rand, n, rounds int) model.Schedule {
	var sched model.Schedule
	for r := 0; r < rounds; r++ {
		perm := rng.Perm(n)
		k := 1 + rng.Intn(n)
		for _, p := range perm[:k] {
			sched = append(sched, model.R(model.ProcessorID(p)))
		}
		sched = append(sched, model.W(model.ProcessorID(rng.Intn(n))))
	}
	return sched
}

// Fidelity also holds when reads between writes execute concurrently,
// provided the concurrent readers are distinct (the paper's reads between
// two writes are then order-independent).
func TestSimulatorFidelityConcurrentReads(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		n := 5
		sched := distinctReaderSchedule(rng, n, 16)
		initial := model.NewSet(0, 1)
		c, err := New(Config{N: n, T: 2, Protocol: DA, Initial: initial})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.RunConcurrent(sched); err != nil {
			c.Close()
			t.Fatal(err)
		}
		got := c.Counts()
		c.Close()

		las, err := dom.RunFactory(dom.DynamicFactory, initial, 2, sched)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := cost.ScheduleCounts(las, initial)
		if got != want {
			t.Fatalf("trial %d: concurrent counts %v != analytic %v\nsched: %v", trial, got, want, sched)
		}
	}
}

// When the same processor issues several reads concurrently, each one may
// miss locally (the sequential analysis would serve all but the first from
// the saved copy), so the executed cost can only meet or exceed the
// sequential analysis — never undercut it.
func TestConcurrentDuplicateReadsCostAtLeastSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 10; trial++ {
		sched := workload.Uniform(rng, 5, 80, 0.2)
		initial := model.NewSet(0, 1)
		c, err := New(Config{N: 5, T: 2, Protocol: DA, Initial: initial})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.RunConcurrent(sched); err != nil {
			c.Close()
			t.Fatal(err)
		}
		got := c.Counts()
		c.Close()

		las, err := dom.RunFactory(dom.DynamicFactory, initial, 2, sched)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := cost.ScheduleCounts(las, initial)
		if got.Control < want.Control || got.Data < want.Data || got.IO < want.IO {
			t.Fatalf("trial %d: concurrent counts %v undercut sequential %v", trial, got, want)
		}
	}
}

// TestRunConcurrentDeterministic: a read burst is every read in flight
// before any reply is handled, so its counts are a function of the
// schedule even when a reader repeats inside a burst — the case a
// goroutine per read answered differently from run to run. The repeat can
// only cost more than the sequential run (each in-flight read misses
// locally), and without one the two agree exactly.
func TestRunConcurrentDeterministic(t *testing.T) {
	const n = 6
	counts := func(sched model.Schedule, concurrent bool) cost.Counts {
		t.Helper()
		c := newCluster(t, DA, n, 3)
		run := c.Run
		if concurrent {
			run = c.RunConcurrent
		}
		if _, err := run(sched); err != nil {
			t.Fatal(err)
		}
		return c.Counts()
	}
	rng := rand.New(rand.NewSource(3))
	repeated := workload.Uniform(rng, n, 300, 0.2)
	var burst model.Set
	repeats := 0
	for _, q := range repeated {
		switch {
		case q.IsWrite():
			burst = model.EmptySet
		case burst.Contains(q.Processor):
			repeats++
		default:
			burst = burst.Add(q.Processor)
		}
	}
	if repeats == 0 {
		t.Fatal("no reader repeats inside a burst — the test is vacuous")
	}
	first := counts(repeated, true)
	for i := 1; i < 20; i++ {
		if got := counts(repeated, true); got != first {
			t.Fatalf("run %d: counts %v, first run %v", i, got, first)
		}
	}
	seq := counts(repeated, false)
	if first.Control < seq.Control || first.Data < seq.Data || first.IO < seq.IO {
		t.Fatalf("concurrent counts %v undercut sequential %v", first, seq)
	}
	if first == seq {
		t.Fatalf("%d repeated readers cost nothing extra: %v", repeats, first)
	}
	distinct := distinctReaderSchedule(rng, n, 16)
	if conc, seq := counts(distinct, true), counts(distinct, false); conc != seq {
		t.Fatalf("distinct readers: concurrent counts %v != sequential %v", conc, seq)
	}
}

func TestCostPricing(t *testing.T) {
	c := newCluster(t, SA, 4, 2)
	if _, err := c.Read(3); err != nil { // remote read: 1cc + 1cd + 1io
		t.Fatal(err)
	}
	m := cost.SC(0.25, 1.5)
	if got, want := c.Cost(m), 0.25+1.5+1.0; got != want {
		t.Errorf("Cost = %g, want %g", got, want)
	}
	c.ResetCounts()
	if c.Cost(m) != 0 {
		t.Error("ResetCounts did not zero")
	}
}

// runLinearizable runs sched as RunConcurrent bursts on a fresh n-processor
// cluster and checks that writes take the places of the total order one
// after another and that every read of a burst observes the latest write.
func runLinearizable(t *testing.T, p Protocol, n int, sched model.Schedule) *Cluster {
	t.Helper()
	c := newCluster(t, p, n, 2)
	versions, err := c.RunConcurrent(sched)
	if err != nil {
		t.Fatal(err)
	}
	latest := uint64(1)
	for i, q := range sched {
		if q.IsWrite() {
			if versions[i].Seq != latest+1 {
				t.Fatalf("%v, n=%d: write %d (%v) took seq %d after seq %d", p, n, i, q, versions[i].Seq, latest)
			}
			latest = versions[i].Seq
			continue
		}
		if versions[i].Seq != latest {
			t.Fatalf("%v, n=%d: concurrent read %d (%v) saw seq %d, latest %d", p, n, i, q, versions[i].Seq, latest)
		}
	}
	return c
}

func TestLinearizabilityUnderConcurrentReads(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, p := range []Protocol{SA, DA} {
		runLinearizable(t, p, 8, workload.Uniform(rng, 8, 150, 0.25))
	}
}

// TestConcurrentCallersSerialised: a cluster has one owner, so concurrent
// readers are a RunConcurrent burst. Forty writes over six processors, each
// followed by a burst of twenty reads — every processor reads three or four
// times inside one burst — and every burst read sees the write before it;
// a final read sees the last write.
func TestConcurrentCallersSerialised(t *testing.T) {
	const n, writes, readers = 6, 40, 20
	var bursts model.Schedule
	for i := 0; i < writes; i++ {
		bursts = append(bursts, model.W(model.ProcessorID(i%n)))
		for r := 0; r < readers; r++ {
			bursts = append(bursts, model.R(model.ProcessorID((r+i)%n)))
		}
	}
	for _, p := range []Protocol{SA, DA} {
		c := runLinearizable(t, p, n, bursts)
		if v, err := c.Read(n - 1); err != nil || v.Seq != writes+1 {
			t.Errorf("%v: final read = seq %d, %v; want seq %d", p, v.Seq, err, writes+1)
		}
	}
}

func TestUnknownProcessor(t *testing.T) {
	c := newCluster(t, SA, 3, 2)
	if _, err := c.Read(9); err == nil {
		t.Error("read from unknown processor accepted")
	}
	if _, err := c.Write(-1, nil); err == nil {
		t.Error("write from unknown processor accepted")
	}
}

func TestOperationsAfterClose(t *testing.T) {
	c, err := New(Config{N: 3, T: 2, Protocol: SA, Initial: model.NewSet(0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	c.Close() // idempotent
}

func TestWorkedExampleThroughSimulator(t *testing.T) {
	// §1.3's intuition executed end to end: on the read-heavy-at-2 tail
	// schedule, DA's total cost is lower than SA's under SC costs with an
	// expensive data message.
	sched := model.MustParseSchedule("r2 r2 w0 r2 r2 r2 r2 r2")
	m := cost.SC(0.25, 1.5)
	var costs [2]float64
	for i, p := range []Protocol{SA, DA} {
		c := newCluster(t, p, 4, 2)
		if _, err := c.Run(sched); err != nil {
			t.Fatal(err)
		}
		costs[i] = c.Cost(m)
	}
	if costs[1] >= costs[0] {
		t.Errorf("DA (%g) should beat SA (%g) on a read-heavy outsider schedule", costs[1], costs[0])
	}
}

func BenchmarkClusterRunDA(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	sched := workload.Uniform(rng, 8, 200, 0.3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := New(Config{N: 8, T: 2, Protocol: DA, Initial: model.NewSet(0, 1)})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Run(sched); err != nil {
			b.Fatal(err)
		}
		c.Close()
	}
}

func TestLoads(t *testing.T) {
	c := newCluster(t, DA, 5, 2) // F = {0}
	// Three outsider reads all served by min(F) = 0.
	for _, p := range []model.ProcessorID{2, 3, 4} {
		if _, err := c.Read(p); err != nil {
			t.Fatal(err)
		}
	}
	loads := c.Loads()
	if len(loads) != 5 {
		t.Fatalf("loads = %d", len(loads))
	}
	server := loads[0]
	if server.Net.ControlReceived != 3 || server.Net.DataSent != 3 || server.IO.Inputs != 3 {
		t.Errorf("server load = %+v", server)
	}
	reader := loads[2]
	if reader.Net.ControlSent != 1 || reader.Net.DataReceived != 1 || reader.IO.Outputs != 1 {
		t.Errorf("reader load = %+v", reader)
	}
	// Idle processor 1 (the anchor) did nothing beyond preload.
	if loads[1].Net != (netsim.NodeStats{}) || loads[1].IO.Total() != 0 {
		t.Errorf("anchor load = %+v", loads[1])
	}
}

// DA's invalidation protocol assumes reliable delivery (the paper operates
// in the normal, failure-free mode): if a partition drops an invalidate
// control message, a detached replica can serve a stale local read. This
// negative test documents the assumption — and why §2 prescribes switching
// to quorum consensus when failures start.
func TestPartitionedInvalidationBreaksFreshness(t *testing.T) {
	c := newCluster(t, DA, 5, 2)         // F = {0}, p = 1
	if _, err := c.Read(4); err != nil { // 4 joins the scheme
		t.Fatal(err)
	}
	// Partition the link that would carry the invalidate from F to 4.
	c.Network().Partition(0, 4)
	if _, err := c.Write(2, []byte("new")); err != nil {
		t.Fatal(err)
	}
	// 4 still believes its copy is valid and serves it locally: stale.
	v, err := c.Read(4)
	if err != nil {
		t.Fatal(err)
	}
	if string(v.Data) == "new" {
		t.Fatal("expected a stale read under a partitioned invalidation; the assumption test is vacuous")
	}
	// The rest of the system is fine.
	c.Network().Heal(0, 4)
	v, err = c.Read(3)
	if err != nil {
		t.Fatal(err)
	}
	if string(v.Data) != "new" {
		t.Errorf("healthy reader saw %q", v.Data)
	}
}

// Disk-backed cluster: same protocol, durable stores.
func TestClusterWithDiskStores(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Config{
		N: 4, T: 2, Protocol: DA, Initial: model.NewSet(0, 1),
		NewStore: func(id model.ProcessorID) (storage.Store, error) {
			return storage.OpenDisk(fmt.Sprintf("%s/node-%d.log", dir, id), storage.DiskOptions{})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(3, []byte("durable")); err != nil {
		c.Close()
		t.Fatal(err)
	}
	scheme := c.Scheme()
	c.Close()
	// Re-open a scheme member's store directly: the version survived.
	holder := scheme.Min()
	st, err := storage.OpenDisk(fmt.Sprintf("%s/node-%d.log", dir, holder), storage.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	v, err := st.Get()
	if err != nil {
		t.Fatal(err)
	}
	if string(v.Data) != "durable" {
		t.Errorf("recovered %q", v.Data)
	}
}

// Scale: the executed protocols and the analytic model stay in exact
// agreement at the full 64-processor width of the model (far beyond the
// exact offline solver, which is irrelevant here).
func TestFidelityAtFullWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	n := model.MaxProcessors
	sched := workload.Uniform(rng, n, 400, 0.2)
	initial := model.NewSet(0, 1, 2)
	for _, tc := range []struct {
		protocol Protocol
		factory  dom.Factory
	}{{SA, dom.StaticFactory}, {DA, dom.DynamicFactory}} {
		c, err := New(Config{N: n, T: 3, Protocol: tc.protocol, Initial: initial})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Run(sched); err != nil {
			c.Close()
			t.Fatal(err)
		}
		got := c.Counts()
		c.Close()
		las, err := dom.RunFactory(tc.factory, initial, 3, sched)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := cost.ScheduleCounts(las, initial)
		if got != want {
			t.Fatalf("%v at n=%d: executed %v != analytic %v", tc.protocol, n, got, want)
		}
	}
}
