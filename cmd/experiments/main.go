// Command experiments regenerates every evaluated artifact of Huang &
// Wolfson (ICDE 1994) — the two figures, the four theorems and three
// propositions, and the repo's consistency experiments — and prints
// paper-vs-measured for each. EXPERIMENTS.md is this program's output with
// commentary.
//
// Usage:
//
//	experiments [-experiment E5]
//	            [-metrics out.jsonl] [-progress] [-pprof addr]
//
// -metrics streams the instrumented experiments' events (figure cells,
// certified-search restarts, quorum operations) plus
// a final registry snapshot, -progress reports task progress on stderr,
// and -pprof serves net/http/pprof and expvar on the given address.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"
	"os/signal"
	"slices"
	"strings"

	"objalloc/cmd/internal/figure"
	"objalloc/internal/adversary"
	"objalloc/internal/advisor"
	"objalloc/internal/baseline"
	"objalloc/internal/cache"
	"objalloc/internal/competitive"
	"objalloc/internal/cost"
	"objalloc/internal/dom"
	"objalloc/internal/engine"
	"objalloc/internal/feed"
	"objalloc/internal/ha"
	"objalloc/internal/hetero"
	"objalloc/internal/latency"
	"objalloc/internal/model"
	"objalloc/internal/obs"
	"objalloc/internal/opt"
	"objalloc/internal/sim"
	"objalloc/internal/stats"
	"objalloc/internal/workload"
)

var (
	only      = flag.String("experiment", "", "run a single experiment, e.g. E5")
	parallel  = flag.Int("parallel", engine.DefaultParallelism(), "worker-pool size for sweeps and searches")
	metrics   = flag.String("metrics", "", "write instrumentation events and a final registry snapshot to this JSONL file")
	progress  = flag.Bool("progress", false, "report task progress on stderr")
	pprofAddr = flag.String("pprof", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060)")
)

// runCtx is cancelled by ctrl-C; the grid-shaped experiments pass it to the
// parallel engine so an interrupt aborts outstanding cells promptly.
var runCtx = context.Background()

// runObs is the shared instrumentation bundle (nil when no -metrics,
// -progress or -pprof was given); the instrumented experiments thread it
// into their specs next to runCtx.
var runObs *obs.Obs

type experiment struct {
	id, title string
	run       func()
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	flag.Parse()

	all := []experiment{
		{"E1", "Figure 1 — SC superiority regions", e1Figure1},
		{"E2", "Figure 2 — MC superiority regions", e2Figure2},
		{"E3", "Theorem 1 — SA is (1+cc+cd)-competitive (SC)", e3Theorem1},
		{"E4", "Proposition 1 — SA's bound is tight", e4Proposition1},
		{"E5", "Theorem 2 — DA is (2+2cc)-competitive (SC)", e5Theorem2},
		{"E6", "Theorem 3 — DA is (2+cc)-competitive when cd>1", e6Theorem3},
		{"E7", "Proposition 2 — DA is not 1.5-competitive", e7Proposition2},
		{"E8", "Proposition 3 — SA is not competitive (MC)", e8Proposition3},
		{"E9", "Theorem 4 — DA is (2+3cc/cd)-competitive (MC)", e9Theorem4},
		{"E10", "§1.3 worked example", e10WorkedExample},
		{"E11", "Competitiveness is independent of t", e11TSensitivity},
		{"E12", "Worst case predicts average case", e12AverageCase},
		{"E13", "Failure handling — DA with quorum fallback", e13Failover},
		{"E14", "Convergent vs competitive (§5.1)", e14Convergent},
		{"E15", "Simulator fidelity — executed = analytic", e15Fidelity},
		{"E16", "Response time under bus contention (§1.2 motivation)", e16ResponseTime},
		{"E17", "Heterogeneous (clustered) topologies (§6 extension)", e17Hetero},
		{"E18", "Offline approximation at scale (beam vs exact vs bound)", e18Beam},
		{"E19", "Advisor — operationalizing figures 1 and 2", e19Advisor},
		{"E20", "Bounded storage (§5.2 CDVM contrast)", e20Cache},
		{"E21", "Probing the open gap: certified lower bounds for DA", e21Gap},
		{"E22", "The certified SA/DA crossover curve", e22Crossover},
		{"E23", "§6.2 standing orders — executed feed policies", e23Feed},
	}
	if *only != "" && !slices.ContainsFunc(all, func(e experiment) bool { return strings.EqualFold(e.id, *only) }) {
		log.Fatalf("no experiment %q: the experiments are E1 to E%d", *only, len(all))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	runCtx = ctx

	cli, err := obs.StartCLI(obs.CLIOptions{
		Metrics: *metrics, Progress: *progress, PprofAddr: *pprofAddr, Label: "experiments",
	})
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := cli.Close(); err != nil {
			log.Fatal(err)
		}
	}()
	runObs = cli.Obs()

	for _, e := range all {
		if *only != "" && !strings.EqualFold(*only, e.id) {
			continue
		}
		fmt.Printf("\n================ %s: %s ================\n\n", e.id, e.title)
		e.run()
	}
}

func e1Figure1() { printFigure(false, "Figure 1 — stationary-computing cost model (cio = 1)") }

func e2Figure2() { printFigure(true, "Figure 2 — mobile-computing cost model (cio = 0)") }

// printFigure prints cmd/figure1's or cmd/figure2's report at its defaults.
func printFigure(mobile bool, title string) {
	cells, err := figure.Grid(runCtx, mobile, 2, 10, *parallel, runObs)
	if err != nil {
		log.Fatal(err)
	}
	figure.Print(cells, title)
}

// boundCheck prints SA's (alg 0) or DA's (alg 1) exact factor at n = 3
// (exactSC) against its bound at several of scModels' cells, and returns
// whether every factor equals its bound.
func boundCheck(title string, alg int, models []cost.Model, bound func(cost.Model) float64) bool {
	tbl := stats.NewTable("model", "exact, n = 3", "as a fraction", "cycle", "paper bound", "within")
	tight := true
	for _, m := range models {
		ex := exactSC(m)[alg]
		b := bound(m)
		ok := "yes"
		if ex.Factor() > b+1e-9 {
			ok = "VIOLATED"
		}
		tight = tight && math.Abs(ex.Factor()-b) <= 1e-9
		tbl.AddRow(m.String(), ex.Factor(), fmt.Sprintf("%d/%d", ex.Num, ex.Den), ex.Period.String(), b, ok)
	}
	fmt.Println(title)
	fmt.Print(tbl.String())
	return tight
}

func scModels() []cost.Model {
	return []cost.Model{
		cost.SC(0.05, 0.1), cost.SC(0.1, 0.3), cost.SC(0.2, 0.7),
		cost.SC(0.3, 1.2), cost.SC(0.5, 2.0), cost.SC(1.0, 3.0),
	}
}

// scExact memoizes exactSC, so that E3, E5 and E6 build each arena once
// whichever of them run.
var scExact = map[cost.Model][2]competitive.Exact{}

// exactSC is SA's and DA's exact factors at m over every schedule on 3
// processors from {0, 1}, potentials dropped: both from one arena, which
// is not kept.
func exactSC(m cost.Model) [2]competitive.Exact {
	if ex, ok := scExact[m]; ok {
		return ex
	}
	a, err := competitive.NewArena(runCtx, m, 3, 2)
	var ex [2]competitive.Exact
	for i, f := range []dom.Factory{dom.StaticFactory, dom.DynamicFactory} {
		if err == nil {
			ex[i], err = a.Exact(runCtx, f)
			ex[i].Phi = nil
		}
	}
	if err != nil {
		log.Fatal(err)
	}
	scExact[m] = ex
	return ex
}

func e3Theorem1() {
	tight := boundCheck("SA's exact factor over every schedule on 3 processors vs Theorem 1's (1+cc+cd):",
		0, scModels(), competitive.SABound)
	if tight {
		fmt.Println("the exact factor is 1+cc+cd at every cell: Theorem 1 is tight at n = 3")
	}
}

func e4Proposition1() {
	m := cost.SC(0.4, 1.1)
	initial := model.NewSet(0, 1)
	tbl := stats.NewTable("read-run length k", "SA/OPT ratio", "tight bound 1+cc+cd")
	for _, k := range []int{10, 25, 50, 100, 250, 500} {
		meas, err := competitive.Ratio(m, dom.StaticFactory, adversary.SAPunisher(5, k), initial, 2)
		if err != nil {
			log.Fatal(err)
		}
		tbl.AddRow(k, meas.Ratio, competitive.SABound(m))
	}
	tbl.AddRow("exact", exactFactor(m, dom.StaticFactory, adversary.SAPunisher(5, 1)), competitive.SABound(m))
	fmt.Println("the nemesis family's ratio converges to the bound, so no smaller factor works:")
	fmt.Print(tbl.String())
}

func e5Theorem2() {
	boundCheck("DA's exact factor over every schedule on 3 processors vs Theorem 2's (2+2cc):",
		1, scModels(), func(m cost.Model) float64 { return 2 + 2*m.CC })
}

func e6Theorem3() {
	var models []cost.Model
	for _, m := range scModels() {
		if m.CD > 1 {
			models = append(models, m)
		}
	}
	boundCheck("DA's exact factor over every schedule on 3 processors vs Theorem 3's (2+cc), cd>1 only:",
		1, models, func(m cost.Model) float64 { return 2 + m.CC })
}

func e7Proposition2() {
	initial := model.NewSet(0, 1)
	tbl := stats.NewTable("cc", "cd", "DA/OPT on nemesis", "exact factor", "exceeds 1.5")
	for _, p := range []struct{ cc, cd float64 }{{0.01, 0.02}, {0.02, 0.05}, {0.05, 0.1}, {0.1, 0.2}} {
		m := cost.SC(p.cc, p.cd)
		meas, err := competitive.Ratio(m, dom.DynamicFactory, daNemesis(80), initial, 2)
		if err != nil {
			log.Fatal(err)
		}
		exact := exactFactor(m, dom.DynamicFactory, daNemesis(1))
		yes := "yes"
		if exact <= 1.5 {
			yes = "NO"
		}
		tbl.AddRow(p.cc, p.cd, meas.Ratio, exact, yes)
	}
	fmt.Println("with small message costs the outsider-round nemesis pushes DA past 1.5:")
	fmt.Print(tbl.String())
}

func e8Proposition3() {
	m := cost.MC(0.3, 1.0)
	initial := model.NewSet(0, 1)
	tbl := stats.NewTable("read-run length k", "SA/OPT ratio (MC)")
	for _, k := range []int{4, 8, 16, 32, 64, 128, 256} {
		meas, err := competitive.Ratio(m, dom.StaticFactory, adversary.SAPunisher(5, k), initial, 2)
		if err != nil {
			log.Fatal(err)
		}
		tbl.AddRow(k, meas.Ratio)
	}
	tbl.AddRow("exact", exactFactor(m, dom.StaticFactory, adversary.SAPunisher(5, 1)))
	fmt.Println("the ratio grows linearly with k — no constant bounds it:")
	fmt.Print(tbl.String())
}

// e9Theorem4 checks Theorem 4 by DA's exact factor at n = 3 and prices
// DA's certified search at n = 6 at each cell: both read 2+2cc/cd.
func e9Theorem4() {
	tbl := stats.NewTable("model", "exact, n = 3", "cycle", "paper bound", "within", "best certified, n = 6", "2+2cc/cd", "period")
	var off []string
	for _, m := range e9Models {
		ex, _ := exactAt(m, dom.DynamicFactory, 3, 2)
		res, b, pingPong := certifiedSearch(m), competitive.DABound(m), 2+2*m.CC/m.CD
		ok := "yes"
		if ex.Factor() > b+1e-9 || res.Factor > b+1e-9 {
			ok = "VIOLATED"
		}
		if math.Abs(ex.Factor()-pingPong) > 1e-9 || math.Abs(res.Factor-pingPong) > 1e-9 {
			off = append(off, m.String())
		}
		tbl.AddRow(m.String(), ex.Factor(), ex.Period.String(), b, ok, res.Factor, pingPong, res.Period.String())
	}
	fmt.Println("DA's exact factor over every schedule on 3 processors vs Theorem 4's (2+3cc/cd):")
	fmt.Print(tbl.String())
	if len(off) == 0 {
		fmt.Println("the exact factor and the certified search read 2+2cc/cd at every cell")
	} else {
		fmt.Printf("the exact factor or the certified search departs from 2+2cc/cd at %s\n", strings.Join(off, ", "))
	}
}

func e10WorkedExample() {
	sched := model.MustParseSchedule("r1 r1 r2 w2 r2 r2 r2")
	initial := model.NewSet(1)
	m := cost.SC(0.25, 1.0)
	static := model.AllocSchedule{}
	for _, q := range sched {
		static = append(static, model.Step{Request: q, Exec: model.NewSet(1)})
	}
	dynamic := model.AllocSchedule{}
	for i, q := range sched {
		target := model.NewSet(1)
		if i >= 3 {
			target = model.NewSet(2)
		}
		dynamic = append(dynamic, model.Step{Request: q, Exec: target})
	}
	optimum, err := competitive.Ratio(m, dom.StaticFactory, sched, initial, 1)
	if err != nil {
		log.Fatal(err)
	}
	tbl := stats.NewTable("strategy", "cost")
	tbl.AddRow("static at {1}", cost.ScheduleCost(m, static, initial))
	tbl.AddRow("dynamic {1}->{2} at the write (paper)", cost.ScheduleCost(m, dynamic, initial))
	tbl.AddRow("offline optimum", optimum.OptCost)
	fmt.Println("schedule r1 r1 r2 w2 r2 r2 r2, initial {1}, SC(0.25, 1):")
	fmt.Print(tbl.String())
}

// e11TSensitivity checks §2's claim that the factors are independent of t
// by DA's exact factor at (n, t) = (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)
// at one SC and one MC cell, the ten graphs built on the pool.
func e11TSensitivity() {
	models, ns, ts := []cost.Model{cost.SC(0.3, 1.2), cost.MC(0.5, 1)}, []int{3, 3, 4, 4, 4}, []int{1, 2, 1, 2, 3}
	cells, err := engine.Collect(runCtx, len(models)*len(ns), *parallel, func(_ context.Context, i int) (any, error) {
		ex, ok := exactAt(models[i/len(ns)], dom.DynamicFactory, ns[i%len(ns)], ts[i%len(ns)])
		if !ok {
			return "refused (key)", nil
		}
		return fmt.Sprintf("%d/%d %v", ex.Num, ex.Den, ex.Period), nil
	})
	if err != nil {
		log.Fatal(err)
	}
	tbl := stats.NewTable("model", "n = 3, t = 1", "n = 3, t = 2", "n = 4, t = 1", "n = 4, t = 2", "n = 4, t = 3", "DA bound")
	for i, m := range models {
		tbl.AddRow(append(append([]any{m.String()}, cells[i*len(ns):(i+1)*len(ns)]...), competitive.DABound(m))...)
	}
	fmt.Println("DA's exact factor over every schedule on n processors from {0..t-1}, as a fraction with its cycle:")
	fmt.Print(tbl.String())
	fmt.Println("the bounds do not involve t; DA's exact factor does, and stays within them")
	fmt.Println("at t = 1 F is empty, so every write leaves DA one copy, at the writer, and on r0 w1 r0 w2 the reader fetches it anew after each write")
	fmt.Println("at n = 4, t = 2 MC reads 3 = 2+2cc/cd, as at n = 3, not Theorem 4's 2+3cc/cd = 3.5")
	fmt.Println("SA's exact factor is 1+cc+cd = 2.5 in SC and +Inf in MC at every (n, t) above")
}

// e12AverageCase checks §2's claim that the worst case predicts the
// average case by exact long-run ratios at n = 3, t = 2: at one cell per
// analytic region, then at every cell of a 5×5 SC grid where the bounds
// name a winner, at two write fractions.
func e12AverageCase() {
	tbl := stats.NewTable("model", "region", "SA long-run ratio", "DA long-run ratio", "avg-case winner")
	for _, p := range []struct {
		m      cost.Model
		region string
	}{
		{cost.SC(0.1, 0.2), "SA (cc+cd<0.5)"},
		{cost.SC(0.3, 0.7), "unknown"},
		{cost.SC(0.2, 2.0), "DA (cd>1)"},
	} {
		sa, da := longRun(p.m, []float64{0.15})
		tbl.AddRow(p.m.String(), p.region, sa[0], da[0], winner(sa[0], da[0]))
	}
	fmt.Println("exact long-run ratios on 3 processors, reads 85 % and writes 15 % of independent requests, spread evenly:")
	fmt.Print(tbl.String())

	axis, pwrites := []float64{0.2, 0.4, 0.8, 1.2, 2}, []float64{0.15, 0.5}
	flips := stats.NewTable("model", "pwrite", "worst-case winner", "SA long-run ratio", "DA long-run ratio")
	cells, flipped := 0, make([]int, len(pwrites))
	for _, cc := range axis {
		for _, cd := range axis {
			m := cost.SC(cc, cd)
			if r := m.Region(); r == cost.RegionSASuperior || r == cost.RegionDASuperior {
				cells++
				sa, da := longRun(m, pwrites)
				for i, pw := range pwrites {
					if winner(sa[i], da[i]) != r.String() {
						flipped[i]++
						flips.AddRow(m.String(), pw, r.String(), sa[i], da[i])
					}
				}
			}
		}
	}
	fmt.Printf("\nthe SC grid cc, cd in {0.2, 0.4, 0.8, 1.2, 2}: of its %d cells where the bounds name a winner, those where the other wins on average:\n", cells)
	fmt.Print(flips.String())
	for i, pw := range pwrites {
		fmt.Printf("pwrite %v: %d of %d cells flip\n", pw, flipped[i], cells)
	}
}

// longRun is SA's and DA's exact long-run ratios at m on 3 processors from
// {0, 1} at t = 2, one per write fraction.
func longRun(m cost.Model, pwrites []float64) (sa, da []float64) {
	a, err := competitive.NewArena(runCtx, m, 3, 2)
	if err == nil {
		sa, err = a.Average(runCtx, dom.StaticFactory, pwrites)
	}
	if err == nil {
		da, err = a.Average(runCtx, dom.DynamicFactory, pwrites)
	}
	if err != nil {
		log.Fatal(err)
	}
	return sa, da
}

// winner is the algorithm of the lower ratio, SA on a tie.
func winner(sa, da float64) string {
	if da < sa {
		return "DA"
	}
	return "SA"
}

func e13Failover() {
	h, err := ha.New(ha.Config{N: 6, T: 2, Initial: model.NewSet(0, 1), Obs: runObs})
	if err != nil {
		log.Fatal(err)
	}
	defer h.Close()
	rng := rand.New(rand.NewSource(5))
	sched := workload.Uniform(rng, 6, 300, 0.3)
	phases := []string{}
	served, failed := 0, 0
	for i, q := range sched {
		switch i {
		case 100:
			if err := h.Crash(0); err != nil {
				log.Fatal(err)
			}
			phases = append(phases, fmt.Sprintf("request 100: F member 0 crashed -> %v", h.Mode()))
		case 200:
			if err := h.Restart(0); err != nil {
				log.Fatal(err)
			}
			phases = append(phases, fmt.Sprintf("request 200: member 0 recovered -> %v", h.Mode()))
		}
		if h.Crashed().Contains(q.Processor) {
			continue
		}
		var err error
		if q.IsRead() {
			_, err = h.Read(q.Processor)
		} else {
			_, err = h.Write(q.Processor, []byte("x"))
		}
		if err != nil {
			failed++
		} else {
			served++
		}
	}
	for _, p := range phases {
		fmt.Println(p)
	}
	fmt.Printf("requests served: %d, failed: %d (paper: availability maintained through an F failure)\n", served, failed)
	fmt.Printf("lifetime accounting: %v\n", h.Counts())
}

func e14Convergent() {
	rng := rand.New(rand.NewSource(8))
	initial := model.NewSet(0, 1)
	// cd < 1 makes an eager save-then-invalidate cycle strictly costlier
	// than serving the reads remotely, so the chaotic pattern separates
	// the algorithms instead of tying them.
	m := cost.SC(0.2, 0.5)

	regular, err := workload.Regular(rng, []workload.Phase{
		{Length: 300, ReadRate: map[model.ProcessorID]float64{4: 10, 5: 4}, WriteRate: map[model.ProcessorID]float64{0: 1}},
		{Length: 300, ReadRate: map[model.ProcessorID]float64{2: 10}, WriteRate: map[model.ProcessorID]float64{0: 1}},
	})
	if err != nil {
		log.Fatal(err)
	}
	chaotic := adversary.ConvergentPunisher(4, 0, 32, 12)

	tbl := stats.NewTable("workload", "SA cost", "DA cost", "Convergent cost", "winner")
	for _, w := range []struct {
		name  string
		sched model.Schedule
	}{{"regular two-phase", regular}, {"chaotic (punisher)", chaotic}} {
		costs := map[string]float64{}
		for name, f := range map[string]dom.Factory{
			"SA": dom.StaticFactory, "DA": dom.DynamicFactory, "Conv": baseline.ConvergentFactory(32),
		} {
			las, err := dom.RunFactory(f, initial, 2, w.sched)
			if err != nil {
				log.Fatal(err)
			}
			costs[name] = cost.ScheduleCost(m, las, initial)
		}
		winner, best := "", math.Inf(1)
		for _, name := range []string{"SA", "DA", "Conv"} {
			if costs[name] < best {
				best, winner = costs[name], name
			}
		}
		tbl.AddRow(w.name, costs["SA"], costs["DA"], costs["Conv"], winner)
	}
	fmt.Println("§5.1: convergent algorithms suit regular patterns, competitive ones chaotic patterns:")
	fmt.Print(tbl.String())
}

func e15Fidelity() {
	rng := rand.New(rand.NewSource(12))
	trials := 20
	matches := 0
	for trial := 0; trial < trials; trial++ {
		n := 3 + rng.Intn(6)
		sched := workload.Uniform(rng, n, 60, rng.Float64())
		initial := model.NewSet(0, 1)
		for _, tc := range []struct {
			protocol sim.Protocol
			factory  dom.Factory
		}{{sim.SA, dom.StaticFactory}, {sim.DA, dom.DynamicFactory}} {
			c, err := sim.New(sim.Config{N: n, T: 2, Protocol: tc.protocol, Initial: initial})
			if err != nil {
				log.Fatal(err)
			}
			if _, err := c.Run(sched); err != nil {
				log.Fatal(err)
			}
			got := c.Counts()
			c.Close()
			las, err := dom.RunFactory(tc.factory, initial, 2, sched)
			if err != nil {
				log.Fatal(err)
			}
			want := cost.TotalCounts(las, initial)
			if got == want {
				matches++
			} else {
				fmt.Printf("MISMATCH trial %d %v: executed %v != analytic %v\n", trial, tc.protocol, got, want)
			}
		}
	}
	fmt.Printf("executed protocol counts == analytic cost model: %d/%d runs\n", matches, 2*trials)
}

func e16ResponseTime() {
	rng := rand.New(rand.NewSource(4))
	sched := workload.Hotspot(rng, 6, 300, 0.08, model.NewSet(4, 5), 0.8)
	initial := model.NewSet(0, 1)
	profile := latency.Profile{ControlTime: 0.05, DataTime: 1, PropDelay: 0.05, DiskTime: 0.3, SharedBus: true}

	tbl := stats.NewTable("arrival rate", "SA mean resp", "DA mean resp", "SA bus util", "DA bus util")
	for _, rate := range []float64{0.1, 0.25, 0.5, 0.75, 1.0} {
		row := []interface{}{rate}
		var utils []float64
		for _, f := range []dom.Factory{dom.StaticFactory, dom.DynamicFactory} {
			las, err := dom.RunFactory(f, initial, 2, sched)
			if err != nil {
				log.Fatal(err)
			}
			res, err := latency.Simulate(profile, las, initial, latency.UniformArrivals(len(las), rate))
			if err != nil {
				log.Fatal(err)
			}
			row = append(row, res.Summary.Mean)
			utils = append(utils, res.BusUtilization())
		}
		row = append(row, utils[0], utils[1])
		tbl.AddRow(row...)
	}
	fmt.Println("shared-bus ethernet, read-heavy remote workload: DA's lower §3 cost")
	fmt.Println("means fewer bus messages, later saturation, lower response time:")
	fmt.Print(tbl.String())
}

func e17Hetero() {
	rng := rand.New(rand.NewSource(3))
	initial := model.NewSet(0, 1)
	sched := workload.Hotspot(rng, 6, 400, 0.1, model.NewSet(3, 4, 5), 0.9)

	tbl := stats.NewTable("topology", "SA cost", "DA cost", "SA/DA")
	for _, tc := range []struct {
		name string
		m    hetero.Model
	}{
		{"flat (homogeneous)", hetero.Uniform(6, cost.SC(0.2, 1.0))},
		{"two clusters, WAN x4", hetero.Clustered(6, 3, 0.05, 0.25, 0.8, 4.0, 1)},
		{"two clusters, WAN x16", hetero.Clustered(6, 3, 0.05, 0.25, 3.2, 16.0, 1)},
	} {
		saCost, _, err := tc.m.EvaluateFactory(dom.StaticFactory, initial, 2, sched)
		if err != nil {
			log.Fatal(err)
		}
		daCost, _, err := tc.m.EvaluateFactory(hetero.AwareDynamicFactory(tc.m), initial, 2, sched)
		if err != nil {
			log.Fatal(err)
		}
		tbl.AddRow(tc.name, saCost, daCost, saCost/daCost)
	}
	fmt.Println("readers concentrated in the remote cluster; replicas start in the local one.")
	fmt.Println("DA's migration pays off more the more distance costs:")
	fmt.Print(tbl.String())
}

func e18Beam() {
	rng := rand.New(rand.NewSource(44))
	m := cost.SC(0.3, 1.2)
	initial := model.NewSet(0, 1)

	// Small instances: beam and the interval bound vs the exact optimum.
	worstGap, lo, hi := 1.0, math.Inf(1), 0.0
	for iter := 0; iter < 20; iter++ {
		sched := workload.Uniform(rng, 6, 40, 0.3)
		exact, err := opt.SolveCostContext(runCtx, m, sched, initial, 2)
		if err != nil {
			log.Fatal(err)
		}
		beam, err := opt.BeamContext(runCtx, m, sched, initial, 2, 64)
		if err != nil {
			log.Fatal(err)
		}
		bd, err := opt.NewBound(sched, initial, 2)
		if err != nil {
			log.Fatal(err)
		}
		if exact > 0 {
			r := bd.Price(m) / exact
			worstGap, lo, hi = max(worstGap, beam.Cost/exact), min(lo, r), max(hi, r)
		}
	}
	fmt.Printf("beam(64) vs exact optimum on 20 solvable instances: worst gap %.2f%%\n", 100*(worstGap-1))
	fmt.Printf("interval bound / exact optimum on the same instances: %.3f to %.3f\n\n", lo, hi)

	// Large instance: 30 processors, beyond the exact solver, where OPT
	// lies between the interval bound and beam's cost.
	sched := workload.Uniform(rng, 30, 400, 0.25)
	beam, err := opt.BeamContext(runCtx, m, sched, initial, 2, 32)
	if err != nil {
		log.Fatal(err)
	}
	bd, err := opt.NewBound(sched, initial, 2)
	if err != nil {
		log.Fatal(err)
	}
	lb := bd.Price(m)
	tbl := stats.NewTable("quantity", "cost (30 processors, 400 requests)", "ratio bracket [cost/beam, cost/bound]")
	tbl.AddRow("interval lower bound on OPT", lb, "")
	tbl.AddRow("beam-search offline (upper bound on OPT)", beam.Cost, "")
	for _, f := range []struct {
		name    string
		factory dom.Factory
	}{{"online SA", dom.StaticFactory}, {"online DA", dom.DynamicFactory}} {
		las, err := dom.RunFactory(f.factory, initial, 2, sched)
		if err != nil {
			log.Fatal(err)
		}
		c := cost.ScheduleCost(m, las, initial)
		tbl.AddRow(f.name, c, fmt.Sprintf("[%.3f, %.3f]", c/beam.Cost, c/lb))
	}
	fmt.Print(tbl.String())
	fmt.Println("\neach online algorithm's true ratio on this instance lies in its bracket.")
}

// e21Gap attacks the open problem the paper leaves (§6.1: "the gap between
// the upper and lower bound on the competitiveness of the DA algorithm ...
// is the subject of future research"): the nemesis family and the
// certified search give lower bounds on DA's competitiveness factor across
// the unknown band, each exact on a period's endless repetition.
func e21Gap() {
	tbl := stats.NewTable("cc", "cd", "paper lower", "nemesis ratio", "exact factor", "best certified", "period", "paper upper")
	for _, m := range e21Models {
		nmeas, err := competitive.Ratio(m, dom.DynamicFactory, daNemesis(80), model.NewSet(0, 1), 2)
		if err != nil {
			log.Fatal(err)
		}
		res := certifiedSearch(m)
		tbl.AddRow(m.CC, m.CD, competitive.DALowerBound, nmeas.Ratio, exactFactor(m, dom.DynamicFactory, daNemesis(1)), res.Factor, res.Period.String(), 2+2*m.CC)
	}
	fmt.Println("every factor is a certified lower bound on DA's true factor;")
	fmt.Println("the nemesis family already beats the paper's 1.5 everywhere probed:")
	fmt.Print(tbl.String())
}

// e22Crossover certifies, for each cc, the largest cd on a 0.01 grid at
// which SA is strictly better than DA: competitive.Classify marks the cell
// S, from DA's graph at n = 3 or a pool period. The paper's bounds only
// bracket the flip inside [0.5-cc, 1]; the certified cd is a lower bound
// on it.
func e22Crossover() {
	tbl := stats.NewTable("cc", "paper bracket", "SA better at cd", "DA factor", "SA factor", "period")
	periods := pool()
	for _, cc := range []float64{0.05, 0.1, 0.2, 0.3} {
		bracket := fmt.Sprintf("[%.2f, 1.00]", 0.5-cc)
		row := []interface{}{cc, bracket, "none certified", "", "", ""}
		for k := 99; float64(k)/100 >= max(cc, 0.5-cc); k-- {
			c, err := competitive.Classify(runCtx, cost.SC(cc, float64(k)/100), periods)
			if err != nil {
				log.Fatal(err)
			}
			if c.Mark == 'S' {
				row = []interface{}{cc, bracket, float64(k) / 100, c.Witness, c.SA, c.Period.String()}
				break
			}
		}
		tbl.AddRow(row...)
	}
	fmt.Println("the largest cd at which a period certifies SA strictly better than DA,")
	fmt.Println("vs the band the bounds allow (the pool: the nemesis families and every")
	fmt.Println("period the E9 and E21 searches return):")
	fmt.Print(tbl.String())
}

func e20Cache() {
	rng := rand.New(rand.NewSource(9))
	type op struct {
		obj   string
		p     model.ProcessorID
		write bool
	}
	var ops []op
	for i := 0; i < 3000; i++ {
		ops = append(ops, op{
			obj:   fmt.Sprintf("o%d", rng.Intn(16)),
			p:     model.ProcessorID(rng.Intn(6)),
			write: rng.Float64() < 0.1,
		})
	}
	run := func(capacity int, repl cache.Replacement) (float64, int) {
		m, err := cache.New(cache.Config{N: 6, Capacity: capacity, Replacement: repl, Model: cost.SC(0.3, 1.2)})
		if err != nil {
			log.Fatal(err)
		}
		for _, o := range ops {
			if o.write {
				m.Write(o.obj, o.p)
			} else {
				m.Read(o.obj, o.p)
			}
		}
		return m.Cost(), m.Evictions()
	}
	unbounded, _ := run(0, cache.LRU)
	tbl := stats.NewTable("per-processor capacity", "LRU cost", "evictions", "overhead vs abundant")
	for _, capacity := range []int{1, 2, 4, 8, 16} {
		c, ev := run(capacity, cache.LRU)
		tbl.AddRow(capacity, c, ev, fmt.Sprintf("%.1f%%", 100*(c/unbounded-1)))
	}
	tbl.AddRow("unbounded (paper)", unbounded, 0, "0.0%")
	fmt.Println("16 objects, 6 processors, 10% writes; the paper assumes abundant storage —")
	fmt.Println("this is what that assumption is worth under replacement churn:")
	fmt.Print(tbl.String())
}

func e19Advisor() {
	rng := rand.New(rand.NewSource(6))
	initial := model.NewSet(0, 1)
	tbl := stats.NewTable("cost point", "workload", "analytic advice", "measured best", "best/OPT")
	for _, tc := range []struct {
		m    cost.Model
		name string
		wl   model.Schedule
	}{
		{cost.SC(0.1, 0.2), "write-heavy", workload.Uniform(rng, 5, 150, 0.8)},
		{cost.SC(0.2, 1.5), "read-heavy hotspot", workload.Hotspot(rng, 6, 150, 0.05, model.NewSet(4, 5), 0.8)},
		{cost.SC(0.3, 0.8), "mixed (the unknown band)", workload.Uniform(rng, 5, 150, 0.3)},
		{cost.MC(0.2, 0.8), "mobile lookups", workload.MobileTrace(rng, 6, 40, 4)},
	} {
		adv, err := advisor.Recommend(tc.m, tc.wl, initial, 2, nil)
		if err != nil {
			log.Fatal(err)
		}
		tbl.AddRow(tc.m.String(), tc.name, advisor.Analytic(tc.m).String(), adv.Best, adv.Evaluations[0].Ratio)
	}
	fmt.Println("the figures as a decision aid; empirical advice settles the open band:")
	fmt.Print(tbl.String())
}

func e23Feed() {
	rng := rand.New(rand.NewSource(10))
	m := cost.SC(0.3, 2.0)
	tbl := stats.NewTable("reads per object", "permanent orders (SA)", "temporary orders (DA)", "DA saves")
	for _, readsPer := range []int{1, 2, 4, 8} {
		costs := map[feed.Policy]float64{}
		for _, policy := range []feed.Policy{feed.PermanentOrders, feed.TemporaryOrders} {
			f, err := feed.Open(feed.Config{Stations: 6, T: 2, Policy: policy})
			if err != nil {
				log.Fatal(err)
			}
			for obj := 0; obj < 40; obj++ {
				if _, err := f.Publish(model.ProcessorID(rng.Intn(6)), []byte("img")); err != nil {
					log.Fatal(err)
				}
				reader := model.ProcessorID(rng.Intn(6))
				for r := 0; r < readsPer; r++ {
					if _, _, err := f.Latest(reader); err != nil {
						log.Fatal(err)
					}
				}
			}
			costs[policy] = f.Cost(m)
			f.Close()
		}
		perm, temp := costs[feed.PermanentOrders], costs[feed.TemporaryOrders]
		tbl.AddRow(readsPer, perm, temp, fmt.Sprintf("%.1f%%", 100*(1-temp/perm)))
	}
	fmt.Println("the satellite model, executed: each object published once, then read;")
	fmt.Println("temporary standing orders amortize as repeat reads per object grow:")
	fmt.Print(tbl.String())
}

// daNemesis is Proposition 2's family at its given number of rounds: four
// outsiders read, then core member 0 writes.
func daNemesis(rounds int) model.Schedule {
	s, err := adversary.DAPunisher([]model.ProcessorID{2, 3, 4, 5}, 0, rounds)
	if err != nil {
		log.Fatal(err)
	}
	return s
}

// exactFactor is the algorithm's exact asymptotic factor on the endless
// repetition of period from {0, 1} at t = 2, the initial scheme and
// threshold of every nemesis experiment.
func exactFactor(m cost.Model, f dom.Factory, period model.Schedule) float64 {
	factor, err := competitive.Factor(runCtx, m, f, period, model.NewSet(0, 1), 2)
	if err != nil {
		log.Fatal(err)
	}
	return factor
}

// exactAt is the algorithm's exact factor over every schedule on the
// processors 0..n−1 from {0..t−1}: the maximum cycle ratio of its
// work-function graph, certified, and false where OPT's rows outgrow the
// graph's key. Each call builds its own arena, which is dropped after.
func exactAt(m cost.Model, f dom.Factory, n, t int) (competitive.Exact, bool) {
	a, err := competitive.NewArena(runCtx, m, n, t)
	if errors.Is(err, competitive.ErrRowKey) {
		return competitive.Exact{}, false
	}
	var ex competitive.Exact
	if err == nil {
		ex, err = a.Exact(runCtx, f)
	}
	if err != nil {
		log.Fatal(err)
	}
	return ex, true
}

// e9Models and e21Models are the cells of E9's and E21's certified
// searches.
var (
	e9Models  = []cost.Model{cost.MC(0.05, 0.1), cost.MC(0.2, 0.5), cost.MC(0.5, 1.0), cost.MC(1.0, 2.5), cost.MC(2.0, 2.0)}
	e21Models = []cost.Model{cost.SC(0.05, 0.1), cost.SC(0.1, 0.4), cost.SC(0.2, 0.7), cost.SC(0.3, 0.9)}
)

// searches memoizes certifiedSearch, so that the pool E22 prices is the
// same whichever experiments run.
var searches = map[cost.Model]competitive.SearchResult{}

// certifiedSearch is DA's certified search at m over six processors from
// {0, 1} at t = 2: its first restarts climb from the nemesis families,
// daNemesis's period among them.
func certifiedSearch(m cost.Model) competitive.SearchResult {
	if res, ok := searches[m]; ok {
		return res
	}
	res, err := competitive.Search(runCtx, competitive.SearchConfig{
		Model: m, N: 6, T: 2, Length: 8, Restarts: 4, Steps: 400, Seed: 13,
		Parallelism: *parallel, Obs: runObs,
	})
	if err != nil {
		log.Fatal(err)
	}
	searches[m] = res
	return res
}

// pool is the periods E22 prices, each once: the nemesis families
// and every period a certified search returns.
func pool() []model.Schedule {
	var periods []model.Schedule
	for _, fam := range adversary.Families(6, 2) {
		periods = append(periods, fam.Period)
	}
	for _, m := range append(append([]cost.Model{}, e9Models...), e21Models...) {
		if p := certifiedSearch(m).Period; !slices.ContainsFunc(periods, func(q model.Schedule) bool { return slices.Equal(p, q) }) {
			periods = append(periods, p)
		}
	}
	return periods
}
