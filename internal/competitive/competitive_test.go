package competitive

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"objalloc/internal/adversary"
	"objalloc/internal/cost"
	"objalloc/internal/dom"
	"objalloc/internal/model"
	"objalloc/internal/opt"
	"objalloc/internal/workload"
)

const eps = 1e-9

// scPoints spans the three regions of figure 1: SA-superior (cc+cd < 0.5),
// unknown, and DA-superior (cd > 1).
var scPoints = []cost.Model{
	cost.SC(0.05, 0.1), cost.SC(0.1, 0.3), cost.SC(0.2, 0.7),
	cost.SC(0.3, 1.2), cost.SC(0.5, 2.0), cost.SC(1.0, 3.0),
}

var mcPoints = []cost.Model{
	cost.MC(0.05, 0.1), cost.MC(0.2, 0.5), cost.MC(0.5, 1.0), cost.MC(1.0, 2.5),
}

// E4 / Proposition 1: the read-run nemesis drives SA's ratio arbitrarily
// close to 1 + cc + cd, so no smaller factor is competitive.
func TestProposition1SATight(t *testing.T) {
	m := cost.SC(0.4, 1.1)
	initial := model.NewSet(0, 1)
	bound := SABound(m)
	prev := 0.0
	for _, k := range []int{10, 50, 250} {
		sched := adversary.SAPunisher(5, k)
		meas, err := Ratio(m, dom.StaticFactory, sched, initial, 2)
		if err != nil {
			t.Fatal(err)
		}
		if meas.Ratio <= prev {
			t.Errorf("k=%d: ratio %.4f did not increase (prev %.4f)", k, meas.Ratio, prev)
		}
		prev = meas.Ratio
	}
	if bound-prev > 0.05*bound {
		t.Errorf("nemesis ratio %.4f not within 5%% of the tight bound %.4f", prev, bound)
	}
}

// E7 / Proposition 2: with small message costs the outsider-round nemesis
// pushes DA's ratio above 1.5, so DA is not α-competitive for α < 1.5.
func TestProposition2DAExceedsOnePointFive(t *testing.T) {
	m := cost.SC(0.01, 0.02)
	initial := model.NewSet(0, 1)
	sched, err := adversary.DAPunisher([]model.ProcessorID{2, 3, 4, 5}, 0, 80)
	if err != nil {
		t.Fatal(err)
	}
	meas, err := Ratio(m, dom.DynamicFactory, sched, initial, 2)
	if err != nil {
		t.Fatal(err)
	}
	if meas.Ratio <= DALowerBound {
		t.Errorf("DA nemesis ratio %.4f does not exceed the 1.5 lower bound", meas.Ratio)
	}
}

// E8 / Proposition 3: in the MC model SA's ratio on the read-run nemesis
// grows without bound (roughly linearly in the run length).
func TestProposition3SANotCompetitiveMobile(t *testing.T) {
	m := cost.MC(0.3, 1.0)
	initial := model.NewSet(0, 1)
	var ratios []float64
	for _, k := range []int{4, 16, 64} {
		sched := adversary.SAPunisher(5, k)
		meas, err := Ratio(m, dom.StaticFactory, sched, initial, 2)
		if err != nil {
			t.Fatal(err)
		}
		ratios = append(ratios, meas.Ratio)
	}
	if !(ratios[0] < ratios[1] && ratios[1] < ratios[2]) {
		t.Fatalf("ratios not increasing: %v", ratios)
	}
	// Quadrupling the run length should roughly quadruple the ratio.
	if ratios[2] < 3*ratios[1] {
		t.Errorf("growth too slow for non-competitiveness: %v", ratios)
	}
	if math.IsInf(SABound(m), 1) != true {
		t.Error("SABound should be +Inf in the mobile model")
	}
}

// E3, E5, E6 and E9 over the battery: at every cell of scPoints and
// mcPoints the sweep's worst ratios over the n = 5 battery are within the
// paper's bounds, SA's within Theorem 1 (+Inf in MC, Proposition 3) and
// DA's within Theorems 2–4, the least bound that applies: 2+cc where
// cd > 1 (Theorem 3), 2+2cc elsewhere in SC (Theorem 2), and 2+3cc/cd,
// at most 5 since cc ≤ cd, in MC (Theorem 4). The exact factors over every
// schedule at n = 3 are TestExactFactorSelfChecksGrid's.
func TestSweepWithinTheoremBounds(t *testing.T) {
	for _, m := range append(append([]cost.Model{}, scPoints...), mcPoints...) {
		bound := 2 + 2*m.CC
		switch {
		case m.IsMobile():
			bound = 2 + 3*m.CC/m.CD
			if bound > 5 {
				t.Errorf("%v: Theorem 4's bound %v exceeds 5", m, bound)
			}
		case m.CD > 1:
			bound = 2 + m.CC
		}
		if DABound(m) != bound {
			t.Errorf("DABound(%v) = %v, want %v", m, DABound(m), bound)
		}
		points, err := Sweep(context.Background(), SweepSpec{
			CDs: []float64{m.CD}, CCs: []float64{m.CC}, Mobile: m.IsMobile(), Battery: DefaultBattery(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if p := points[0]; p.SAWorst > SABound(m)+eps || p.DAWorst > bound+eps {
			t.Errorf("%v: worst ratios SA %.4f, DA %.4f exceed the bounds %.4f, %.4f", m, p.SAWorst, p.DAWorst, SABound(m), bound)
		}
	}
}

// e11Table is what E11 prints: DA's exact factor at two cells over
// (n, t), with the cycle that attains it, or a row key pack refuses.
var e11Table = []struct {
	m        cost.Model
	n, t     int
	num, den int64 // 0/0 where the key is refused
	period   string
}{
	{cost.SC(0.3, 1.2), 3, 1, 51, 32, "r0 w1 r0 w2"},
	{cost.SC(0.3, 1.2), 3, 2, 5, 3, "w0 r2"},
	{cost.SC(0.3, 1.2), 4, 1, 0, 0, ""},
	{cost.SC(0.3, 1.2), 4, 2, 0, 0, ""},
	{cost.SC(0.3, 1.2), 4, 3, 23, 16, "w0 r3"},
	{cost.MC(0.5, 1), 3, 1, 5, 2, "r0 w1 r0 w2"},
	{cost.MC(0.5, 1), 3, 2, 3, 1, "w0 r2"},
	{cost.MC(0.5, 1), 4, 1, 5, 2, "r0 w1 r0 w2"},
	{cost.MC(0.5, 1), 4, 2, 3, 1, "w1 r2"},
	{cost.MC(0.5, 1), 4, 3, 2, 1, "w0 r3"},
}

// checkE11 holds SA's and DA's exact factors at e11Table's cells on n
// processors to the table: DA's fraction and cycle as printed, within
// DABound, and no lower than at n = 3 for the same t (a factor found on
// fewer processors holds on more, DESIGN §5); SA's 1+cc+cd in SC and +Inf
// in MC; and a refused key refused for both.
func checkE11(t *testing.T, n int) {
	t.Helper()
	ctx := context.Background()
	for _, c := range e11Table {
		if c.n != n {
			continue
		}
		a, err := NewArena(ctx, c.m, c.n, c.t)
		if c.den == 0 {
			if !errors.Is(err, ErrRowKey) {
				t.Errorf("%v, n = %d, t = %d: err = %v; want ErrRowKey", c.m, c.n, c.t, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%v, n = %d, t = %d: %v", c.m, c.n, c.t, err)
		}
		da, err := a.Exact(ctx, dom.DynamicFactory)
		sa, saErr := a.Exact(ctx, dom.StaticFactory)
		if err != nil || saErr != nil {
			t.Fatalf("%v, n = %d, t = %d: %v, %v", c.m, c.n, c.t, err, saErr)
		}
		if da.Num != c.num || da.Den != c.den || da.Period.String() != c.period {
			t.Errorf("%v, n = %d, t = %d: DA reads %d/%d on %v, want %d/%d on %s", c.m, c.n, c.t, da.Num, da.Den, da.Period, c.num, c.den, c.period)
		}
		if da.Factor() > DABound(c.m) {
			t.Errorf("%v, n = %d, t = %d: DA's %d/%d exceeds DABound %v", c.m, c.n, c.t, da.Num, da.Den, DABound(c.m))
		}
		for _, d := range e11Table {
			if d.n == 3 && d.t == c.t && d.m == c.m && d.den != 0 && da.Num*d.den < d.num*da.Den {
				t.Errorf("%v, t = %d: DA falls from %d/%d at n = 3 to %d/%d at n = %d", c.m, c.t, d.num, d.den, da.Num, da.Den, n)
			}
		}
		wm, err := whole(c.m)
		if err != nil {
			t.Fatal(err)
		}
		if c.m.IsMobile() && sa.Den != 0 || !c.m.IsMobile() && sa.Num*int64(wm.CIO) != sa.Den*int64(wm.CIO+wm.CC+wm.CD) {
			t.Errorf("%v, n = %d, t = %d: SA reads %d/%d on %v, want 1+cc+cd in SC, +Inf in MC", c.m, c.n, c.t, sa.Num, sa.Den, sa.Period)
		}
	}
}

// E11: §2's factors do not involve t, and DA's exact factor does: at n = 3
// it is pinned at t = 1 and 2 (e11Table); n = 4 is
// TestRatiosIndependentOfTAtFour, in the build without the race detector.
func TestRatiosIndependentOfT(t *testing.T) {
	checkE11(t, 3)
}

func TestRatioEdgeCases(t *testing.T) {
	// Zero-cost schedules: in MC, reads from scheme members are free for
	// both the algorithm and OPT; the ratio must be 1, not NaN.
	m := cost.MC(0.5, 1.5)
	sched := model.MustParseSchedule("r0 r1 r0")
	meas, err := Ratio(m, dom.StaticFactory, sched, model.NewSet(0, 1), 2)
	if err != nil {
		t.Fatal(err)
	}
	if meas.Ratio != 1 || meas.AlgCost != 0 || meas.OptCost != 0 {
		t.Errorf("free schedule: %+v", meas)
	}
	// SA pays for an outsider read that OPT serves for free after saving:
	// with a single such read both pay the same; ratio 1.
	one := model.MustParseSchedule("r5")
	meas, err = Ratio(m, dom.StaticFactory, one, model.NewSet(0, 1), 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(meas.Ratio-1) > eps {
		t.Errorf("single outsider read ratio = %g, want 1", meas.Ratio)
	}
}

func TestWorstRatioEmptyBattery(t *testing.T) {
	if _, err := WorstRatioContext(context.Background(), cost.SC(0.1, 0.5), dom.StaticFactory, nil, model.NewSet(0, 1), 2); err == nil {
		t.Error("empty battery accepted")
	}
}

// E1 / Figure 1: the empirical sweep must agree with the analytic regions
// wherever the paper's bounds decide the winner.
func TestFigure1RegionsSC(t *testing.T) {
	cds := []float64{0.1, 0.3, 0.6, 1.2, 1.8}
	ccs := []float64{0.05, 0.2, 0.5, 1.0, 1.5}
	points, err := Sweep(context.Background(), SweepSpec{CDs: cds, CCs: ccs, Battery: DefaultBattery()})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(cds)*len(ccs) {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		switch p.Analytic {
		case RegionCannotBeTrue:
			if p.CC <= p.CD {
				t.Errorf("(%g,%g) marked cannot-be-true", p.CC, p.CD)
			}
		case RegionDASuperior:
			if p.Empirical != RegionDASuperior {
				t.Errorf("(cc=%g,cd=%g): analytic DA but empirical %v (SA %.3f vs DA %.3f)", p.CC, p.CD, p.Empirical, p.SAWorst, p.DAWorst)
			}
		case RegionSASuperior:
			if p.Empirical != RegionSASuperior {
				t.Errorf("(cc=%g,cd=%g): analytic SA but empirical %v (SA %.3f vs DA %.3f)", p.CC, p.CD, p.Empirical, p.SAWorst, p.DAWorst)
			}
		}
	}
}

// E2 / Figure 2: in the mobile model DA must win everywhere admissible.
func TestFigure2RegionsMC(t *testing.T) {
	cds := []float64{0.2, 0.5, 1.0, 2.0}
	ccs := []float64{0.1, 0.4, 0.9}
	points, err := Sweep(context.Background(), SweepSpec{CDs: cds, CCs: ccs, Mobile: true, Battery: DefaultBattery()})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if p.Analytic == RegionCannotBeTrue {
			continue
		}
		if p.Analytic != RegionDASuperior {
			t.Errorf("(cc=%g,cd=%g): analytic MC region = %v, want DA", p.CC, p.CD, p.Analytic)
		}
		if p.Empirical != RegionDASuperior {
			t.Errorf("(cc=%g,cd=%g): empirical MC region = %v (SA %.3f vs DA %.3f)", p.CC, p.CD, p.Empirical, p.SAWorst, p.DAWorst)
		}
	}
}

func TestAnalyticRegionBoundaries(t *testing.T) {
	cases := []struct {
		cc, cd float64
		want   Region
	}{
		{1.0, 0.5, RegionCannotBeTrue},
		{0.1, 1.5, RegionDASuperior},
		{0.1, 0.2, RegionSASuperior},
		{0.2, 0.8, RegionUnknown},
		{0.25, 0.25, RegionUnknown}, // cc+cd = 0.5 exactly: not strictly inside SA region
		{0.5, 1.0, RegionUnknown},   // cd = 1 exactly: not strictly inside DA region
	}
	for _, c := range cases {
		if got := cost.SC(c.cc, c.cd).Region(); got != c.want {
			t.Errorf("SC(%g,%g).Region() = %v, want %v", c.cc, c.cd, got, c.want)
		}
		// The figure is drawn per I/O: scaling all three prices moves nothing.
		if got := (cost.Model{CC: 4 * c.cc, CD: 4 * c.cd, CIO: 4}).Region(); got != c.want {
			t.Errorf("cost(%g,%g,cio=4).Region() = %v, want %v", 4*c.cc, 4*c.cd, got, c.want)
		}
	}
	if cost.MC(0.5, 0.2).Region() != RegionCannotBeTrue {
		t.Error("MC cc>cd not flagged")
	}
	if cost.MC(0, 0).Region() != RegionUnknown {
		t.Error("MC degenerate origin should be unknown")
	}
	if cost.MC(0.2, 0.8).Region() != RegionDASuperior {
		t.Error("MC admissible point should be DA")
	}
}

func TestRegionStringsAndRunes(t *testing.T) {
	if RegionSASuperior.String() != "SA" || RegionDASuperior.Rune() != 'D' {
		t.Error("region rendering wrong")
	}
	if RegionCannotBeTrue.Rune() != 'x' || RegionUnknown.Rune() != '?' {
		t.Error("region rune wrong")
	}
	if Region(42).String() == "" {
		t.Error("unknown region should render")
	}
}

// RenderProved draws each cell's mark, or the paper's region, under the
// legend of what it draws, and an empty grid as such.
func TestRenderProved(t *testing.T) {
	var cells []Proved
	for _, m := range []cost.Model{cost.SC(0.1, 0.2), cost.SC(0.1, 1.5), cost.SC(1.0, 0.2), cost.SC(1.0, 1.5)} {
		c, err := Classify(context.Background(), m, nil)
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells, c)
	}
	for _, analytic := range []bool{false, true} {
		out := RenderProved(cells, analytic)
		if !strings.Contains(out, "cc\\cd") || strings.Contains(out, "d = DA better at n = 3") == analytic {
			t.Errorf("analytic=%t: header or legend wrong:\n%s", analytic, out)
		}
		// cc=0.1, cd=0.2 is SA-superior, cd=1.5 > 1 DA-superior; cc=1.0 >
		// cd=0.2 is impossible.
		for _, r := range "SDx" {
			if !strings.ContainsRune(out, r) {
				t.Errorf("analytic=%t: no %c in\n%s", analytic, r, out)
			}
		}
	}
	if RenderProved(nil, true) != "(empty grid)\n" {
		t.Error("empty grid render wrong")
	}
}

func TestSearchDeterministic(t *testing.T) {
	cfg := SearchConfig{
		Model: cost.SC(0.2, 0.8), N: 4, T: 2, Length: 10, Restarts: 2, Steps: 40, Seed: 99,
	}
	a, err := Search(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Search(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Factor != b.Factor || a.Period.String() != b.Period.String() {
		t.Error("search not deterministic under fixed seed")
	}
}

func TestSearchValidation(t *testing.T) {
	if _, err := Search(context.Background(), SearchConfig{N: 0, Length: 5, T: 2, Model: cost.SC(0.1, 0.5)}); err == nil {
		t.Error("N = 0 accepted")
	}
	// The initial scheme {0..T-1} does not fit on N < T processors.
	if _, err := Search(context.Background(), SearchConfig{N: 2, Length: 5, T: 3, Model: cost.SC(0.1, 0.5)}); err == nil {
		t.Error("T = 3 > N = 2 accepted")
	}
}

// E12: deep in DA's region (cd = 2) the winner the worst case predicts
// also wins on average — §2's justification for the worst-case method —
// by the exact long-run ratios on read-heavy independent requests.
func TestAverageCaseFollowsWorstCase(t *testing.T) {
	ctx := context.Background()
	a := arena(t, cost.SC(0.2, 2.0), 3, 2)
	sa, err := a.Average(ctx, dom.StaticFactory, []float64{0.15})
	if err != nil {
		t.Fatal(err)
	}
	da, err := a.Average(ctx, dom.DynamicFactory, []float64{0.15})
	if err != nil {
		t.Fatal(err)
	}
	if da[0] >= sa[0] {
		t.Errorf("in DA's region DA's long-run ratio %.4f did not beat SA's %.4f", da[0], sa[0])
	}
}

// Competitiveness is uniform over prefixes: COST_A(prefix) <= α·OPT(prefix) + β
// must hold with one constant β for every prefix, not only at the end of
// the schedule. We measure the worst additive slack over all prefixes of
// random schedules and check it does not grow with schedule length.
func TestPrefixCompetitivenessUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	m := cost.SC(0.3, 1.2)
	initial := model.NewSet(0, 1)

	worstSlack := func(f dom.Factory, alpha float64, sched model.Schedule) float64 {
		las, err := dom.RunFactory(f, initial, 2, sched)
		if err != nil {
			t.Fatal(err)
		}
		_, perStep := cost.ScheduleCounts(las, initial)
		algPrefix := 0.0
		worst := 0.0
		for k := 1; k <= len(sched); k++ {
			algPrefix += perStep[k-1].Price(m)
			optPrefix, err := opt.SolveCost(m, sched[:k], initial, 2)
			if err != nil {
				t.Fatal(err)
			}
			if slack := algPrefix - alpha*optPrefix; slack > worst {
				worst = slack
			}
		}
		return worst
	}

	short := workload.Uniform(rng, 5, 30, 0.3)
	long := workload.Concat(short, workload.Uniform(rng, 5, 90, 0.3))

	for _, tc := range []struct {
		name  string
		f     dom.Factory
		alpha float64
	}{
		{"SA", dom.StaticFactory, SABound(m)},
		{"DA", dom.DynamicFactory, 2 + 2*m.CC},
	} {
		sShort := worstSlack(tc.f, tc.alpha, short)
		sLong := worstSlack(tc.f, tc.alpha, long)
		// The additive constant must not grow with length: allow a small
		// tolerance for the prefix where the slack peaks shifting.
		if sLong > sShort+2.0 {
			t.Errorf("%s: additive slack grew with length: %.3f -> %.3f", tc.name, sShort, sLong)
		}
	}
}

// The adversarial search must respect DA's bound in the mobile model too —
// a search-based tightness probe for Theorem 4.
func TestSearchRespectsTheorem4(t *testing.T) {
	m := cost.MC(0.4, 1.0)
	res, err := Search(context.Background(), SearchConfig{
		Model: m, N: 5, T: 2, Length: 14, Restarts: 3, Steps: 150, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Factor > DABound(m)+eps {
		t.Errorf("certified factor %.4f violates Theorem 4 bound %.4f\nperiod: %v", res.Factor, DABound(m), res.Period)
	}
	if res.Factor < 1 {
		t.Errorf("certified factor %.4f below 1", res.Factor)
	}
}

// BatteryConfig.Build is deterministic in its seed.
func TestBatteryDeterministic(t *testing.T) {
	a := DefaultBattery().Build()
	b := DefaultBattery().Build()
	if len(a) != len(b) {
		t.Fatal("battery sizes differ")
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Fatalf("battery schedule %d differs", i)
		}
	}
}

func TestShrinkMinimizesWitness(t *testing.T) {
	ctx := context.Background()
	m := cost.SC(0.4, 1.1)
	initial := model.NewSet(0, 1)
	// A read-run period diluted with harmless local reads.
	diluted := workload.Concat(
		workload.ReadRun(0, 10), // free-ish local reads at a member
		adversary.SAPunisher(5, 30),
		workload.ReadRun(1, 10),
	)
	target, err := Factor(ctx, m, dom.StaticFactory, diluted, initial, 2)
	if err != nil {
		t.Fatal(err)
	}
	shrunk, factor, err := Shrink(ctx, m, dom.StaticFactory, diluted, initial, 2, target)
	if err != nil {
		t.Fatal(err)
	}
	if factor < target {
		t.Errorf("shrunk factor %.4f below target %.4f", factor, target)
	}
	// The diluting local reads only lower the factor, and one read from
	// the outsider is the whole core.
	if shrunk.String() != "r5" || factor != SABound(m) {
		t.Errorf("shrunk to %v at factor %v, want r5 at %v", shrunk, factor, SABound(m))
	}
}

func TestShrinkRejectsWeakWitness(t *testing.T) {
	m := cost.SC(0.4, 1.1)
	if _, _, err := Shrink(context.Background(), m, dom.StaticFactory, model.MustParseSchedule("r0"), model.NewSet(0, 1), 2, 2.0); err == nil {
		t.Error("weak witness accepted")
	}
}

// replay is the finite-schedule certificate of an exact factor: the
// algorithm's cost and the optimum (opt.SolveCost) over the count periods
// after the first skip, in whole units, as a ratio.
func replay(t *testing.T, m cost.Model, f dom.Factory, period model.Schedule, initial model.Set, avail, skip, count int) float64 {
	t.Helper()
	wm, err := whole(m)
	if err != nil {
		t.Fatal(err)
	}
	var alg, optimal [2]float64
	for i, reps := range []int{skip, skip + count} {
		var sched model.Schedule
		for range reps {
			sched = append(sched, period...)
		}
		meas, err := Ratio(wm, f, sched, initial, avail)
		if err != nil {
			t.Fatal(err)
		}
		alg[i] = meas.AlgCost
		if optimal[i], err = opt.SolveCost(wm, sched, initial, avail); err != nil {
			t.Fatal(err)
		}
	}
	return ratioOf(alg[1]-alg[0], optimal[1]-optimal[0])
}

// checkFactor asserts an exact factor and certifies it by a 1 000-period
// replay past the first 8.
func checkFactor(t *testing.T, m cost.Model, f dom.Factory, period model.Schedule, initial model.Set, avail int, want float64) {
	t.Helper()
	got, err := Factor(context.Background(), m, f, period, initial, avail)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("%v on %v: factor %v, want %v", m, period, got, want)
	}
	if r := replay(t, m, f, period, initial, avail, 8, 1000); r != got {
		t.Errorf("%v on %v: factor %v, a 1 000-period replay reads %v", m, period, got, r)
	}
}

// Proposition 1, exactly: on the read run SA's factor is 1+cc+cd at every
// cell of the figure-1 plane. The want is taken in whole units, since
// SABound's float sum rounds (2.5999999999999996 at (0.2, 1.4)).
func TestFactorSAReadRunIsTight(t *testing.T) {
	for _, cc := range goldenAxis {
		for _, cd := range goldenAxis {
			if cc > cd {
				continue
			}
			m := cost.SC(cc, cd)
			wm, err := whole(m)
			if err != nil {
				t.Fatal(err)
			}
			want := (wm.CIO + wm.CC + wm.CD) / wm.CIO
			checkFactor(t, m, dom.StaticFactory, adversary.SAPunisher(5, 1), model.NewSet(0, 1), 2, want)
		}
	}
}

// Proposition 3, exactly: in the mobile model the optimum's cost stops
// growing on the read run while SA's does not.
func TestFactorSAMobileIsInfinite(t *testing.T) {
	checkFactor(t, cost.MC(0.3, 1.0), dom.StaticFactory, adversary.SAPunisher(5, 1), model.NewSet(0, 1), 2, math.Inf(1))
}

func TestFactorValidation(t *testing.T) {
	ctx := context.Background()
	read := adversary.SAPunisher(5, 1)
	for _, c := range []struct {
		m       cost.Model
		period  model.Schedule
		initial model.Set
		want    string
	}{
		{cost.SC(0.4, 1.1), nil, model.NewSet(0, 1), "and a request, got cost(cc=4,cd=11,cio=10) and 0"},
		{cost.SC(0.00001, 1.1), read, model.NewSet(0, 1), "no scale up to 10000"},
		{cost.SC(0.4, 1.1), read, model.NewSet(0), "fewer than t = 2"},
	} {
		if _, err := Factor(ctx, c.m, dom.StaticFactory, c.period, c.initial, 2); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v on %v from %v: err = %v, want one naming %q", c.m, c.period, c.initial, err, c.want)
		}
	}
}

// priceScale finds what scanning every q ≤ maxScale finds, for prices
// whole at some scale, near one, and not: the continued fraction only
// lets it skip the scan where the scan finds nothing. A sweep cell's
// pricing from the larger of its prices' scales is pricing from 1.
func TestPriceScaleIsTheScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := []float64{0, 1, 0.5, 1e-300, 1e-9, 1 << 52, 1<<53 + 2, math.MaxFloat64, 1.23456789, 0.123456789, 1.0 / 9973, 2.0 / 10007}
	for range 300 {
		b := float64(1 + rng.Intn(12000))
		x := float64(rng.Intn(3*int(b)+1)) / b
		xs = append(xs, x, x*(1+[]float64{1e-12, 1e-10, 5e-10, 1e-9, 2e-9, 1e-8}[rng.Intn(6)]),
			rng.Float64()*5, rng.Float64()*1e6, rng.Float64()*1e-6)
	}
	for _, x := range xs {
		want := scale(cost.Model{CC: x}, 1, maxScale)
		if got := priceScale(x); got != want {
			t.Errorf("priceScale(%v) = %v, the scan finds %v", x, got, want)
		}
	}
	for i := 0; i+1 < len(xs); i += 2 {
		cc, cd := min(xs[i], xs[i+1]), max(xs[i], xs[i+1])
		qcc, qcd := priceScale(cc), priceScale(cd)
		if qcc == 0 || qcd == 0 {
			continue
		}
		for _, m := range []cost.Model{cost.SC(cc, cd), cost.MC(cc, cd)} {
			if got, want := pricing(m, max(qcc, qcd)), pricing(m, 1); got != want {
				t.Errorf("pricing(%v) from %v = %v, from 1 %v", m, max(qcc, qcd), got, want)
			}
		}
	}
}

// E21's exact factors of the DA nemesis, above the paper's 1.5 (and
// strictly: no closed form was asserted while the fit stood, because the
// optimum floats one reader into each write's execution set), and two
// ping-pong factors at n = 3: 25/17 in SC, below 1.5, and 3 in MC.
func TestFactorDALowerBound(t *testing.T) {
	initial := model.NewSet(0, 1)
	nemesis, err := adversary.DAPunisher([]model.ProcessorID{2, 3, 4, 5}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		m      cost.Model
		period model.Schedule
		want   float64
	}{
		{cost.SC(0.05, 0.1), nemesis, 109.0 / 65},
		{cost.SC(0.1, 0.4), nemesis, 64.0 / 39},
		{cost.SC(0.2, 0.7), nemesis, 151.0 / 92},
		{cost.SC(0.3, 0.9), nemesis, 169.0 / 102},
		{cost.SC(0.1, 0.4), adversary.PingPong(0, 2, 1), 25.0 / 17},
		{cost.MC(0.5, 1), adversary.PingPong(0, 2, 1), 3},
	} {
		checkFactor(t, c.m, dom.DynamicFactory, c.period, initial, 2, c.want)
	}
}

// Writes rotating over three processors give the optimum a two-period
// cycle: the factor is over its growth per period, not per cycle.
func TestFactorOverATwoPeriodCycle(t *testing.T) {
	period, initial := model.MustParseSchedule("w2 w1 w0"), model.NewSet(0, 1)
	plan, err := opt.Compile(period, initial, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, periods, _, err := plan.Rate(context.Background(), cost.Model{CC: 1, CD: 4, CIO: 10}); err != nil || periods != 2 {
		t.Fatalf("Rate: a %d-period cycle, err %v; want 2 periods", periods, err)
	}
	checkFactor(t, cost.SC(0.1, 0.4), dom.DynamicFactory, period, initial, 2, 148.0/147)
}

// The periods behind E9's and E22's certified claims. A 6-request period
// gives DA 29/16 at SC(0.3, 0.4), and at SC(0.3, 0.49) a factor above SA's
// exact 1+cc+cd, so SA is strictly better there, inside the band the
// bounds leave open. In the mobile model the ping-pong "r5 w0" reads
// 2+2cc/cd at each of E9's cells.
func TestFactorCertifiedPeriods(t *testing.T) {
	initial := model.NewSet(0, 1)
	sixer := model.MustParseSchedule("w1 r4 r3 w2 r3 r4")
	checkFactor(t, cost.SC(0.3, 0.4), dom.DynamicFactory, sixer, initial, 2, 29.0/16)
	checkFactor(t, cost.SC(0.3, 0.49), dom.DynamicFactory, sixer, initial, 2, 299.0/166)
	if sa := 179.0 / 100; 299.0/166 <= sa {
		t.Errorf("DA's 299/166 does not exceed SA's %v at SC(0.3, 0.49)", sa)
	}
	for _, m := range []cost.Model{cost.MC(0.05, 0.1), cost.MC(0.2, 0.5), cost.MC(0.5, 1.0), cost.MC(1.0, 2.5), cost.MC(2.0, 2.0)} {
		wm, err := whole(m)
		if err != nil {
			t.Fatal(err)
		}
		checkFactor(t, m, dom.DynamicFactory, model.MustParseSchedule("r5 w0"), initial, 2, 2*(wm.CC+wm.CD)/wm.CD)
	}
}

// Every period experiments_output.txt prints for E9, E21 and E22 (and the
// two above), priced at every cell of the figure-1 and figure-2 grids,
// stays at or below DA's proven factor: a certified claim above it would
// contradict Theorems 2–4.
func TestCertifiedPeriodsWithinDABound(t *testing.T) {
	periods := []string{
		"r2 w5", "r4 r3 w1 r2 r5", "w1 r5 r2 w3 r2 r5", "r2 r3 r4 r5 w0",
		"w1 r4 r3 w2 r3 r4", "r5 w0",
	}
	for _, mobile := range []bool{false, true} {
		for i := 1; i <= 10; i++ {
			for j := i; j <= 10; j++ {
				cc, cd := 0.2*float64(i), 0.2*float64(j)
				m := cost.SC(cc, cd)
				if mobile {
					m = cost.MC(cc, cd)
				}
				for _, p := range periods {
					f, err := Factor(context.Background(), m, dom.DynamicFactory, model.MustParseSchedule(p), model.NewSet(0, 1), 2)
					if err != nil {
						t.Fatal(err)
					}
					if f > DABound(m) {
						t.Errorf("%v on %s: factor %v above DA's bound %v", m, p, f, DABound(m))
					}
				}
			}
		}
	}
}
