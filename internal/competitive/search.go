package competitive

import (
	"context"
	"fmt"

	"math/rand"
	"slices"

	"objalloc/internal/adversary"
	"objalloc/internal/cost"
	"objalloc/internal/dom"
	"objalloc/internal/engine"
	"objalloc/internal/model"
	"objalloc/internal/obs"
)

// SearchConfig drives DA's adversarial period search: randomized
// hill-climbing over periods, maximizing DA's exact factor on a period's
// endless repetition (Factor). Every factor it reports is a certified
// lower bound on DA's competitiveness at Model, for every number of
// processors from N on: a processor a period never names changes neither
// DA's cost nor the optimum's. The search complements the hand-built
// nemesis families, which its first restarts start from — it probes
// whether worse periods than the analytic ones exist (tightness of the
// bounds). It is for DA at N ≥ 4, where no exact factor is at hand: at
// N = 3 Arena.Exact is DA's factor over every schedule, and SA's is
// known at every N (1+cc+cd in SC, Theorem 1 with the read run; +Inf in
// MC).
type SearchConfig struct {
	// Model is the cost model at which the factor is maximized.
	Model cost.Model
	// N is the number of processors requests may come from.
	N int
	// T is the availability threshold; the initial scheme is {0..T-1}.
	T int
	// Length caps the period's length: a random restart starts from a
	// period this long, and a climb inserts no request into one.
	Length int
	// Restarts and Steps control the budget: Restarts independent climbs
	// of Steps mutations each. The first restarts start from the nemesis
	// families of adversary.Families(N, T), the rest from random periods.
	Restarts, Steps int
	// Seed makes the search reproducible: restart r climbs with the RNG
	// stream engine.TaskSeed(Seed, r), independent of scheduling.
	Seed int64
	// Parallelism bounds the number of restarts climbing concurrently;
	// zero or negative selects engine.DefaultParallelism. The result is
	// identical for every value of Parallelism: restarts are independent
	// and ties between equal factors go to the earliest restart.
	Parallelism int
	// Obs attaches the instrumentation layer: the engine reports restart
	// progress through its Observer, and after the climbs complete one
	// "restart" event per climb is emitted in restart order. Nil disables
	// instrumentation.
	Obs *obs.Obs
}

// Normalize validates the config and resolves its defaults in place:
// Restarts below 1 becomes 1. It is the single place SearchConfig
// validation happens; Search calls it first.
func (cfg *SearchConfig) Normalize() error {
	if cfg.N < 1 || cfg.Length < 1 {
		return fmt.Errorf("competitive: search needs N >= 1 and Length >= 1, got N=%d Length=%d", cfg.N, cfg.Length)
	}
	if cfg.T < 1 {
		return fmt.Errorf("competitive: search needs T >= 1, got %d", cfg.T)
	}
	if cfg.T > cfg.N {
		return fmt.Errorf("competitive: search T (%d) exceeds N (%d)", cfg.T, cfg.N)
	}
	if cfg.Restarts < 1 {
		cfg.Restarts = 1
	}
	return nil
}

// SearchResult is the worst period found: a certified lower bound on DA's
// competitive factor.
type SearchResult struct {
	// Factor is DA's exact factor on Period's endless repetition.
	Factor float64
	// Period is the best climb's period, shrunk to be 1-minimal.
	Period model.Schedule
	// Evaluations is the number of Factor calls the climbs made.
	Evaluations int
}

// Search runs randomized hill-climbing: each restart begins from a
// nemesis family or a random period and repeatedly mutates it — replacing,
// inserting or deleting one request — keeping a mutation whose factor
// does not fall; one that Factor refuses is rejected. The best period
// over all restarts is then shrunk (Shrink) without letting its factor
// fall. Restarts are independent climbs, so they run on the engine's
// worker pool; each derives its RNG from (Seed, restart index), which
// makes the outcome independent of both scheduling and Parallelism.
// Cancelling the context aborts outstanding restarts and returns
// ctx.Err().
func Search(ctx context.Context, cfg SearchConfig) (SearchResult, error) {
	if err := cfg.Normalize(); err != nil {
		return SearchResult{}, err
	}
	seeds := adversary.Families(cfg.N, cfg.T)
	climbs, err := engine.CollectObserved(ctx, cfg.Restarts, cfg.Parallelism, cfg.Obs.Hook(), func(ctx context.Context, r int) (SearchResult, error) {
		var start model.Schedule
		if r < len(seeds) {
			start = seeds[r].Period
		}
		return cfg.climb(ctx, engine.TaskRNG(cfg.Seed, r), start)
	})
	if err != nil {
		return SearchResult{}, err
	}

	// Reduce in restart order with a strict improvement test: ties keep
	// the earliest restart, so the reduction is deterministic. Events are
	// emitted from the same ordered loop, so the stream is identical for
	// every Parallelism.
	o := cfg.Obs
	best := SearchResult{Factor: -1}
	for r, c := range climbs {
		best.Evaluations += c.Evaluations
		if c.Factor > best.Factor {
			best.Factor, best.Period = c.Factor, c.Period
		}
		if o.Enabled() {
			o.Emit(obs.Event{Name: "restart", Attrs: []obs.Attr{
				obs.Int("index", r),
				obs.Float("factor", c.Factor),
				obs.Int("evaluations", c.Evaluations),
			}})
			o.Counter("search.restarts").Inc()
			o.Counter("search.evaluations").Add(int64(c.Evaluations))
			o.Histogram("search.factor_milli", 1000, 1250, 1500, 2000, 3000, 4000, 6000).Observe(int64(c.Factor * 1000))
		}
	}
	best.Period, best.Factor, err = Shrink(ctx, cfg.Model, dom.DynamicFactory, best.Period, model.FullSet(cfg.T), cfg.T, best.Factor)
	if err != nil {
		return SearchResult{}, err
	}
	return best, nil
}

// climb is one restart: start, or a random period of Length requests when
// start is nil, followed by Steps single-request mutations.
func (cfg SearchConfig) climb(ctx context.Context, rng *rand.Rand, start model.Schedule) (SearchResult, error) {
	initial := model.FullSet(cfg.T)
	randomReq := func() model.Request {
		p := model.ProcessorID(rng.Intn(cfg.N))
		if rng.Intn(2) == 0 {
			return model.W(p)
		}
		return model.R(p)
	}
	best := SearchResult{Period: start, Evaluations: 1}
	if best.Period == nil {
		best.Period = make(model.Schedule, cfg.Length)
		for i := range best.Period {
			best.Period[i] = randomReq()
		}
	}
	var err error
	if best.Factor, err = Factor(ctx, cfg.Model, dom.DynamicFactory, best.Period, initial, cfg.T); err != nil {
		return SearchResult{}, err
	}

	for s := 0; s < cfg.Steps; s++ {
		if err := ctx.Err(); err != nil {
			return SearchResult{}, err
		}
		next := mutate(rng, best.Period, cfg.Length, randomReq)
		if next == nil {
			continue
		}
		f, err := Factor(ctx, cfg.Model, dom.DynamicFactory, next, initial, cfg.T)
		best.Evaluations++
		if err != nil {
			if ctx.Err() != nil {
				return SearchResult{}, ctx.Err()
			}
			continue // Factor refuses the mutation
		}
		if f >= best.Factor {
			best.Factor, best.Period = f, next
		}
	}
	return best, nil
}

// mutate returns a copy of period with one request replaced, inserted
// (when the period is shorter than length) or deleted (when it has more
// than one), or nil when the drawn mutation changes nothing.
func mutate(rng *rand.Rand, period model.Schedule, length int, randomReq func() model.Request) model.Schedule {
	n := len(period)
	switch op := rng.Intn(3); {
	case op == 1 && n < length:
		pos := rng.Intn(n + 1)
		return slices.Insert(slices.Clone(period), pos, randomReq())
	case op == 2 && n > 1:
		pos := rng.Intn(n)
		return slices.Delete(slices.Clone(period), pos, pos+1)
	default:
		pos := rng.Intn(n)
		q := randomReq()
		if q == period[pos] {
			return nil
		}
		next := slices.Clone(period)
		next[pos] = q
		return next
	}
}
