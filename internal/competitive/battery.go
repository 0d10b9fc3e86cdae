package competitive

import (
	"context"
	"math/rand"
	"runtime"
	"sync/atomic"

	"objalloc/internal/adversary"
	"objalloc/internal/model"
	"objalloc/internal/workload"
)

// BatteryConfig describes the schedule battery used for worst-case
// measurements at one point of the (cd, cc) plane.
type BatteryConfig struct {
	// N is the number of processors (the offline optimum limits this to
	// opt.MaxUniverse).
	N int
	// T is the availability threshold; the initial scheme is {0..T-1}.
	T int
	// RandomSchedules is the number of random schedules per write-mix.
	RandomSchedules int
	// RandomLength is the length of each random schedule.
	RandomLength int
	// NemesisRounds scales the adversarial families: the read-run length
	// for SAPunisher and the number of rounds for DAPunisher.
	NemesisRounds int
	// Seed makes the battery reproducible.
	Seed int64
}

// DefaultBattery is the configuration used by the figure sweeps: large
// enough to expose each algorithm's worst behaviour, small enough that a
// full plane sweep runs in seconds.
func DefaultBattery() BatteryConfig {
	return BatteryConfig{N: 5, T: 2, RandomSchedules: 4, RandomLength: 36, NemesisRounds: 60, Seed: 1994}
}

// Initial returns the initial allocation scheme the battery assumes.
func (c BatteryConfig) Initial() model.Set { return model.FullSet(c.T) }

// Build constructs the battery: uniform random mixes across write
// fractions, a skewed mix, and the nemesis families for both SA and DA so
// that every algorithm's bad case is represented. It is the whole battery
// at once; a sweep builds it inside its engine run instead (see slots).
func (c BatteryConfig) Build() []model.Schedule {
	b := c.layout()
	b.fill()
	return b.scheds
}

// slots are a schedule battery's slots, laid out before any schedule is
// in them: 4·RandomSchedules+1 random mixes, then, when N > T, the three
// nemesis families. fill builds the schedules into the slots in landing
// order — the nemesis families first, which draw nothing from the
// generator, then the random mixes in battery order, so every schedule is
// the one a build in battery order draws — and publishes each as it
// lands, so that a lane measures one schedule while the next is built.
type slots struct {
	cfg     BatteryConfig
	scheds  []model.Schedule
	nemeses int          // how many slots, at the end of scheds, land first
	landed  atomic.Int64 // how many slots have landed, in landing order
}

// layout returns the battery's slots, none of them landed.
func (c BatteryConfig) layout() *slots {
	b := &slots{cfg: c}
	if c.N > c.T {
		b.nemeses = 3
	}
	b.scheds = make([]model.Schedule, 4*max(c.RandomSchedules, 0)+1+b.nemeses)
	return b
}

// landedSlots are the slots of a battery of given schedules, landed whole
// in battery order.
func landedSlots(scheds []model.Schedule) *slots {
	b := &slots{scheds: scheds}
	b.landed.Store(int64(len(scheds)))
	return b
}

// slot returns the battery index of the k-th schedule to land.
func (b *slots) slot(k int) int {
	if k < b.nemeses {
		return len(b.scheds) - b.nemeses + k
	}
	return k - b.nemeses
}

// fill builds the battery into its slots in landing order; a battery that
// has landed is left as it is.
func (b *slots) fill() {
	if int(b.landed.Load()) == len(b.scheds) {
		return
	}
	c := b.cfg
	if c.N > c.T {
		// SA's nemesis: a long read run from a processor outside the
		// initial scheme (Propositions 1 and 3).
		outsider := model.ProcessorID(c.T) // first processor outside {0..T-1}
		b.land(adversary.SAPunisher(outsider, c.NemesisRounds))

		// DA's nemesis: rounds of distinct outsider reads punctuated by
		// core writes (Proposition 2). It fails only without readers.
		readers := make([]model.ProcessorID, 0, c.N-c.T)
		for p := c.T; p < c.N; p++ {
			readers = append(readers, model.ProcessorID(p))
		}
		daNemesis, _ := adversary.DAPunisher(readers, 0, c.NemesisRounds)
		b.land(daNemesis)

		// Ping-pong between a scheme member and an outsider.
		b.land(adversary.PingPong(0, outsider, c.NemesisRounds))
	}
	rng := rand.New(rand.NewSource(c.Seed))
	for _, pWrite := range []float64{0.05, 0.2, 0.5, 0.8} {
		for i := 0; i < c.RandomSchedules; i++ {
			b.land(workload.Uniform(rng, c.N, c.RandomLength, pWrite))
		}
	}
	b.land(workload.Zipf(rng, c.N, c.RandomLength, 0.2, 1.8))
}

// land puts the next schedule in landing order into its slot and
// publishes it.
func (b *slots) land(s model.Schedule) {
	k := int(b.landed.Load())
	b.scheds[b.slot(k)] = s
	b.landed.Store(int64(k + 1))
}

// wait returns once the k-th schedule in landing order has landed, or the
// context's error. It spins, yielding the processor, and never parks: the
// builder lands a schedule every few microseconds, and waking a parked
// goroutine takes longer than that.
func (b *slots) wait(ctx context.Context, k int) error {
	for int(b.landed.Load()) <= k {
		if err := ctx.Err(); err != nil {
			return err
		}
		runtime.Gosched()
	}
	return nil
}
