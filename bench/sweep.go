package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"objalloc/internal/competitive"
	"objalloc/internal/cost"
)

// The offline workload: the paper's figure-1 plane, 6×6 cells.
var sweepAxis = []float64{0.2, 0.5, 0.8, 1.1, 1.4, 1.7}

// sweepSeeds is how many battery seeds a run cycles through.
const sweepSeeds = 8

func sweepSpec(seed int64, rep, parallelism int) competitive.SweepSpec {
	return competitive.SweepSpec{
		CDs: sweepAxis, CCs: sweepAxis,
		Battery:     competitive.DefaultBattery(),
		Parallelism: parallelism,
		Seed:        seed + int64(rep%sweepSeeds),
	}
}

// sweeper runs one full sweep per op; rep r uses battery seed
// seed + r mod sweepSeeds. It keeps the first result of every seed so
// later reps, and afterwards the serial reference, can be compared.
type sweeper struct {
	seed   int64
	rep    int
	first  [sweepSeeds][]competitive.GridPoint
	failed int
	rec    *recorder
}

func samePoints(a, b []competitive.GridPoint) bool {
	same := func(x, y float64) bool { return x == y || (x != x && y != y) }
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		p, q := a[i], b[i]
		if p.CC != q.CC || p.CD != q.CD || p.Analytic != q.Analytic || p.Empirical != q.Empirical ||
			!same(p.SAWorst, q.SAWorst) || !same(p.DAWorst, q.DAWorst) {
			return false
		}
	}
	return true
}

// once runs the next sweep and returns its latency in ms.
func (s *sweeper) once(ctx context.Context) (float64, error) {
	slot := s.rep % sweepSeeds
	id := s.rec.root("sweep", int64(s.rep))
	t0 := time.Now()
	pts, err := competitive.Sweep(ctx, sweepSpec(s.seed, s.rep, 0))
	lat := time.Since(t0)
	s.rec.end(id)
	s.rep++
	switch {
	case err != nil:
		s.failed++
	case s.first[slot] == nil:
		s.first[slot] = pts
	case !samePoints(s.first[slot], pts):
		s.failed++
	}
	return float64(lat) / 1e6, err
}

// verify checks every seed the run used: the default-parallelism result
// equals the Parallelism: 1 result, and each measured cell's worst
// ratios stay within the paper's bounds for that cell's model.
func (s *sweeper) verify(ctx context.Context) []string {
	const eps = 1e-9
	var bad []string
	for slot, pts := range s.first {
		if pts == nil {
			continue
		}
		serial, err := competitive.Sweep(ctx, sweepSpec(s.seed, slot, 1))
		if err != nil {
			bad = append(bad, err.Error())
			continue
		}
		if !samePoints(serial, pts) {
			bad = append(bad, fmt.Sprintf("battery seed %d: parallel sweep differs from Parallelism 1", s.seed+int64(slot)))
		}
		for _, p := range pts {
			if p.Analytic == competitive.RegionCannotBeTrue {
				continue
			}
			m := cost.SC(p.CC, p.CD)
			if !(p.SAWorst <= competitive.SABound(m)+eps) || !(p.DAWorst <= competitive.DABound(m)+eps) {
				bad = append(bad, fmt.Sprintf("battery seed %d cell cc=%g cd=%g: SA %.4f (bound %.4f) DA %.4f (bound %.4f)",
					s.seed+int64(slot), p.CC, p.CD, p.SAWorst, competitive.SABound(m), p.DAWorst, competitive.DABound(m)))
			}
		}
	}
	return bad
}

// runSweep is one untraced run of sweep_offline.
func (b *bench) runSweep(ctx context.Context, seed int64, seconds time.Duration) (result, error) {
	var s *sweeper
	var setups []float64
	for round := 0; round < setupRounds; round++ {
		t0 := time.Now()
		s = &sweeper{seed: seed}
		warmUp(ctx, warmup, s.once)
		setups = append(setups, time.Since(t0).Seconds())
	}
	warmFailed := s.failed

	stopRSS := watchRSS(os.Getpid())
	t := drive(ctx, seconds, s.once, cpuSpeed)
	rss, rssErr := stopRSS()
	bad := s.verify(ctx)
	if rssErr != nil {
		bad = append(bad, rssErr.Error())
	}
	if warmFailed > 0 {
		bad = append(bad, fmt.Sprintf("%d sweeps failed during warm-up", warmFailed))
	}
	return endToEnd(ctx, t, 1, s.failed-warmFailed, bad, setups, rss), nil
}
