// Package adversary constructs the nemesis schedule families behind the
// paper's lower-bound results (Propositions 1–3) and, more generally, the
// request patterns on which each online algorithm is at its worst. The
// competitive harness (package competitive) measures the cost ratio of an
// algorithm against the exact offline optimum on these schedules; the
// measured ratios converging to the claimed bounds is the empirical
// reproduction of the propositions.
package adversary

import (
	"fmt"

	"objalloc/internal/model"
	"objalloc/internal/workload"
)

// SAPunisher is the family behind Proposition 1 (and Proposition 3 in the
// mobile model): k consecutive reads from a single processor outside SA's
// fixed scheme Q.
//
// SA serves every one of the k reads remotely, paying cc + cio + cd each.
// The optimum converts the first read into a saving-read and serves the
// rest locally, paying (cc + cio + cd + cio) + (k−1)·cio. As k grows the
// ratio tends to (cc + 1 + cd) / 1 in the SC model — exactly the
// (1+cc+cd) lower bound — and to k (unbounded) in the MC model, where
// local reads are free.
func SAPunisher(outsider model.ProcessorID, k int) model.Schedule {
	return workload.ReadRun(outsider, k)
}

// DAPunisher is the family behind Proposition 2: rounds of single reads
// from many distinct processors outside the allocation scheme, each round
// punctuated by a write from a core member.
//
// DA converts every outsider read into a saving-read (one extra output
// I/O each) and then pays an invalidation message per joined reader at the
// round's write. The optimum leaves the readers alone — each reads exactly
// once before being invalidated, so saving buys nothing. With small
// message costs the per-round ratio tends to (2 + 2cc + cd)/(1 + cc + cd),
// which exceeds 1.5 whenever cd − cc < 1 and approaches 2 as the message
// costs vanish — strictly above the 1.5 of Proposition 2.
//
// readers must be disjoint from the initial allocation scheme; writer
// should be a member of the scheme (the paper's F).
func DAPunisher(readers []model.ProcessorID, writer model.ProcessorID, rounds int) (model.Schedule, error) {
	if len(readers) == 0 {
		return nil, fmt.Errorf("adversary: DAPunisher needs at least one reader")
	}
	sched := make(model.Schedule, 0, max(rounds, 0)*(len(readers)+1))
	for r := 0; r < rounds; r++ {
		for _, p := range readers {
			sched = append(sched, model.R(p))
		}
		sched = append(sched, model.W(writer))
	}
	return sched, nil
}

// PingPong alternates a write from one processor with a read from another,
// the pattern on which any eager-replication policy (DA, FullRepl) wastes
// a save-then-invalidate cycle per round. Used in the ablation benches.
func PingPong(writer, reader model.ProcessorID, rounds int) model.Schedule {
	sched := make(model.Schedule, 0, 2*max(rounds, 0))
	for r := 0; r < rounds; r++ {
		sched = append(sched, model.W(writer), model.R(reader))
	}
	return sched
}

// MixFlip alternates two phases that punish the two paper protocols in
// turn, the nemesis of any policy pinned for the run:
//
//   - a run of phase reads from a processor outside the initial allocation
//     scheme — SA pays a remote read (cc + cd + cio) for every one of them
//     while DA installs a local copy once and reads locally thereafter
//     (Proposition 1's pattern);
//   - phase requests alternating a write from a scheme member with a read
//     from the same outsider — DA wastes a save-then-invalidate cycle per
//     round while SA's fixed scheme is exactly right.
//
// Each of the flips iterations appends one read phase followed by one
// write phase. A controller whose estimation window is shorter than phase
// can track the flips and beat both fixed protocols despite paying for its
// switches; a fixed protocol is wrong half the time.
func MixFlip(reader, writer model.ProcessorID, phase, flips int) model.Schedule {
	sched := make(model.Schedule, 0, 2*max(phase, 0)*max(flips, 0))
	for f := 0; f < flips; f++ {
		for i := 0; i < phase; i++ {
			sched = append(sched, model.R(reader))
		}
		for i := 0; i < phase; i++ {
			if i%2 == 0 {
				sched = append(sched, model.W(writer))
			} else {
				sched = append(sched, model.R(reader))
			}
		}
	}
	return sched
}

// ConvergentPunisher defeats window-based adaptive algorithms: it issues
// just enough reads from a processor to make it replicate, then switches to
// writes from elsewhere so the fresh replica only costs invalidations, and
// repeats. window should be the adversary's guess of the algorithm's
// window length.
func ConvergentPunisher(reader, writer model.ProcessorID, window, rounds int) model.Schedule {
	var sched model.Schedule
	for r := 0; r < rounds; r++ {
		// Enough reads to tip the expansion test...
		sched = append(sched, workload.ReadRun(reader, 2)...)
		// ...then a write burst that makes the copy pure overhead.
		for i := 0; i < window; i++ {
			sched = append(sched, model.W(writer))
		}
	}
	return sched
}
