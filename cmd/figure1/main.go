// Command figure1 regenerates Figure 1 of Huang & Wolfson (ICDE 1994): the
// partition of the (cd, cc) plane, under the stationary-computing cost
// model, into the regions where static allocation (SA) or dynamic
// allocation (DA) has the better worst-case cost.
//
// For every grid point the tool measures the worst cost ratio of SA and DA
// against the exact offline optimum over a battery of random and
// adversarial schedules, prints the analytic region map (from the paper's
// bounds), the empirically measured map, and the measured ratios next to
// the analytic bounds.
//
// Usage:
//
//	figure1 [-max 2] [-steps 8] [-n 5] [-t 2] [-seed 1994]
//	        [-metrics out.jsonl] [-progress] [-pprof addr] [-cpuprofile out.pprof]
//
// -metrics streams one JSON line per grid cell plus a final registry
// snapshot; two runs with the same seed produce byte-identical files
// regardless of -parallel. -progress reports sweep progress on stderr,
// -pprof serves net/http/pprof and expvar on the given address, and
// -cpuprofile writes a CPU profile of the whole run.
package main

import (
	"fmt"
	"log"
	"os"

	"objalloc/cmd/internal/figure"
	"objalloc/internal/competitive"
)

func main() {
	run := figure.Parse("figure1", true)
	if run.Steps < 2 || run.MaxCost <= 0 {
		log.Fatal("need -steps >= 2 and -max > 0")
	}
	points, done := run.Sweep(false)
	defer done()
	figure.Print(points,
		"Figure 1 — stationary-computing cost model (cio = 1)",
		"Analytic regions (paper's theorems and propositions):",
		"Empirical regions (measured worst-case ratio vs the exact offline optimum):")

	// Sanity: empirical must agree with analytic wherever the bounds
	// decide the winner.
	for _, p := range points {
		if (p.Analytic == competitive.RegionSASuperior || p.Analytic == competitive.RegionDASuperior) &&
			p.Empirical != p.Analytic {
			fmt.Fprintf(os.Stderr, "warning: (cc=%g, cd=%g) analytic %v but measured %v\n",
				p.CC, p.CD, p.Analytic, p.Empirical)
		}
	}
}
