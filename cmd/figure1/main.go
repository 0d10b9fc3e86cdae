// Command figure1 regenerates Figure 1 of Huang & Wolfson (ICDE 1994): the
// partition of the (cd, cc) plane, under the stationary-computing cost
// model, into the regions where static allocation (SA) or dynamic
// allocation (DA) has the better worst-case cost.
//
// It prints the analytic region map (from the paper's bounds), the
// certified map, which decides what it can of the paper's unknown band
// from exact factors (DA's work-function graph on 3 processors and the
// nemesis families on up to 6; competitive.Classify), and each admissible
// cell's exact factors next to the paper's bound on DA.
//
// Usage:
//
//	figure1 [-max 2] [-steps 10] [-parallel N]
//	        [-metrics out.jsonl] [-progress] [-pprof addr] [-cpuprofile out.pprof]
//
// -metrics streams one JSON line per grid cell plus a final registry
// snapshot; two runs produce byte-identical files regardless of
// -parallel. -progress reports progress on stderr, -pprof serves
// net/http/pprof and expvar on the given address, and -cpuprofile writes a
// CPU profile of the whole run.
package main

import "objalloc/cmd/internal/figure"

func main() {
	figure.Parse("figure1", true).Report(false, "Figure 1 — stationary-computing cost model (cio = 1)")()
}
