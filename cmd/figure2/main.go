// Command figure2 regenerates Figure 2 of Huang & Wolfson (ICDE 1994): in
// the mobile-computing cost model (I/O cost zero — only wireless messages
// are billed) the dynamic allocation algorithm dominates static allocation
// on the whole admissible (cd, cc) half-plane, because SA is not
// competitive at all (Proposition 3) while DA stays within 2 + 3cc/cd of
// the optimum (Theorem 4). The paper's bounds decide every cell, so the
// certified map is the analytic one and no graph is built.
//
// Usage:
//
//	figure2 [-max 2] [-steps 10] [-parallel N]
//	        [-metrics out.jsonl] [-progress] [-pprof addr]
//
// -metrics streams one JSON line per grid cell plus a final registry
// snapshot, -progress reports progress on stderr, and -pprof serves
// net/http/pprof and expvar on the given address.
package main

import (
	"fmt"
	"log"

	"objalloc/cmd/internal/figure"
	"objalloc/internal/adversary"
	"objalloc/internal/competitive"
	"objalloc/internal/cost"
	"objalloc/internal/dom"
	"objalloc/internal/model"
	"objalloc/internal/stats"
)

func main() {
	defer figure.Parse("figure2", false).Report(true, "Figure 2 — mobile-computing cost model (cio = 0)")()

	// Proposition 3's divergence, made visible: SA's ratio on the read-run
	// nemesis grows linearly with the run length.
	fmt.Println()
	fmt.Println("Proposition 3 — SA's ratio diverges with the nemesis run length:")
	tbl := stats.NewTable("run length k", "SA cost / OPT cost")
	for _, k := range []int{4, 8, 16, 32, 64, 128} {
		meas, err := competitive.Ratio(cost.MC(0.3, 1.0), dom.StaticFactory, adversary.SAPunisher(2, k), model.FullSet(2), 2)
		if err != nil {
			log.Fatal(err)
		}
		tbl.AddRow(k, meas.Ratio)
	}
	fmt.Print(tbl.String())
}
