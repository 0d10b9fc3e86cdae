// Command adversary prices the hand-built nemesis families behind the
// paper's lower-bound propositions and searches, by randomized
// hill-climbing, for a period on which DA does worse. Every factor it
// prints is exact: DA's cost ratio against the offline optimum on the
// period's endless repetition, so each is a certified lower bound on DA's
// competitiveness, printed next to the paper's analytic bound. SA needs no
// search: its factor is 1+cc+cd in SC and +Inf in MC at every n
// (Theorem 1 and Propositions 1 and 3), and at n = 3 the exact factors of
// both are competitive.Arena.Exact's.
//
// Usage:
//
//	adversary [-cc 0.3] [-cd 1.2] [-mobile] [-n 5] [-t 2]
//	          [-len 16] [-restarts 8] [-steps 300] [-seed 1]
//	          [-metrics out.jsonl] [-progress] [-pprof addr]
//
// -metrics streams one JSON line per search restart plus a final registry
// snapshot, -progress reports restart progress on stderr, and -pprof
// serves net/http/pprof and expvar on the given address.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"

	"objalloc/internal/adversary"
	"objalloc/internal/competitive"
	"objalloc/internal/cost"
	"objalloc/internal/dom"
	"objalloc/internal/engine"
	"objalloc/internal/model"
	"objalloc/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("adversary: ")
	var (
		cc       = flag.Float64("cc", 0.3, "control message cost")
		cd       = flag.Float64("cd", 1.2, "data message cost")
		mobile   = flag.Bool("mobile", false, "use the mobile-computing model (cio = 0)")
		n        = flag.Int("n", 5, "processors")
		t        = flag.Int("t", 2, "availability threshold")
		length   = flag.Int("len", 16, "longest period the search climbs to")
		restarts = flag.Int("restarts", 8, "hill-climbing restarts")
		steps    = flag.Int("steps", 300, "mutations per restart")
		seed     = flag.Int64("seed", 1, "search seed")
		parallel = flag.Int("parallel", engine.DefaultParallelism(), "concurrent search restarts")
		metrics  = flag.String("metrics", "", "write instrumentation events and a final registry snapshot to this JSONL file")
		progress = flag.Bool("progress", false, "report search progress on stderr")
		pprof    = flag.String("pprof", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	cli, err := obs.StartCLI(obs.CLIOptions{
		Metrics: *metrics, Progress: *progress, PprofAddr: *pprof, Label: "adversary",
	})
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := cli.Close(); err != nil {
			log.Fatal(err)
		}
	}()

	var m cost.Model
	if *mobile {
		m = cost.MC(*cc, *cd)
	} else {
		m = cost.SC(*cc, *cd)
	}
	if err := m.Validate(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("model %v, algorithm da\n\n", m)

	// Hand-built nemesis families first, each priced on one period.
	initial := model.FullSet(*t)
	for _, fam := range adversary.Families(*n, *t) {
		factor, err := competitive.Factor(ctx, m, dom.DynamicFactory, fam.Period, initial, *t)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-26s factor %8.4f  period %v\n", fam.Name, factor, fam.Period)
	}

	// Randomized hill-climbing search; restarts run concurrently.
	res, err := competitive.Search(ctx, competitive.SearchConfig{
		Model: m, N: *n, T: *t, Length: *length,
		Restarts: *restarts, Steps: *steps, Seed: *seed,
		Parallelism: *parallel,
		Obs:         cli.Obs(),
	})
	if err != nil {
		cli.Close()
		log.Fatal(err)
	}
	fmt.Printf("\ncertified search (%d evaluations):\n", res.Evaluations)
	fmt.Printf("best factor %8.4f  period %v\n", res.Factor, res.Period)
	bound := competitive.DABound(m)
	fmt.Printf("paper's bound: %.4f  (certified/bound = %.1f%%)\n", bound, 100*res.Factor/bound)
}
