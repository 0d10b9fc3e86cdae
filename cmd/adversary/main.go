// Command adversary searches for worst-case schedules against an online
// DOM algorithm by randomized hill-climbing, and evaluates the hand-built
// nemesis families behind the paper's lower-bound propositions. It reports
// the worst cost ratio found against the exact offline optimum, next to the
// paper's analytic bound.
//
// Usage:
//
//	adversary [-alg da] [-cc 0.3] [-cd 1.2] [-mobile] [-n 5] [-t 2]
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
	"objalloc/internal/baseline"
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
		algName  = flag.String("alg", "da", "algorithm under attack: sa, da, convergent, k2")
		cc       = flag.Float64("cc", 0.3, "control message cost")
		cd       = flag.Float64("cd", 1.2, "data message cost")
		mobile   = flag.Bool("mobile", false, "use the mobile-computing model (cio = 0)")
		n        = flag.Int("n", 5, "processors")
		t        = flag.Int("t", 2, "availability threshold")
		length   = flag.Int("len", 16, "schedule length for the search")
		restarts = flag.Int("restarts", 8, "hill-climbing restarts")
		steps    = flag.Int("steps", 300, "mutations per restart")
		seed     = flag.Int64("seed", 1, "search seed")
		anneal   = flag.Bool("anneal", false, "use simulated annealing instead of plain hill-climbing")
		shrink   = flag.Bool("shrink", true, "minimize the best witness found")
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

	var factory dom.Factory
	var bound float64
	switch *algName {
	case "sa":
		factory, bound = dom.StaticFactory, competitive.SABound(m)
	case "da":
		factory, bound = dom.DynamicFactory, competitive.DABound(m)
	case "convergent":
		factory, bound = baseline.ConvergentFactory(16), 0
	case "k2":
		factory, bound = baseline.KThresholdFactory(2), 0
	default:
		log.Fatalf("unknown algorithm %q (sa, da, convergent, k2)", *algName)
	}

	fmt.Printf("model %v, algorithm %s\n\n", m, *algName)

	// Hand-built nemesis families first.
	initial := model.FullSet(*t)
	outsider := model.ProcessorID(*t)
	type nemesis struct {
		name  string
		sched model.Schedule
	}
	nemeses := []nemesis{
		{"read-run (Prop 1/3)", adversary.SAPunisher(outsider, 8**length)},
		{"ping-pong", adversary.PingPong(0, outsider, 2**length)},
	}
	var readers []model.ProcessorID
	for p := *t; p < *n; p++ {
		readers = append(readers, model.ProcessorID(p))
	}
	if len(readers) > 0 {
		if s, err := adversary.DAPunisher(readers, 0, 2**length); err == nil {
			nemeses = append(nemeses, nemesis{"outsider rounds (Prop 2)", s})
		}
	}
	for _, nm := range nemeses {
		meas, err := competitive.Ratio(m, factory, nm.sched, initial, *t)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-26s ratio %8.4f  (alg %.3f / opt %.3f)\n", nm.name, meas.Ratio, meas.AlgCost, meas.OptCost)
	}

	// Randomized hill-climbing search; restarts run concurrently.
	res, err := competitive.Search(ctx, competitive.SearchConfig{
		Model: m, Factory: factory,
		N: *n, T: *t, Length: *length,
		Restarts: *restarts, Steps: *steps, Seed: *seed,
		Anneal: *anneal, Parallelism: *parallel,
		Obs: cli.Obs(),
	})
	if err != nil {
		cli.Close()
		log.Fatal(err)
	}
	method := "hill-climbing"
	if *anneal {
		method = "simulated annealing"
	}
	fmt.Printf("\n%s (%d evaluations):\n", method, res.Evaluations)
	fmt.Printf("worst ratio %8.4f  (alg %.3f / opt %.3f)\n", res.Ratio, res.AlgCost, res.OptCost)
	fmt.Printf("witness: %v\n", res.Schedule)
	if *shrink && res.Ratio > 1 {
		initial := model.FullSet(*t)
		small, meas, err := competitive.Shrink(m, factory, res.Schedule, initial, *t, res.Ratio)
		if err == nil && len(small) < len(res.Schedule) {
			fmt.Printf("minimized witness (%d -> %d requests, ratio %.4f): %v\n",
				len(res.Schedule), len(small), meas.Ratio, small)
		}
	}
	if bound > 0 {
		fmt.Printf("paper's bound: %.4f  (measured/bound = %.1f%%)\n", bound, 100*res.Ratio/bound)
	}
}
