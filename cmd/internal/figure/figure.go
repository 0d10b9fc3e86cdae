// Package figure is the body cmd/figure1 and cmd/figure2 share: the flags,
// the observability setup, the (cd, cc) grid classified from what is
// proved, and the three-part report. Each binary keeps only what is its
// own — its cost model, its title, and its epilogue.
package figure

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"

	"objalloc/internal/competitive"
	"objalloc/internal/cost"
	"objalloc/internal/engine"
	"objalloc/internal/obs"
	"objalloc/internal/stats"
)

// Run is one invocation of a figure binary: its parsed flags.
type Run struct {
	name           string
	maxCost        float64
	steps          int
	parallel       int
	metrics, pprof string
	progress       bool
	cpuProfile     string
}

// Parse declares the shared flags (plus -cpuprofile, where the binary
// offers it), parses the command line, points the logger at name, and
// exits 1 unless the grid has at least two steps of a positive size.
func Parse(name string, cpuProfile bool) *Run {
	log.SetFlags(0)
	log.SetPrefix(name + ": ")
	r := &Run{name: name}
	flag.Float64Var(&r.maxCost, "max", 2.0, "largest cc and cd value on the grid")
	flag.IntVar(&r.steps, "steps", 10, "grid points per axis")
	flag.IntVar(&r.parallel, "parallel", engine.DefaultParallelism(), "cells classified concurrently")
	flag.StringVar(&r.metrics, "metrics", "", "write instrumentation events and a final registry snapshot to this JSONL file")
	flag.BoolVar(&r.progress, "progress", false, "report classification progress on stderr")
	flag.StringVar(&r.pprof, "pprof", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060)")
	if cpuProfile {
		flag.StringVar(&r.cpuProfile, "cpuprofile", "", "write a CPU profile of the run to this file")
	}
	flag.Parse()
	if r.steps < 2 || !(r.maxCost > 0) {
		log.Fatal("need -steps >= 2 and -max > 0")
	}
	return r
}

// Report classifies the run's grid (Grid) and prints it under title
// (Print); an interrupt cancels it. Any failure is fatal. The caller
// defers the returned function, which flushes the metrics file and the
// profile once its epilogue is printed.
func (r *Run) Report(mobile bool, title string) (done func()) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	cli, err := obs.StartCLI(obs.CLIOptions{
		Metrics: r.metrics, Progress: r.progress, PprofAddr: r.pprof,
		CPUProfile: r.cpuProfile, Label: r.name,
	})
	if err != nil {
		log.Fatal(err)
	}
	cells, err := Grid(ctx, mobile, r.maxCost, r.steps, r.parallel, cli.Obs())
	if err != nil {
		cli.Close()
		log.Fatal(err)
	}
	Print(cells, title)
	return func() {
		if err := cli.Close(); err != nil {
			log.Fatal(err)
		}
	}
}

// Grid classifies (competitive.Classify) every (cd, cc) cell, cc-major, of
// the grid of steps points per axis up to maxCost in the stationary (mobile
// false) or mobile model, on a pool of parallel workers, with witnesses
// competitive.Witnesses. The cells, and their "cell" events to o in grid
// order, are the same at every parallelism.
func Grid(ctx context.Context, mobile bool, maxCost float64, steps, parallel int, o *obs.Obs) ([]competitive.Proved, error) {
	periods := competitive.Witnesses()
	cells, err := engine.CollectObserved(ctx, steps*steps, parallel, o.Hook(), func(ctx context.Context, i int) (competitive.Proved, error) {
		m := cost.SC(maxCost*float64(i/steps+1)/float64(steps), maxCost*float64(i%steps+1)/float64(steps))
		if mobile {
			m = cost.MC(m.CC, m.CD)
		}
		return competitive.Classify(ctx, m, periods)
	})
	if err != nil {
		return nil, err
	}
	for _, c := range cells {
		o.Emit(obs.Event{Name: "cell", Attrs: []obs.Attr{
			obs.Float("cc", c.Model.CC), obs.Float("cd", c.Model.CD), obs.String("mark", string(c.Mark)), obs.Float("sa", c.SA),
			obs.Int64("da3_num", c.DA3.Num), obs.Int64("da3_den", c.DA3.Den), obs.Int("n", c.N), obs.Float("witness", c.Witness)}})
	}
	return cells, nil
}

// Print writes the report under the binary's title: the paper's map, the
// certified map, and per admissible cell SA's exact factor, the paper's
// bound on DA, DA's exact factor at n = 3 where the graph was built, and
// the certifying witness's factor and N.
func Print(cells []competitive.Proved, title string) {
	fmt.Printf("%s\n\nAnalytic regions (the paper's theorems and propositions):\n%s\n", title, competitive.RenderProved(cells, true))
	fmt.Printf("Certified regions (exact factors: the paper's bounds, DA's work-function graph at n = 3, witness periods):\n%s\n", competitive.RenderProved(cells, false))
	fmt.Printf("Exact factors:\n%s", table(cells))
}

// table is Print's table, one row per admissible cell, "-" where a
// column does not apply.
func table(cells []competitive.Proved) string {
	tbl := stats.NewTable("cc", "cd", "SA exact", "DA bound", "DA exact, n = 3", "witness", "N", "mark")
	for _, c := range cells {
		da, witness, n := any("-"), any("-"), any("-")
		if c.DA3.States > 0 {
			da = fmt.Sprintf("%d/%d", c.DA3.Num, c.DA3.Den)
		}
		if c.N > 0 {
			witness, n = c.Witness, c.N
		}
		if c.Mark != 'x' {
			tbl.AddRow(c.Model.CC, c.Model.CD, c.SA, competitive.DABound(c.Model), da, witness, n, string(c.Mark))
		}
	}
	return tbl.String()
}
