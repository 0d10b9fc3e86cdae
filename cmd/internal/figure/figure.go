// Package figure is the body cmd/figure1 and cmd/figure2 share: the flags,
// the observability setup, the (cd, cc) grid sweep over the schedule
// battery, and the three-part report. Each binary keeps only what is its
// own — its cost model, its headings, and its epilogue.
package figure

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"

	"objalloc/internal/competitive"
	"objalloc/internal/engine"
	"objalloc/internal/obs"
)

// Run is one invocation of a figure binary: its parsed flags.
type Run struct {
	name string

	MaxCost float64 // largest cc and cd value on the grid
	Steps   int     // grid points per axis
	T       int     // availability threshold of the battery

	n, rounds, parallel int
	seed                int64
	metrics, pprof      string
	progress            bool
	cpuProfile          string
}

// Parse declares the shared flags (plus -cpuprofile, where the binary
// offers it), parses the command line, and points the logger at name.
func Parse(name string, cpuProfile bool) *Run {
	log.SetFlags(0)
	log.SetPrefix(name + ": ")
	r := &Run{name: name}
	flag.Float64Var(&r.MaxCost, "max", 2.0, "largest cc and cd value on the grid")
	flag.IntVar(&r.Steps, "steps", 10, "grid points per axis")
	flag.IntVar(&r.n, "n", 5, "processors in the battery")
	flag.IntVar(&r.T, "t", 2, "availability threshold")
	flag.Int64Var(&r.seed, "seed", 1994, "battery seed")
	flag.IntVar(&r.rounds, "rounds", 60, "nemesis schedule rounds")
	flag.IntVar(&r.parallel, "parallel", engine.DefaultParallelism(), "concurrent sweep tasks (one algorithm's worst case over a chunk of the grid)")
	flag.StringVar(&r.metrics, "metrics", "", "write instrumentation events and a final registry snapshot to this JSONL file")
	flag.BoolVar(&r.progress, "progress", false, "report sweep progress on stderr")
	flag.StringVar(&r.pprof, "pprof", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060)")
	if cpuProfile {
		flag.StringVar(&r.cpuProfile, "cpuprofile", "", "write a CPU profile of the run to this file")
	}
	flag.Parse()
	return r
}

// Sweep measures every grid point under the stationary (mobile false) or
// mobile cost model; an interrupt cancels it. Any failure is fatal. The
// caller defers the returned function, which flushes the metrics file and
// the profile once the report is printed.
func (r *Run) Sweep(mobile bool) (points []competitive.GridPoint, done func()) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	cli, err := obs.StartCLI(obs.CLIOptions{
		Metrics: r.metrics, Progress: r.progress, PprofAddr: r.pprof,
		CPUProfile: r.cpuProfile, Label: r.name,
	})
	if err != nil {
		log.Fatal(err)
	}

	battery := competitive.DefaultBattery()
	battery.N, battery.T, battery.Seed, battery.NemesisRounds = r.n, r.T, r.seed, r.rounds

	grid := make([]float64, r.Steps)
	for i := range grid {
		grid[i] = r.MaxCost * float64(i+1) / float64(r.Steps)
	}
	points, err = competitive.Sweep(ctx, competitive.SweepSpec{
		CDs: grid, CCs: grid, Mobile: mobile, Battery: battery, Parallelism: r.parallel,
		Obs: cli.Obs(),
	})
	if err != nil {
		cli.Close()
		log.Fatal(err)
	}
	return points, func() {
		if err := cli.Close(); err != nil {
			log.Fatal(err)
		}
	}
}

// Print writes the report: the analytic region map (from the paper's
// bounds), the empirically measured map, and the measured ratios next to
// the analytic bounds, under the binary's headings.
func Print(points []competitive.GridPoint, title, analytic, empirical string) {
	fmt.Println(title)
	fmt.Println()
	fmt.Println(analytic)
	fmt.Print(competitive.RenderGrid(points, false))
	fmt.Println()
	fmt.Println(empirical)
	fmt.Print(competitive.RenderGrid(points, true))
	fmt.Println()
	fmt.Println("Measured worst-case ratios:")
	fmt.Print(competitive.RenderRatios(points))
}
