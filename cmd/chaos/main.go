// Command chaos runs invariant-checked fault-injection scenarios against
// the protocol engines: the DA simulator, quorum consensus, and the
// mode-switching failover stack. A scenario composes a seeded workload
// with a deterministic fault plan (loss, duplication, bounded delay,
// link flaps); after every step the runner checks that reads return the
// latest committed version, replicas never regress, the object stays
// t-available, and DA↔quorum transitions happen only on real membership
// changes.
//
// Usage:
//
//	chaos [-engine ha] [-n 6] [-t 3] [-steps 2000] [-seed 1]
//	      [-faults loss=0.1,dup=0.05,delay=0.2,delaymax=4]
//	      [-churn 0.02] [-noretry] [-attempts 10]
//	      [-search 0] [-parallel N] [-shrink]
//	      [-metrics out.jsonl] [-progress] [-pprof addr]
//
// Everything is deterministic from -seed: the same invocation produces
// byte-identical output (including -metrics) at any -parallel. With
// -search K, K seed-derived variants run concurrently and report in
// variant order. With -shrink, a failing scenario is minimized by delta
// debugging and the reproducer is printed.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"

	"objalloc/internal/chaos"
	"objalloc/internal/engine"
	"objalloc/internal/netsim"
	"objalloc/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("chaos: ")
	var (
		engineName = flag.String("engine", "ha", "engine under test: da, quorum, ha")
		n          = flag.Int("n", 6, "processors")
		t          = flag.Int("t", 3, "availability threshold")
		steps      = flag.Int("steps", 2000, "workload steps to generate")
		seed       = flag.Uint64("seed", 1, "scenario seed (drives workload and fault plan)")
		faults     = flag.String("faults", "loss=0.1,dup=0.05,delay=0.2,delaymax=4", "fault schedule (key=value, comma-separated; empty disables)")
		churn      = flag.Float64("churn", 0, "per-step crash/restart probability (quorum and ha only)")
		writeFrac  = flag.Float64("writes", 0.25, "fraction of workload steps that are writes")
		noretry    = flag.Bool("noretry", false, "disable the retransmission discipline (demonstrates the invariants depend on it)")
		attempts   = flag.Int("attempts", 0, "retransmission cap per message (0 = default)")
		search     = flag.Int("search", 0, "run this many seed-derived scenario variants instead of one run")
		parallel   = flag.Int("parallel", engine.DefaultParallelism(), "concurrent variants during -search")
		shrink     = flag.Bool("shrink", false, "delta-debug a failing scenario to a minimal reproducer")
		metrics    = flag.String("metrics", "", "write the instrumentation events (in the order they happen, stamped with their step) and a final registry snapshot to this JSONL file")
		progress   = flag.Bool("progress", false, "report progress on stderr")
		pprof      = flag.String("pprof", "", "serve net/http/pprof and expvar on this address")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	eng, err := chaos.ParseEngine(*engineName)
	if err != nil {
		log.Fatal(err)
	}
	plan, err := netsim.ParseFaults(*faults)
	if err != nil {
		log.Fatal(err)
	}
	sc := chaos.Scenario{
		Engine: eng, N: *n, T: *t, Seed: *seed, Steps: *steps,
		Faults: plan, Churn: *churn, WriteFrac: *writeFrac,
		Retry: netsim.RetryPolicy{Disabled: *noretry, MaxAttempts: *attempts},
	}

	cli, err := obs.StartCLI(obs.CLIOptions{
		Metrics: *metrics, Progress: *progress, PprofAddr: *pprof, Label: "chaos",
	})
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := cli.Close(); err != nil {
			log.Fatal(err)
		}
	}()

	if *search > 0 {
		results, err := chaos.Search(ctx, sc, *search, *parallel)
		if err != nil {
			cli.Close()
			log.Fatal(err)
		}
		failed := -1
		for i, r := range results {
			status := "ok"
			if r.Failed() {
				status = r.Violations[0].String()
				if failed < 0 {
					failed = i
				}
			}
			fmt.Printf("variant %3d seed %20d  steps %5d  reads %5d writes %5d crashes %3d restarts %3d  drops %6d retrans %6d  %s\n",
				i, r.Seed, r.StepsRun, r.Reads, r.Writes, r.Crashes, r.Restarts,
				r.Overhead.Dropped, r.Overhead.Retrans, status)
		}
		if failed < 0 {
			fmt.Printf("\nsearch: %d variants, zero invariant violations\n", len(results))
			return
		}
		fmt.Printf("\nsearch: variant %d violated an invariant\n", failed)
		if *shrink {
			bad := sc
			bad.Seed = results[failed].Seed
			bad.Faults.Seed = 0
			report(chaos.Shrink(bad))
		}
		if err := cli.Close(); err != nil {
			log.Print(err)
		}
		os.Exit(1)
	}

	res, err := chaos.RunContext(ctx, sc, cli.Obs())
	if err != nil {
		cli.Close()
		log.Fatal(err)
	}
	fmt.Printf("engine %s  n=%d t=%d seed=%d  faults %q\n", eng, *n, *t, *seed, netsim.FormatFaults(plan))
	fmt.Printf("steps %d (reads %d, writes %d, crashes %d, restarts %d), final version %d\n",
		res.StepsRun, res.Reads, res.Writes, res.Crashes, res.Restarts, res.FinalSeq)
	fmt.Printf("cost: %d control, %d data, %d I/O\n", res.Counts.Control, res.Counts.Data, res.Counts.IO)
	fmt.Printf("reliability overhead: %d retransmissions, %d acks, %d dropped\n",
		res.Overhead.Retrans, res.Overhead.Acks, res.Overhead.Dropped)
	if !res.Failed() {
		fmt.Println("invariants: all hold")
		return
	}
	fmt.Printf("invariants: %d violation(s)\n", len(res.Violations))
	for _, v := range res.Violations {
		fmt.Printf("  %v\n", v)
	}
	if *shrink {
		report(chaos.Shrink(sc))
	}
	if err := cli.Close(); err != nil {
		log.Print(err)
	}
	os.Exit(1)
}

// report prints a shrunk reproducer.
func report(small chaos.Scenario) {
	fmt.Printf("\nminimal reproducer: engine %s n=%d t=%d seed=%d faults %q, %d step(s):\n",
		small.Engine, small.N, small.T, small.Seed, netsim.FormatFaults(small.Faults), len(small.Schedule))
	for i, st := range small.Schedule {
		fmt.Printf("  %3d %v\n", i, st)
	}
}
