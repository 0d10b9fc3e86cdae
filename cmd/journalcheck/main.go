// Command journalcheck validates a crash-recovery journal directory
// offline: it replays every per-shard journal (checkpoint restore plus
// deterministic tail re-application, exactly the daemon's -recover
// path) and prints the reconstructed stats. With -statsfile it
// reconciles the replay against a daemon's final stats snapshot,
// comparing the deterministic field subset — completed, reads, writes,
// coalesced, retransmissions, unreachable, duplicates, objects, message
// counts and billed cost — and exits nonzero on any divergence, so a
// journal that would not recover to the observed state is caught
// without starting a daemon.
//
// The model flags must match the run that wrote the journals (engine,
// processors, costs, faults, seed): replay redraws the fault streams
// from the same seeds, and every record's recorded cost is verified
// against the redraw, so a flag mismatch fails loudly rather than
// silently reconciling.
//
// Usage:
//
//	journalcheck -journal dir [-statsfile stats.json]
//	             [-shards 8] [-engine da] [-adaptive spec]
//	             [-n 8] [-t 3] [-cc 0.25] [-cd 1] [-mobile]
//	             [-coalesce auto] [-faults spec] [-noretry]
//	             [-attempts 0] [-seed 0] [-disk-faults spec]
//
// -disk-faults is accepted (and validated) for flag parity with
// objallocd, so a harness can hand both tools the same flag set. It
// does not change the replay: disk faults only perturb journal writes
// at run time, and the committed bytes a transient-fault run leaves
// behind replay exactly like a fault-free run's.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"objalloc/internal/adaptive"
	"objalloc/internal/chaos"
	"objalloc/internal/cost"
	"objalloc/internal/netsim"
	"objalloc/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("journalcheck: ")
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("journalcheck", flag.ContinueOnError)
	var (
		journal      = fs.String("journal", "", "journal directory to replay (required)")
		statsfile    = fs.String("statsfile", "", "daemon stats snapshot to reconcile the replay against")
		shards       = fs.Int("shards", 8, "shard count of the run that wrote the journals")
		engineName   = fs.String("engine", "da", "per-shard engine: da, sa, adaptive")
		adaptiveSpec = fs.String("adaptive", "", "adaptive-controller spec for -engine adaptive")
		n            = fs.Int("n", 8, "processors")
		t            = fs.Int("t", 3, "availability threshold")
		cc           = fs.Float64("cc", 0.25, "control-message cost")
		cd           = fs.Float64("cd", 1, "data-message cost")
		mobile       = fs.Bool("mobile", false, "mobile-computers model instead of stationary")
		coalesceName = fs.String("coalesce", "auto", "read coalescing: auto, on, off")
		faults       = fs.String("faults", "", "fault schedule of the original run")
		noretry      = fs.Bool("noretry", false, "retransmission discipline was disabled")
		attempts     = fs.Int("attempts", 0, "retransmission cap per message (0 = default)")
		seed         = fs.Int64("seed", 0, "fault-stream seed perturbation of the original run")
		diskFaults   = fs.String("disk-faults", "", "disk-fault plan of the original run (validated for flag parity; replay does not inject)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *journal == "" {
		return fmt.Errorf("-journal is required")
	}

	eng, err := server.ParseEngine(*engineName)
	if err != nil {
		return err
	}
	if *adaptiveSpec != "" && eng != server.EngineAdaptive {
		return fmt.Errorf("-adaptive requires -engine adaptive (got %s)", eng)
	}
	aspec, err := adaptive.ParseSpec(*adaptiveSpec)
	if err != nil {
		return err
	}
	var mode server.CoalesceMode
	switch *coalesceName {
	case "auto":
		mode = server.CoalesceAuto
	case "on":
		mode = server.CoalesceOn
	case "off":
		mode = server.CoalesceOff
	default:
		return fmt.Errorf("unknown -coalesce %q (want auto, on or off)", *coalesceName)
	}
	m := cost.SC(*cc, *cd)
	if *mobile {
		m = cost.MC(*cc, *cd)
	}
	plan, err := chaos.ParseFaults(*faults)
	if err != nil {
		return err
	}
	var planPtr *netsim.FaultPlan
	if plan.Active() {
		planPtr = &plan
	}
	if _, err := chaos.ParseDiskFaults(*diskFaults); err != nil {
		return err
	}

	st, err := server.ReplayDir(server.Config{
		Shards: *shards, Engine: eng, Adaptive: aspec, N: *n, T: *t,
		Model: m, Coalesce: mode, Seed: *seed,
		Faults:  planPtr,
		Retry:   netsim.RetryPolicy{Disabled: *noretry, MaxAttempts: *attempts},
		Journal: *journal,
	})
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	log.Printf("replayed %d shards: %d completed, %d objects, counts %s, cost %.3f",
		st.Shards, st.Complete, st.Objects, st.Counts, st.Cost)

	if *statsfile == "" {
		out, err := json.MarshalIndent(st, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(out))
		return nil
	}

	raw, err := os.ReadFile(*statsfile)
	if err != nil {
		return err
	}
	var want server.Stats
	if err := json.Unmarshal(raw, &want); err != nil {
		return fmt.Errorf("%s: %w", *statsfile, err)
	}
	// Reconcile the deterministic field subset. The snapshot's admission-
	// side fields (rejected, deduped, queue depths, rounds) depend on
	// scheduling and are not derivable from the journals.
	var bad []string
	check := func(field string, got, want any) {
		if got != want {
			bad = append(bad, fmt.Sprintf("%s: replay %v, snapshot %v", field, got, want))
		}
	}
	check("completed", st.Complete, want.Complete)
	check("reads", st.Reads, want.Reads)
	check("writes", st.Writes, want.Writes)
	check("coalesced", st.Coalesce, want.Coalesce)
	check("retransmissions", st.Retrans, want.Retrans)
	check("unreachable", st.Unreach, want.Unreach)
	check("duplicates", st.Dups, want.Dups)
	check("objects", st.Objects, want.Objects)
	check("counts", st.Counts, want.Counts)
	check("cost", st.Cost, want.Cost)
	if len(bad) > 0 {
		for _, b := range bad {
			log.Printf("mismatch: %s", b)
		}
		return fmt.Errorf("journal does not reconcile to %s (%d fields diverge)", *statsfile, len(bad))
	}
	log.Printf("journal reconciles to %s", *statsfile)
	return nil
}
