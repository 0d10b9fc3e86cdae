// Command journalcheck validates a crash-recovery journal directory
// offline: it replays every per-shard journal (checkpoint restore plus
// deterministic tail re-application, exactly what the daemon runs when
// it starts over a journal directory) and prints the reconstructed
// stats. With -statsfile it reconciles the replay against a daemon's
// final stats snapshot, comparing the deterministic field subset —
// completed, reads, writes, coalesced, retransmissions, unreachable,
// duplicates, objects, message counts and billed cost — and exits
// nonzero on any divergence, so a journal that would not recover to the
// observed state is caught without starting a daemon.
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
//	             [-faults spec] [-noretry]
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

	"objalloc/cmd/internal/modelflags"
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
		journal   = fs.String("journal", "", "journal directory to replay (required)")
		statsfile = fs.String("statsfile", "", "daemon stats snapshot to reconcile the replay against")
		model     = modelflags.Bind(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *journal == "" {
		return fmt.Errorf("-journal is required")
	}

	cfg, err := model.Config()
	if err != nil {
		return err
	}
	cfg.Journal = *journal
	st, err := server.ReplayDir(cfg)
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
