package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"objalloc/cmd/internal/modelflags"
	"objalloc/internal/model"
	"objalloc/internal/server"
)

// writeJournal drains a server configured by the model flags args over
// a fresh journal directory and writes its final stats next to it, the
// way objallocd -statsfile does. The run stays under the default
// checkpoint cadence, so replay redraws every record's loss.
func writeJournal(t *testing.T, args []string) (dir, statsfile string) {
	t.Helper()
	fs := flag.NewFlagSet("write", flag.ContinueOnError)
	flags := modelflags.Bind(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	cfg, err := flags.Config()
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	cfg.Journal = filepath.Join(tmp, "journal")
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		for o := 0; o < 6; o++ {
			q := model.R(model.ProcessorID((o + i) % cfg.N))
			if i%3 == 0 {
				q = model.W(model.ProcessorID(o % cfg.N))
			}
			s.Do(fmt.Sprintf("obj-%d", o), q) // an unreachable request is still journaled
		}
	}
	s.Drain()
	if err := s.DrainErr(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Unreach == 0 || st.Retrans == 0 {
		t.Fatalf("journal draws no loss: unreachable %d, retransmissions %d", st.Unreach, st.Retrans)
	}
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	statsfile = filepath.Join(tmp, "stats.json")
	if err := os.WriteFile(statsfile, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return cfg.Journal, statsfile
}

// TestRunReconcilesOnlyUnderTheWritingFlags: a journal written at
// -faults loss=0.1 -attempts 1 reconciles to its drained stats under
// those flags, fails verification under another loss rate, and the
// fault keys and flags the service no longer has are refused.
func TestRunReconcilesOnlyUnderTheWritingFlags(t *testing.T) {
	dir, statsfile := writeJournal(t, []string{"-shards", "2", "-faults", "loss=0.1", "-attempts", "1"})
	check := func(extra ...string) error {
		args := append([]string{"-journal", dir, "-statsfile", statsfile, "-shards", "2", "-attempts", "1"}, extra...)
		return run(args)
	}
	if err := check("-faults", "loss=0.1"); err != nil {
		t.Fatalf("matching flags: %v", err)
	}
	if err := check("-faults", "loss=0.2"); err == nil || !strings.Contains(err.Error(), "replay") {
		t.Errorf("-faults loss=0.2: error %v, want a replay verification failure", err)
	}
	if err := check("-faults", "dup=0.1"); err == nil || !strings.Contains(err.Error(), "-faults") || !strings.Contains(err.Error(), "dup=0.1") {
		t.Errorf("-faults dup=0.1: error %v, want a refusal naming -faults and dup", err)
	}
	for _, gone := range [][]string{{"-noretry"}, {"-disk-faults", "writeerr=1"}} {
		if err := check(append([]string{"-faults", "loss=0.1"}, gone...)...); err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+gone[0]) {
			t.Errorf("%s: error %v, want an undefined flag", gone[0], err)
		}
	}
}
