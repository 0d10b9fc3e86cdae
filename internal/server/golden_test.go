package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"objalloc/internal/tracing"
)

// updateGolden regenerates testdata/golden from the code under test.
// The committed files were written by the commit BEFORE shard state and
// replay were unified, which is what lets TestGoldenJournalReplays pin
// the on-disk format and the step semantics independently of that
// rewrite; regenerating re-anchors the pin to the current code.
var updateGolden = flag.Bool("update-golden", false, "rewrite internal/server/testdata/golden from the current code")

// writeGolden drives one battery row single-threaded (so the journal
// bytes are reproducible) with client sequence numbers on every other
// object and one resent sequence per such object, drains, and writes the
// journals plus the drained stats under dir.
func writeGolden(t *testing.T, cfg Config, dir string) {
	t.Helper()
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const objects, perObject = 6, 14
	for i := 0; i < perObject; i++ {
		for o := 0; o < objects; o++ {
			var seq uint64
			if o%2 == 0 {
				seq = uint64(i + 1)
			}
			// Service errors (unreachable) still consume the request.
			s.do(fmt.Sprintf("obj-%d", o), requestAt(o, i, cfg.N), tracing.SpanContext{}, seq)
			if seq == 5 {
				if r, _ := s.do(fmt.Sprintf("obj-%d", o), requestAt(o, i, cfg.N), tracing.SpanContext{}, seq); !r.Duplicate {
					t.Fatalf("resent seq %d of obj-%d not deduplicated", seq, o)
				}
			}
		}
	}
	s.Drain()
	if err := s.DrainErr(); err != nil {
		t.Fatal(err)
	}
	// Service rounds depend on scheduling; a stored count would make
	// regenerating the files rewrite them.
	st := s.Stats()
	for i := range st.PerShard {
		st.PerShard[i].Rounds = 0
	}
	b, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "stats.json"), append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenJournalReplays replays journals committed by an earlier
// commit: ReplayDir must reproduce the drained stats stored next to
// them, and a server started on a copy must report the same counters
// live, then drain clean to the same accounting.
func TestGoldenJournalReplays(t *testing.T) {
	var all []byte
	forRecoveryConfigs(t, func(t *testing.T, mk func(int, string) Config) {
		dir := filepath.Join("testdata", "golden", filepath.Base(t.Name()))
		// The step-semantics pin must keep exercising the delay draw.
		if f := mk(2, dir).Faults; f == nil || f.Delay <= 0 {
			t.Fatalf("battery row draws no delay faults: %+v", f)
		}
		if *updateGolden {
			writeGolden(t, mk(2, dir), dir)
		}
		b, err := os.ReadFile(filepath.Join(dir, "stats.json"))
		if err != nil {
			t.Fatal(err)
		}
		var drained Stats
		if err := json.Unmarshal(b, &drained); err != nil {
			t.Fatal(err)
		}
		for _, ss := range drained.PerShard {
			if ss.Rounds != 0 {
				t.Fatalf("stats.json stores shard %d's scheduling-dependent rounds = %d; writeGolden zeroes them", ss.Shard, ss.Rounds)
			}
		}
		want := detStats(drained)

		replayed, err := ReplayDir(mk(2, dir))
		if err != nil {
			t.Fatal(err)
		}
		if got := detStats(replayed); got != want {
			t.Fatalf("ReplayDir diverges from the golden stats:\n  got  %s\n  want %s", got, want)
		}

		tmp := t.TempDir()
		for i := 0; i < 2; i++ {
			name := fmt.Sprintf("shard-%d.jsonl", i)
			j, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			if n := bytes.Count(j, ckptPrefix); n < 2 {
				t.Fatalf("%s crosses %d checkpoints, want at least 2", name, n)
			}
			all = append(all, j...)
			if err := os.WriteFile(filepath.Join(tmp, name), j, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s, err := New(mk(2, tmp))
		if err != nil {
			t.Fatal(err)
		}
		// Every counter, the books included, is live: the recovered server
		// reports the drained accounting before it serves anything.
		if got := detStats(s.Stats()); got != want {
			t.Fatalf("recovered server's live counters diverge from the golden stats:\n  got  %s\n  want %s", got, want)
		}
		s.Drain()
		if err := s.DrainErr(); err != nil {
			t.Fatal(err)
		}
		final := s.Stats()
		if got := detStats(final); got != want || final.Accepted != final.Complete {
			t.Fatalf("recovered drain diverges from the golden stats (accepted %d):\n  got  %s\n  want %s", final.Accepted, got, want)
		}
	})
	// The pin is only as strong as the record shapes it covers.
	for _, field := range []string{`"seq":`, `"retransmits":`, `"coalesced":true`, `"err":`, `"fresh":`, `"streams":`, `"next":`, `"deduped":`} {
		if !bytes.Contains(all, []byte(field)) {
			t.Errorf("golden journals carry no %s field", field)
		}
	}
}
