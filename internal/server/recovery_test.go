package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"objalloc/internal/adaptive"
	"objalloc/internal/cost"
	"objalloc/internal/model"
	"objalloc/internal/tracing"
)

// driveRange is drive with an explicit per-object request range
// [from, to): the request at index i of an object's stream is identical
// whether issued in one run or split across a shutdown/recover
// boundary, which is what the continuation tests rely on.
func driveRange(t *testing.T, s *Server, objects, from, to, workers int) {
	t.Helper()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for o := w; o < objects; o += workers {
				name := fmt.Sprintf("obj-%d", o)
				for i := from; i < to; i++ {
					if _, err := s.Do(name, requestAt(o, i, s.cfg.N)); err != nil {
						var ov *Overloaded
						if errors.As(err, &ov) {
							i-- // retry: per-object order still intact
							continue
						}
						var unreachable Unreachable
						if errors.As(err, &unreachable) {
							continue // consumed, just failed
						}
						t.Errorf("Do(%s): %v", name, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// requestAt is request i of object o's stream: every third request a
// write, processors rotating — except that every fourth request repeats
// its predecessor's processor, so a coalescing config sees back-to-back
// reads from one processor (the only reads the freshness table serves).
func requestAt(o, i, n int) model.Request {
	p := o + i
	if i%4 == 3 {
		p--
	}
	if (o+i)%3 == 0 {
		return model.W(model.ProcessorID(p % n))
	}
	return model.R(model.ProcessorID(p % n))
}

// detStats renders the deterministic accounting subset — everything the
// determinism contract pins down, excluding scheduling-dependent fields
// (rejected, deduped, queue depths, rounds, restarts).
func detStats(st Stats) string {
	return fmt.Sprintf("completed=%d reads=%d writes=%d coalesced=%d retrans=%d unreach=%d objects=%d counts=%v cost=%.6f",
		st.Complete, st.Reads, st.Writes, st.Coalesce, st.Retrans, st.Unreach,
		st.Objects, st.Counts, st.Cost)
}

// recoveryConfig is the battery config the recovery tests share: the
// adaptive engine (so controller state must round-trip), loss faults
// (so fault-stream positions must round-trip), and a small
// checkpoint cadence (so replay crosses checkpoint boundaries).
func recoveryConfig(shards int, dir string) Config {
	aspec, err := adaptive.ParseSpec("adaptive:window=8,hysteresis=2")
	if err != nil {
		panic(err)
	}
	return Config{
		Shards: shards, N: 6, T: 2,
		Engine: EngineAdaptive, Adaptive: aspec,
		Seed: 11,
		Loss: 0.1, LossSeed: 5, Attempts: 4,
		Journal:         dir,
		CheckpointEvery: 8,
	}
}

// mobileRecoveryConfig is the battery's second row: dynamic allocation
// under the mobile cost model, where coalescing resolves on (the
// freshness table must round-trip and coalesced records must verify),
// with loss heavy enough to exhaust the retry budget (err records).
func mobileRecoveryConfig(shards int, dir string) Config {
	return Config{
		Shards: shards, N: 6, T: 2,
		Engine: EngineDA, Model: cost.MC(0.25, 1),
		Seed: 11,
		Loss: 0.3, LossSeed: 7, Attempts: 2,
		Journal:         dir,
		CheckpointEvery: 8,
	}
}

// recoveryConfigs is the table every recovery test runs over.
var recoveryConfigs = []struct {
	name string
	cfg  func(shards int, dir string) Config
}{
	{"adaptive", recoveryConfig},
	{"da-mobile", mobileRecoveryConfig},
}

// forRecoveryConfigs runs one recovery test body per battery row.
func forRecoveryConfigs(t *testing.T, body func(t *testing.T, mk func(shards int, dir string) Config)) {
	for _, rc := range recoveryConfigs {
		t.Run(rc.name, func(t *testing.T) { body(t, rc.cfg) })
	}
}

// A run split across a shutdown and a same-config restart must produce
// accounting byte-identical to the same workload run uninterrupted:
// journal replay restores every object's scheme, the adaptive
// controller's window, and the fault-stream positions.
func TestRecoverContinuesIdentically(t *testing.T) {
	forRecoveryConfigs(t, func(t *testing.T, mk func(int, string) Config) {
		const objects, perObject, workers = 8, 20, 2

		full, err := New(mk(2, t.TempDir()))
		if err != nil {
			t.Fatal(err)
		}
		driveRange(t, full, objects, 0, perObject, workers)
		full.Drain()
		want := detStats(full.Stats())

		dir := t.TempDir()
		first, err := New(mk(2, dir))
		if err != nil {
			t.Fatal(err)
		}
		driveRange(t, first, objects, 0, perObject/2, workers)
		first.Drain()

		// The identical config: a restart over the directory replays it.
		second, err := New(mk(2, dir))
		if err != nil {
			t.Fatal(err)
		}
		st := second.Stats()
		if st.Complete != uint64(objects*perObject/2) {
			t.Fatalf("recovered server reports %d completed, want %d replayed", st.Complete, objects*perObject/2)
		}
		driveRange(t, second, objects, perObject/2, perObject, workers)
		second.Drain()
		if got := detStats(second.Stats()); got != want {
			t.Fatalf("recovered run diverges from uninterrupted run:\n  got  %s\n  want %s", got, want)
		}
	})
}

// ReplayDir reconstructs a drained run's deterministic accounting from
// the journals alone.
func TestReplayDirMatchesStats(t *testing.T) {
	forRecoveryConfigs(t, func(t *testing.T, mk func(int, string) Config) {
		dir := t.TempDir()
		s, err := New(mk(2, dir))
		if err != nil {
			t.Fatal(err)
		}
		driveRange(t, s, 8, 0, 15, 2)
		s.Drain()
		live := s.Stats()
		want := detStats(live)
		if s.cfg.coalesce && (live.Coalesce == 0 || live.Unreach == 0) {
			t.Fatalf("coalescing row is vacuous: coalesced=%d unreach=%d", live.Coalesce, live.Unreach)
		}

		st, err := ReplayDir(mk(2, dir))
		if err != nil {
			t.Fatal(err)
		}
		if got := detStats(st); got != want {
			t.Fatalf("replay diverges from live stats:\n  got  %s\n  want %s", got, want)
		}
	})
}

// A torn final line — the partial write a crash mid-commit leaves — is
// discarded by replay, both as a raw truncated tail and as an
// unparseable newline-terminated line.
func TestTornFinalLineTolerated(t *testing.T) {
	dir := t.TempDir()
	s, err := New(recoveryConfig(2, dir))
	if err != nil {
		t.Fatal(err)
	}
	driveRange(t, s, 8, 0, 10, 2)
	s.Drain()
	want := detStats(s.Stats())

	for i, torn := range []string{
		`{"object":"obj-0","op":"r","p":`, // no trailing newline
		"torn garbage with newline\n",
	} {
		path := filepath.Join(dir, fmt.Sprintf("shard-%d.jsonl", i))
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(torn); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}

	st, err := ReplayDir(recoveryConfig(2, dir))
	if err != nil {
		t.Fatalf("replay with torn final lines: %v", err)
	}
	if got := detStats(st); got != want {
		t.Fatalf("torn-tail replay diverges:\n  got  %s\n  want %s", got, want)
	}

	// A restarting server truncates the torn tail away and continues.
	s2, err := New(recoveryConfig(2, dir))
	if err != nil {
		t.Fatal(err)
	}
	s2.Drain()
	if got := detStats(s2.Stats()); got != want {
		t.Fatalf("recovered-from-torn stats diverge:\n  got  %s\n  want %s", got, want)
	}
}

// A journal directory replays only under the configuration that wrote
// it: opened under another shard count, or under another engine, New
// refuses it and leaves every journal byte as it was.
func TestForeignJournalDirRefused(t *testing.T) {
	for _, tc := range []struct {
		name        string
		write, open Config
	}{
		{"shard count", Config{Shards: 4, N: 4, T: 2}, Config{Shards: 2, N: 4, T: 2}},
		{"engine", Config{Shards: 2, N: 4, T: 2, Engine: EngineDA}, Config{Shards: 2, N: 4, T: 2, Engine: EngineSA}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tc.write.Journal, tc.open.Journal = dir, dir
			s, err := New(tc.write)
			if err != nil {
				t.Fatal(err)
			}
			driveRange(t, s, 8, 0, 12, 2)
			s.Drain()
			before := journalBytes(t, dir)
			if s2, err := New(tc.open); err == nil {
				s2.Drain()
				t.Fatal("New accepted a journal directory written under another config")
			}
			after := journalBytes(t, dir)
			if len(after) != len(before) {
				t.Fatalf("journal files %d before, %d after", len(before), len(after))
			}
			for name, b := range before {
				if !bytes.Equal(after[name], b) {
					t.Errorf("%s changed: %d bytes before, %d after", name, len(b), len(after[name]))
				}
			}
		})
	}
}

// journalBytes reads every shard journal under dir, keyed by file name.
func journalBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "shard-*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte)
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) == 0 {
			t.Fatalf("%s is empty: nothing to refuse", p)
		}
		out[filepath.Base(p)] = b
	}
	return out
}

// Corruption in the middle of a journal — not a torn tail — must fail
// replay loudly rather than silently dropping records.
func TestCorruptMiddleFailsReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := New(recoveryConfig(1, dir))
	if err != nil {
		t.Fatal(err)
	}
	driveRange(t, s, 4, 0, 10, 1)
	s.Drain()

	path := filepath.Join(dir, "shard-0.jsonl")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(string(b), "\n"), "\n")
	if len(lines) < 3 {
		t.Fatalf("journal too short to corrupt: %d lines", len(lines))
	}
	corrupt := strings.Join(lines[:len(lines)-2], "") + "corrupt\n" + lines[len(lines)-2] + lines[len(lines)-1]
	if err := os.WriteFile(path, []byte(corrupt), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayDir(recoveryConfig(1, dir)); err == nil {
		t.Fatal("replay accepted a journal with mid-file corruption")
	}
}

// The journals written at different shard counts replay to the same
// aggregate accounting: replay preserves the shard-count-independence
// of the determinism contract.
func TestReplayDeterminismAcrossShardCounts(t *testing.T) {
	forRecoveryConfigs(t, func(t *testing.T, mk func(int, string) Config) {
		var want string
		for i, shards := range []int{1, 8} {
			dir := t.TempDir()
			s, err := New(mk(shards, dir))
			if err != nil {
				t.Fatal(err)
			}
			driveRange(t, s, 12, 0, 15, 4)
			s.Drain()
			st, err := ReplayDir(mk(shards, dir))
			if err != nil {
				t.Fatal(err)
			}
			if got := detStats(st); i == 0 {
				want = got
			} else if got != want {
				t.Fatalf("replay at %d shards diverges from 1 shard:\n  got  %s\n  want %s", shards, got, want)
			}
		}
	})
}

// pollDuring scrapes Stats and /v1/healthz in a tight loop until the
// returned stop function is called, so `go test -race` covers a live
// scrape racing the supervisor while it installs a replayed state.
func pollDuring(t *testing.T, s *Server) (stop func()) {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-quit:
				return
			default:
			}
			s.Stats()
			resp, err := http.Get(ts.URL + "/v1/healthz")
			if err != nil {
				t.Errorf("healthz during recovery: %v", err)
				return
			}
			resp.Body.Close()
		}
	}()
	return func() { close(quit); <-done; ts.Close() }
}

// An injected panic in every shard loop must be supervised back to
// healthy: no accepted request is lost, the restart is counted, and the
// accounting still matches a panic-free same-seed run — all under a
// concurrent Stats/healthz scrape.
func TestShardPanicRecovery(t *testing.T) {
	forRecoveryConfigs(t, func(t *testing.T, mk func(int, string) Config) {
		const objects, perObject, workers = 8, 20, 4

		clean, err := New(mk(2, t.TempDir()))
		if err != nil {
			t.Fatal(err)
		}
		driveRange(t, clean, objects, 0, perObject, workers)
		clean.Drain()
		want := detStats(clean.Stats())

		cfg := mk(2, t.TempDir())
		panicAfter(&cfg, 5)
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		stop := pollDuring(t, s)
		driveRange(t, s, objects, 0, perObject, workers)
		stop()
		s.Drain()
		st := s.Stats()
		if st.Accepted != st.Complete {
			t.Fatalf("panic run lost requests: accepted %d, completed %d", st.Accepted, st.Complete)
		}
		var restarts uint64
		for _, ss := range st.PerShard {
			restarts += ss.Restarts
			if ss.State != "" {
				t.Fatalf("shard %d ended in state %q, want healthy", ss.Shard, ss.State)
			}
		}
		if restarts == 0 {
			t.Fatal("no supervised restarts recorded — the injected panic never fired")
		}
		if got := detStats(st); got != want {
			t.Fatalf("post-panic accounting diverges from panic-free run:\n  got  %s\n  want %s", got, want)
		}
	})
}

// Per-object sequence numbers make retries idempotent: a seq below the
// serviced horizon is answered as a zero-cost duplicate, in-process and
// over the HTTP wire.
func TestSeqDedup(t *testing.T) {
	s, err := New(Config{Shards: 2, N: 4, T: 2})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := s.do("x", model.R(0), tracing.SpanContext{}, 1)
	if err != nil || r1.Duplicate {
		t.Fatalf("first seq-1 request: %+v, %v", r1, err)
	}
	r2, err := s.do("x", model.R(0), tracing.SpanContext{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Duplicate || r2.Cost != 0 {
		t.Fatalf("resent seq-1 request not deduplicated: %+v", r2)
	}
	r3, err := s.do("x", model.W(1), tracing.SpanContext{}, 2)
	if err != nil || r3.Duplicate {
		t.Fatalf("seq-2 request: %+v, %v", r3, err)
	}
	s.Drain()
	st := s.Stats()
	if st.Accepted != 2 || st.Complete != 2 || st.Deduped != 1 {
		t.Fatalf("accepted/completed/deduped = %d/%d/%d, want 2/2/1", st.Accepted, st.Complete, st.Deduped)
	}
}

func TestSeqDedupOverHTTP(t *testing.T) {
	s, err := New(Config{Shards: 2, N: 4, T: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := &Client{Base: ts.URL}

	reqs := []WireRequest{
		{Object: "a", Op: "r", Processor: 0, Seq: 1},
		{Object: "a", Op: "w", Processor: 1, Seq: 2},
	}
	first, err := c.Batch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range first.Results {
		if r.Duplicate {
			t.Fatalf("fresh request marked duplicate: %+v", r)
		}
	}
	second, err := c.Batch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if second.Done != 2 {
		t.Fatalf("resent batch done = %d, want 2", second.Done)
	}
	for _, r := range second.Results {
		if !r.Duplicate || r.Cost != 0 {
			t.Fatalf("resent request not deduplicated: %+v", r)
		}
	}
	s.Drain()
	st := s.Stats()
	if st.Accepted != st.Complete || st.Deduped != 2 {
		t.Fatalf("accepted/completed/deduped = %d/%d/%d, want equal accept/complete and 2 deduped",
			st.Accepted, st.Complete, st.Deduped)
	}
}

// BatchAllCtx gives up at the context deadline, reporting the
// unserviced tail, when the server never comes back.
func TestBatchAllCtxDeadline(t *testing.T) {
	c := &Client{Base: "http://127.0.0.1:1", Seed: 9}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.BatchAllCtx(ctx, tracing.SpanContext{}, []WireRequest{{Object: "a", Op: "r"}})
	if err == nil {
		t.Fatal("BatchAllCtx against a dead address returned nil error")
	}
	if !strings.Contains(err.Error(), "unserviced") {
		t.Fatalf("error %q does not report the unserviced tail", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("BatchAllCtx ran far past its deadline: %s", time.Since(start))
	}
}
