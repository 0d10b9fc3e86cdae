package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"objalloc/internal/diskfault"
	"objalloc/internal/model"
	"objalloc/internal/tracing"
)

// opsCounter reads one counter out of the server's ops registry.
func opsCounter(s *Server, name string) int64 {
	for _, c := range s.Ops().Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// diskFaultConfig is the battery the disk-fault tests share: journal on,
// an aggressive checkpoint cadence (every commit round tries one, so a
// targeted op index can hit a checkpoint write deterministically), no
// message faults (the battery isolates the disk).
func diskFaultConfig(shards int, dir string) Config {
	return Config{
		Shards: shards, N: 6, T: 2,
		Seed:            11,
		Journal:         dir,
		CheckpointEvery: 1,
	}
}

// TestDiskFaultTransientIdentical is the tentpole invariant, table-
// driven on the failpoint spec: any plan whose faults are transient must
// leave the final deterministic accounting byte-identical to the same
// workload on a perfect disk — the supervisor absorbs every fault by
// rebuilding from the durable prefix and reprocessing. The op indices
// below are deterministic because a single driver issues one request per
// round: ops 1-2 are the first round's record write+fsync, ops 3-4 its
// checkpoint write+fsync.
func TestDiskFaultTransientIdentical(t *testing.T) {
	// One worker keeps every round at one request, so the journal op
	// sequence — and with it each at-index and probabilistic fault — is
	// deterministic across runs.
	const objects, perObject, workers = 6, 15, 1

	baseline, err := New(diskFaultConfig(2, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	driveRange(t, baseline, objects, 0, perObject, workers)
	baseline.Drain()
	want := detStats(baseline.Stats())

	cases := []struct {
		name string
		spec string
	}{
		{"enospc-mid-commit", "enospcat=3,enospclen=2"},
		{"fsync-fails-once-then-recovers", "syncerrat=2"},
		{"torn-first-record-write", "shortat=1"},
		{"torn-checkpoint-write", "shortat=3"},
		{"write-error", "writeerrat=1"},
		{"probabilistic-mix", "writeerr=0.01,shortwrite=0.01,syncerr=0.01,enospc=0.005,enospclen=2,seed=3"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := diskfault.ParsePlan(tc.spec)
			if err != nil {
				t.Fatalf("ParsePlan(%q): %v", tc.spec, err)
			}
			cfg := diskFaultConfig(2, t.TempDir())
			cfg.DiskFaults = &plan
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// A live scrape throughout, so -race covers every rebuild's
			// state swap.
			stop := pollDuring(t, s)
			driveRange(t, s, objects, 0, perObject, workers)
			stop()
			s.Drain()
			if got := detStats(s.Stats()); got != want {
				t.Errorf("accounting diverged under %q:\n got %s\nwant %s", tc.spec, got, want)
			}
			if n := opsCounter(s, "server.journal_faults"); n == 0 {
				t.Errorf("plan %q injected no journal fault; the case is vacuous", tc.spec)
			}
			if err := s.DrainErr(); err != nil {
				t.Errorf("transient plan %q reported a durability loss: %v", tc.spec, err)
			}
			for _, ss := range s.Stats().PerShard {
				if ss.State == "failed" {
					t.Errorf("transient plan %q fail-stopped shard %d", tc.spec, ss.Shard)
				}
			}
		})
	}
}

// TestJournalFaultIsNotAPanic pins the two ways a service loop can stop
// early apart: a journal fault reaches the supervisor as a typed error
// (server.journal_faults, never server.recovered_panics), a panic — here
// the PanicAfter failpoint — through recover(). Both rebuild from the
// durable prefix, so the accounting matches the undisturbed run's.
func TestJournalFaultIsNotAPanic(t *testing.T) {
	plan, err := diskfault.ParsePlan("syncerrat=2,enospcat=7,enospclen=2")
	if err != nil {
		t.Fatal(err)
	}
	run := func(disturb func(*Config)) (faults, panics int64, accounting string) {
		cfg := diskFaultConfig(2, t.TempDir())
		disturb(&cfg)
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		driveRange(t, s, 6, 0, 15, 1)
		s.Drain()
		return opsCounter(s, "server.journal_faults"), opsCounter(s, "server.recovered_panics"), detStats(s.Stats())
	}
	_, _, want := run(func(*Config) {})
	if faults, panics, got := run(func(cfg *Config) { cfg.DiskFaults = &plan }); faults < 1 || panics != 0 || got != want {
		t.Errorf("transient disk faults: journal_faults %d (want >= 1), recovered_panics %d (want 0), accounting\n got %s\nwant %s", faults, panics, got, want)
	}
	if faults, panics, got := run(func(cfg *Config) { cfg.PanicAfter = 10 }); faults != 0 || panics < 1 || got != want {
		t.Errorf("PanicAfter: journal_faults %d (want 0), recovered_panics %d (want >= 1), accounting\n got %s\nwant %s", faults, panics, got, want)
	}
}

// TestDiskFaultFailStop drives a dead disk (every journal op fails from
// the first) into the supervisor's escalation: after persistentFailureK
// consecutive no-progress journal faults the shard must fail-stop —
// in-flight and subsequent requests get a typed *Unavailable with a
// retry hint, /v1/healthz reports the failed state, and Drain both
// completes and reports the durability loss.
func TestDiskFaultFailStop(t *testing.T) {
	plan := diskfault.Plan{PersistAfter: 1}
	cfg := diskFaultConfig(1, t.TempDir())
	cfg.DiskFaults = &plan
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	_, err = s.Do("obj-0", model.R(0))
	var un *Unavailable
	if !errors.As(err, &un) {
		t.Fatalf("Do on a dead disk: got %v, want *Unavailable", err)
	}
	if un.RetryAfter <= 0 {
		t.Errorf("Unavailable.RetryAfter = %v, want positive", un.RetryAfter)
	}
	if un.Cause == nil {
		t.Error("Unavailable.Cause is nil, want the escalating fault")
	}

	// The admission fast-path must now refuse without touching the shard.
	if _, err := s.Do("obj-0", model.W(1)); !errors.As(err, &un) {
		t.Fatalf("Do after fail-stop: got %v, want *Unavailable", err)
	}

	if st := s.Stats().PerShard[0].State; st != "failed" {
		t.Errorf("shard state %q, want failed", st)
	}
	if n := opsCounter(s, "server.shard_failed"); n != 1 {
		t.Errorf("server.shard_failed = %d, want 1", n)
	}

	// HTTP surface: batch → 503 + Retry-After + unavailable; healthz →
	// 503 (every shard failed) with status "failed".
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	c := &Client{Base: srv.URL}
	resp, err := c.Batch([]WireRequest{{Object: "obj-0", Op: "r", Processor: 0}})
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	if !resp.Unavailable || resp.Done != 0 || resp.RetryAfterMS <= 0 {
		t.Errorf("batch reply %+v, want Unavailable with a retry hint and Done 0", resp)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := c.BatchAllCtx(ctx, tracing.SpanContext{}, []WireRequest{{Object: "obj-0", Op: "r", Processor: 0}}); err == nil ||
		!strings.Contains(err.Error(), "unavailable") {
		t.Errorf("BatchAllCtx against a failed shard: %v, want a terminal unavailable error", err)
	}
	code, body := httpGet(t, srv.URL+"/v1/healthz")
	if code != 503 || !strings.Contains(body, `"status":"failed"`) {
		t.Errorf("healthz = %d %s, want 503 with status failed", code, body)
	}

	done := make(chan struct{})
	go func() { s.Drain(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Drain did not complete against a fail-stopped shard")
	}
	if err := s.DrainErr(); err == nil || !strings.Contains(err.Error(), "persistent durability failure") {
		t.Errorf("DrainErr = %v, want the persistent durability failure", err)
	}
	// Fail-stop rolls the counters back to the durable prefix and
	// refunds every refused admission exactly once, so the drain-time
	// reconciliation invariant survives the dead disk.
	if st := s.Stats(); st.Accepted != st.Complete {
		t.Errorf("accepted %d != completed %d after fail-stop", st.Accepted, st.Complete)
	}
}

// TestDiskFaultPartialFailStop checks a fleet with one dead disk keeps
// serving the healthy shards: healthz stays 200 with status "failed",
// and objects on the surviving shard complete normally.
func TestDiskFaultPartialFailStop(t *testing.T) {
	plan := diskfault.Plan{PersistAfter: 1}
	cfg := diskFaultConfig(2, t.TempDir())
	cfg.DiskFaults = &plan
	// Kill only shard 1's disk by deactivating the other injector: the
	// plan is per-server, so instead pick two objects that hash to
	// different shards and drive the dead one first.
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Both shards share the dead-disk plan; find one object per shard.
	objA, objB := "", ""
	for i := 0; objA == "" || objB == ""; i++ {
		name := fmt.Sprintf("obj-%d", i)
		if s.shardOf(name).id == 0 && objA == "" {
			objA = name
		}
		if s.shardOf(name).id == 1 && objB == "" {
			objB = name
		}
	}
	var un *Unavailable
	if _, err := s.Do(objA, model.R(0)); !errors.As(err, &un) {
		t.Fatalf("Do on shard 0: %v, want *Unavailable", err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	code, body := httpGet(t, srv.URL+"/v1/healthz")
	if code != 200 || !strings.Contains(body, `"status":"failed"`) {
		t.Errorf("healthz with one failed shard = %d %s, want 200 with status failed", code, body)
	}
	// Shard 1 is still pre-fault (no journal ops yet); but its disk is
	// equally dead, so this request fail-stops it too — the point here is
	// only that the first shard's failure didn't take it down.
	if st := s.Stats().PerShard[1].State; st == "failed" {
		t.Errorf("shard 1 failed before touching its disk")
	}
	s.Drain()
	if _, err := s.Do(objB, model.R(0)); err != ErrDraining {
		t.Errorf("Do after drain: %v, want ErrDraining", err)
	}
}

// TestJournalCloseReportsSyncError is the satellite fix for
// journalWriter.close ignoring errors: a final commit whose fsync fails
// must surface through close so drain can report the durability loss.
func TestJournalCloseReportsSyncError(t *testing.T) {
	plan := diskfault.Plan{SyncErrAt: 2}
	inj := plan.Injector(0)
	dir := t.TempDir()
	j, err := openJournal(filepath.Join(dir, "shard-0.jsonl"), 0, 0, inj)
	if err != nil {
		t.Fatal(err)
	}
	tk := &task{object: "o", req: model.R(0)}
	j.record(tk, Result{Object: "o"})
	if err := j.close(); !errors.Is(err, diskfault.ErrSync) {
		t.Fatalf("close with a failing final fsync: %v, want ErrSync", err)
	}
	// And the clean path still returns nil.
	j2, err := openJournal(filepath.Join(dir, "shard-1.jsonl"), 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	j2.record(tk, Result{Object: "o"})
	if err := j2.close(); err != nil {
		t.Fatalf("clean close: %v", err)
	}
}

// TestDrainReportsCloseLoss checks the server-level wiring of the same
// satellite: a disk that dies only at the final drain commit makes Drain
// complete but DrainErr report the loss, and the journal_faults counter
// move.
func TestDrainReportsCloseLoss(t *testing.T) {
	// One request = ops 1-4 (record write+sync, ckpt write+sync). A held
	// buffer at drain needs an uncommitted record, which the group-commit
	// design never leaves behind — so kill the disk from op 5 on and
	// submit a second request: its record write (op 5) faults, the
	// supervisor rebuilds, the rebuilt commit faults again, escalation
	// fail-stops the shard, and DrainErr carries the loss.
	plan := diskfault.Plan{PersistAfter: 5}
	cfg := diskFaultConfig(1, t.TempDir())
	cfg.DiskFaults = &plan
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Do("obj-0", model.R(0)); err != nil {
		t.Fatalf("first request on a live disk: %v", err)
	}
	var un *Unavailable
	if _, err := s.Do("obj-0", model.R(1)); !errors.As(err, &un) {
		t.Fatalf("second request on the dead disk: %v, want *Unavailable", err)
	}
	s.Drain()
	if err := s.DrainErr(); err == nil {
		t.Error("DrainErr nil after a durability loss")
	}
	if n := opsCounter(s, "server.journal_faults"); n < int64(persistentFailureK) {
		t.Errorf("server.journal_faults = %d, want >= %d", n, persistentFailureK)
	}
	if st := s.Stats(); st.Accepted != st.Complete {
		t.Errorf("accepted %d != completed %d after fail-stop", st.Accepted, st.Complete)
	}
}

// TestDedupedCounterCheckpointAuthority pins the satellite fix for the
// deduped counter drifting across in-process recoveries: recovery now
// restores it from the checkpoint like every other counter, so an
// in-process rebuild reports exactly what a process restart from the
// same journal would (checkpoint value plus reprocessed work) instead of
// keeping a live value the journal cannot substantiate.
func TestDedupedCounterCheckpointAuthority(t *testing.T) {
	cfg := diskFaultConfig(1, t.TempDir())
	cfg.PanicAfter = 3 // dedup hits don't tick the chaos counter
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	do := func(seq uint64, q model.Request) Result {
		t.Helper()
		r, err := s.do("obj-0", q, tracing.SpanContext{}, seq)
		if err != nil {
			t.Fatalf("do(seq=%d): %v", seq, err)
		}
		return r
	}
	do(1, model.R(0)) // serviced; checkpoint {deduped:0}
	if r := do(1, model.R(0)); !r.Duplicate {
		t.Fatal("resent seq 1 not deduplicated")
	}
	do(2, model.W(1)) // serviced; checkpoint {deduped:1}
	if r := do(2, model.W(1)); !r.Duplicate {
		t.Fatal("resent seq 2 not deduplicated")
	}
	// Third serviced request trips PanicAfter mid-round; the supervisor
	// rebuilds from the last checkpoint (deduped=1 — the second acked
	// dedup happened after it and left no journal record) and reprocesses
	// the carried request.
	do(3, model.R(2))
	s.Drain()
	if got := s.Stats().Deduped; got != 1 {
		t.Errorf("deduped after in-process recovery = %d, want the checkpoint-authoritative 1", got)
	}
	if restarts := s.Stats().PerShard[0].Restarts; restarts == 0 {
		t.Error("chaos panic did not exercise recovery; the case is vacuous")
	}
}

// httpGet fetches one URL and returns the status code and body.
func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// FuzzReplayJournal feeds mutated journal bytes to the replay path,
// under both battery rows (mobile selects the one with coalescing on
// and an active loss/dup/delay plan, so the freshness-table restore,
// coalesced-record verification and every fault draw are fuzzed too):
// it must either rebuild a state cleanly or return an error — never
// panic, and never replay the same bytes to two different accountings.
func FuzzReplayJournal(f *testing.F) {
	// Seed with real journals produced by drained servers (records plus
	// checkpoint lines), their torn truncations, and hand-built edge
	// cases.
	fuzzConfig := func(mobile bool, dir string) Config {
		if mobile {
			return mobileRecoveryConfig(1, dir)
		}
		return diskFaultConfig(1, dir)
	}
	for _, mobile := range []bool{false, true} {
		dir := f.TempDir()
		s, err := New(fuzzConfig(mobile, dir))
		if err != nil {
			f.Fatal(err)
		}
		for i := 0; i < 24; i++ {
			// Unreachable service errors still consume the request.
			s.Do(fmt.Sprintf("obj-%d", i%3), requestAt(i%3, i/3, s.cfg.N))
		}
		s.Drain()
		real, err := os.ReadFile(filepath.Join(dir, "shard-0.jsonl"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(real, mobile)
		f.Add(real[:len(real)-7], mobile) // torn tail
		f.Add(real[3:], mobile)           // corrupt head
	}
	f.Add([]byte(""), false)
	f.Add([]byte("{\"object\":\"a\",\"op\":\"r\",\"p\":0,\"cost_milli\":0}\n"), false)
	f.Add([]byte("{\"object\":\"a\",\"op\":\"r\",\"p\":1,\"cost_milli\":0,\"coalesced\":true}\n"), true)
	f.Add([]byte("{\"t\":\"ckpt\",\"objects\":[],\"completed\":0}\n"), false)
	f.Add([]byte("{\"t\":\"ckpt\",\"objects\":[],\"fresh\":{\"a\":2},\"streams\":{\"a\":7},\"completed\":1}\n{\"object\":\"a\",\"op\":\"r\",\"p\":1,\"cost_milli\":0,\"coalesced\":true}\n"), true)
	f.Add([]byte("{\"t\":\"ckpt\",\"completed\":9}\n{\"object\":\"a\",\"op\":\"w\"\n"), false)
	f.Add([]byte("not json at all\n{\"object\":\"a\"}\n"), true)

	f.Fuzz(func(t *testing.T, data []byte, mobile bool) {
		if len(data) > 1<<20 {
			return // replay is linear in size; huge inputs add no coverage
		}
		path := filepath.Join(t.TempDir(), "shard-0.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		cfg := fuzzConfig(mobile, filepath.Dir(path))
		if err := cfg.Normalize(); err != nil {
			t.Fatal(err)
		}
		st, validLen, err := replayJournal(path, &cfg)
		if err != nil {
			return // a loud error is a correct outcome for mutated bytes
		}
		if validLen < 0 || validLen > int64(len(data)) {
			t.Fatalf("valid prefix %d outside [0,%d]", validLen, len(data))
		}
		st2, validLen2, err2 := replayJournal(path, &cfg)
		if err2 != nil {
			t.Fatalf("replay accepted then rejected the same bytes: %v", err2)
		}
		k, n := st.ctr.books()
		k2, n2 := st2.ctr.books()
		if validLen2 != validLen || st.ctr.load() != st2.ctr.load() || k != k2 || n != n2 {
			t.Fatalf("silent divergence: two replays of the same bytes disagree")
		}
	})
}
