package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"objalloc/internal/cost"
	"objalloc/internal/model"
	"objalloc/internal/multiobject"
	"objalloc/internal/obs"
)

// drive issues a deterministic request stream: objects obj-0..obj-(objects-1),
// each object's requests strictly sequential, partitioned over workers by
// object index so per-object order is preserved at any worker count.
func drive(t *testing.T, s *Server, objects, perObject, workers int) {
	t.Helper()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for o := w; o < objects; o += workers {
				name := fmt.Sprintf("obj-%d", o)
				for i := 0; i < perObject; i++ {
					var q model.Request
					if (o+i)%3 == 0 {
						q = model.W(model.ProcessorID((o + i) % s.cfg.N))
					} else {
						q = model.R(model.ProcessorID((o + i) % s.cfg.N))
					}
					if _, err := s.Do(name, q); err != nil {
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

func TestServerBasicDrain(t *testing.T) {
	s, err := New(Config{Shards: 3, N: 4, T: 2})
	if err != nil {
		t.Fatal(err)
	}
	drive(t, s, 20, 10, 4)
	s.Drain()
	st := s.Stats()
	if !st.Final {
		t.Fatal("stats not final after drain")
	}
	if st.Accepted != 200 || st.Complete != 200 {
		t.Fatalf("accepted %d completed %d, want 200/200", st.Accepted, st.Complete)
	}
	if st.Objects != 20 {
		t.Fatalf("objects = %d, want 20", st.Objects)
	}
	if st.Cost <= 0 {
		t.Fatalf("cost = %v, want > 0", st.Cost)
	}
	if _, err := s.Do("late", model.R(0)); err != ErrDraining {
		t.Fatalf("post-drain Do error = %v, want ErrDraining", err)
	}
	if got := len(s.ObjectStats()); got != 20 {
		t.Fatalf("ObjectStats len = %d, want 20", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDrainMidLoadLosesNothing(t *testing.T) {
	s, err := New(Config{Shards: 4, Queue: 8, N: 4, T: 2})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var accepted, refused int64
	var mu sync.Mutex
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				_, err := s.Do(fmt.Sprintf("obj-%d", w), model.R(model.ProcessorID(w%4)))
				mu.Lock()
				if err == nil {
					accepted++
				} else {
					refused++
				}
				mu.Unlock()
			}
		}(w)
	}
	s.Drain() // races with the workers: everything accepted must complete
	wg.Wait()
	st := s.Stats()
	if st.Accepted != st.Complete {
		t.Fatalf("accepted %d != completed %d after drain", st.Accepted, st.Complete)
	}
	mu.Lock()
	defer mu.Unlock()
	if uint64(accepted) != st.Complete {
		t.Fatalf("callers saw %d successes, server completed %d", accepted, st.Complete)
	}
	if accepted+refused != 8*500 {
		t.Fatalf("accounted %d calls, want %d", accepted+refused, 8*500)
	}
}

func TestOverloadBackpressure(t *testing.T) {
	stall := make(chan struct{})
	var once sync.Once
	s, err := New(Config{
		Shards: 1, Queue: 2, Batch: 1, N: 2, T: 1,
		testBeforeRound: func(int) { <-stall },
	})
	if err != nil {
		t.Fatal(err)
	}
	results := make(chan error, 10)
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.Do("hot", model.R(0))
			results <- err
		}()
		// Only up to Queue requests fit; give each submission a moment
		// to either enqueue or bounce before firing the next.
	}
	var overloads int
	for i := 0; i < 10; i++ {
		err := <-results
		if err == nil {
			continue
		}
		var ov *Overloaded
		if !errors.As(err, &ov) {
			t.Fatalf("unexpected error: %v", err)
		}
		if ov.RetryAfter <= 0 {
			t.Fatalf("overload without retry hint: %+v", ov)
		}
		if ov.QueueCap != 2 {
			t.Fatalf("QueueCap = %d, want 2", ov.QueueCap)
		}
		overloads++
		if overloads == 1 {
			once.Do(func() { close(stall) }) // unblock the loop; the rest complete
		}
	}
	wg.Wait()
	once.Do(func() { close(stall) })
	s.Drain()
	st := s.Stats()
	if st.Accepted != st.Complete {
		t.Fatalf("accepted %d != completed %d", st.Accepted, st.Complete)
	}
	if st.Accepted+uint64(overloads) != 10 {
		t.Fatalf("accepted %d + overloads %d != 10", st.Accepted, overloads)
	}
	if overloads == 0 {
		t.Fatal("queue of 2 absorbed 10 concurrent requests without overload")
	}
}

func TestRetryAfterEscalates(t *testing.T) {
	if d := retryAfter(1); d != overloadBase {
		t.Fatalf("first rejection hint = %v, want %v", d, overloadBase)
	}
	if d := retryAfter(100); d != overloadBase<<overloadCapShift {
		t.Fatalf("streak hint = %v, want cap %v", d, overloadBase<<overloadCapShift)
	}
}

func TestCoalescingMobileDA(t *testing.T) {
	s, err := New(Config{Shards: 1, N: 4, T: 2, Model: cost.MC(0.25, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if !s.cfg.coalesce {
		t.Fatal("auto coalescing off under MC+DA")
	}
	seq := []model.Request{model.R(1), model.R(1), model.R(1), model.W(2), model.R(1), model.R(1)}
	var coalesced int
	for _, q := range seq {
		r, err := s.Do("x", q)
		if err != nil {
			t.Fatal(err)
		}
		if r.Coalesced {
			coalesced++
			if r.Cost != 0 {
				t.Fatalf("coalesced read billed %v", r.Cost)
			}
		}
	}
	// Reads 2 and 3 repeat read 1's copy; the write invalidates; read 5
	// refills; read 6 coalesces again.
	if coalesced != 3 {
		t.Fatalf("coalesced %d reads, want 3", coalesced)
	}
	s.Drain()
	if st := s.Stats(); st.Coalesce != 3 {
		t.Fatalf("stats coalesced = %d, want 3", st.Coalesce)
	}
}

// Reads coalesce exactly when that is free: the service drains every
// engine × model row of a repeat-read stream at the cost the engine
// itself bills for it, and serves reads from the freshness table only
// under DA with the mobile model, where the engine would bill them
// nothing.
func TestCoalescingOnlyWhenFree(t *testing.T) {
	stream := []model.Request{model.W(0), model.R(3), model.R(3), model.R(3), model.R(3)}
	for _, eng := range []Engine{EngineSA, EngineDA, EngineAdaptive} {
		for _, m := range []cost.Model{cost.SC(0.25, 1), cost.MC(0.25, 1)} {
			name := eng.String() + "/SC"
			if m.IsMobile() {
				name = eng.String() + "/MC"
			}
			t.Run(name, func(t *testing.T) {
				s, err := New(Config{Shards: 1, N: 4, T: 2, Engine: eng, Model: m})
				if err != nil {
					t.Fatal(err)
				}
				ref, err := multiobject.Open(multiobject.Config{Factory: s.cfg.factory, T: 2, Model: m})
				if err != nil {
					t.Fatal(err)
				}
				for _, q := range stream {
					if _, err := s.Do("x", q); err != nil {
						t.Fatal(err)
					}
					if _, err := ref.Apply("x", q); err != nil {
						t.Fatal(err)
					}
				}
				s.Drain()
				st := s.Stats()
				if got, want := milli(st.Cost), milli(ref.TotalCounts().Price(m)); got != want {
					t.Errorf("drained cost %d milli-units, engine bills %d", got, want)
				}
				wantCoalesced := uint64(0)
				if eng == EngineDA && m.IsMobile() {
					wantCoalesced = 3
				}
				if st.Coalesce != wantCoalesced {
					t.Errorf("coalesced %d reads, want %d", st.Coalesce, wantCoalesced)
				}
			})
		}
	}
}

func TestFaultsTotalLoss(t *testing.T) {
	s, err := New(Config{
		Shards: 2, N: 4, T: 2,
		Loss: 1.0, LossSeed: 7, Attempts: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		_, err := s.Do(fmt.Sprintf("o%d", i), model.R(0))
		var unreachable Unreachable
		if !errors.As(err, &unreachable) {
			t.Fatalf("total loss returned %v, want Unreachable", err)
		}
	}
	s.Drain()
	st := s.Stats()
	if st.Unreach != 10 {
		t.Fatalf("unreachable = %d, want 10", st.Unreach)
	}
	if st.Retrans != 30 {
		t.Fatalf("retransmissions = %d, want 30 (3 attempts × 10)", st.Retrans)
	}
	if st.Accepted != st.Complete {
		t.Fatalf("accepted %d != completed %d", st.Accepted, st.Complete)
	}
}

// snapshotFingerprint runs a fixed workload and returns the JSON of the
// deterministic registry snapshot plus the finalize event stream.
func snapshotFingerprint(t *testing.T, shards, workers int) string {
	t.Helper()
	reg := obs.NewRegistry()
	sink := &obs.MemSink{}
	s, err := New(Config{
		Shards: shards, N: 6, T: 3, Seed: 42,
		Model: cost.MC(0.25, 1),
		Loss:  0.2, LossSeed: 9, Attempts: 4,
		Obs: &obs.Obs{Registry: reg, Sink: sink},
	})
	if err != nil {
		t.Fatal(err)
	}
	drive(t, s, 24, 15, workers)
	s.Drain()
	snap, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	events, err := json.Marshal(sink.Events())
	if err != nil {
		t.Fatal(err)
	}
	return string(snap) + "\n" + string(events)
}

func TestSnapshotDeterminismAcrossShardsAndWorkers(t *testing.T) {
	want := snapshotFingerprint(t, 1, 1)
	for _, tc := range []struct{ shards, workers int }{{1, 8}, {3, 1}, {3, 8}, {8, 8}} {
		got := snapshotFingerprint(t, tc.shards, tc.workers)
		if got != want {
			t.Fatalf("snapshot at shards=%d workers=%d diverges from serial baseline:\n%s\nvs\n%s",
				tc.shards, tc.workers, got, want)
		}
	}
}

func TestJournalWrittenAndSynced(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Shards: 2, N: 4, T: 2, Journal: dir})
	if err != nil {
		t.Fatal(err)
	}
	drive(t, s, 6, 5, 2)
	s.Drain()
	var lines int
	for i := 0; i < 2; i++ {
		b, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("shard-%d.jsonl", i)))
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
			if line == "" {
				continue
			}
			var rec map[string]any
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("bad journal line %q: %v", line, err)
			}
			lines++
		}
	}
	if lines != 30 {
		t.Fatalf("journaled %d requests, want 30", lines)
	}

	// With a small checkpoint cadence the journal interleaves checkpoint
	// records (first key "t") with request records (first key "object");
	// the request count is unchanged and every checkpoint parses with
	// the fields replay needs.
	dir2 := t.TempDir()
	s2, err := New(Config{Shards: 2, N: 4, T: 2, Journal: dir2, CheckpointEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	drive(t, s2, 6, 5, 2)
	s2.Drain()
	var recs, ckpts int
	for i := 0; i < 2; i++ {
		b, err := os.ReadFile(filepath.Join(dir2, fmt.Sprintf("shard-%d.jsonl", i)))
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
			if line == "" {
				continue
			}
			if strings.HasPrefix(line, `{"t":`) {
				var ck struct {
					T       string          `json:"t"`
					Objects json.RawMessage `json:"objects"`
				}
				if err := json.Unmarshal([]byte(line), &ck); err != nil || ck.T != "ckpt" || len(ck.Objects) == 0 {
					t.Fatalf("bad checkpoint line %q: %v", line, err)
				}
				ckpts++
				continue
			}
			recs++
		}
	}
	if recs != 30 {
		t.Fatalf("checkpointed journal has %d request records, want 30", recs)
	}
	if ckpts == 0 {
		t.Fatal("no checkpoint records at CheckpointEvery=4 over 30 requests")
	}
}

func TestHTTPBatchAndStats(t *testing.T) {
	s, err := New(Config{Shards: 2, N: 4, T: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := &Client{Base: ts.URL}
	resp, err := c.Batch([]WireRequest{
		{Object: "a", Op: "r", Processor: 1},
		{Object: "a", Op: "w", Processor: 2},
		{Object: "b", Op: "r", Processor: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Done != 3 || len(resp.Results) != 3 {
		t.Fatalf("done = %d results = %d, want 3/3", resp.Done, len(resp.Results))
	}
	if resp.Results[1].Cost <= 0 {
		t.Fatalf("write cost = %v, want > 0", resp.Results[1].Cost)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Accepted != 3 {
		t.Fatalf("stats accepted = %d, want 3", st.Accepted)
	}
	s.Drain()
	resp, err = c.Batch([]WireRequest{{Object: "a", Op: "r", Processor: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Draining || resp.Done != 0 {
		t.Fatalf("post-drain batch = %+v, want draining/0 done", resp)
	}
}

func TestParseEngine(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Engine
		ok   bool
	}{{"da", EngineDA, true}, {"", EngineDA, true}, {"SA", EngineSA, true}, {"adaptive", EngineAdaptive, true}, {"ha", 0, false}, {"bogus", 0, false}} {
		got, err := ParseEngine(tc.in)
		if tc.ok != (err == nil) || (tc.ok && got != tc.want) {
			t.Fatalf("ParseEngine(%q) = %v, %v", tc.in, got, err)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{N: 3, T: 5}); err == nil {
		t.Fatal("T > N accepted")
	}
	if _, err := New(Config{N: 100}); err == nil {
		t.Fatal("N > 64 accepted")
	}
	for _, loss := range []float64{2, math.NaN(), -0.1} {
		if _, err := New(Config{Loss: loss}); err == nil {
			t.Fatalf("Loss = %v accepted", loss)
		}
	}
}

// TestServerSoak is the acceptance soak: ≥100k requests over ≥8 shards
// with concurrent workers, zero lost accepted requests.
func TestServerSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short")
	}
	s, err := New(Config{Shards: 8, Queue: 512, N: 8, T: 3})
	if err != nil {
		t.Fatal(err)
	}
	const objects, perObject, workers = 250, 400, 8 // 100k requests
	drive(t, s, objects, perObject, workers)
	s.Drain()
	st := s.Stats()
	if st.Accepted < 100000 {
		t.Fatalf("soak accepted %d requests, want ≥100000", st.Accepted)
	}
	if st.Accepted != st.Complete {
		t.Fatalf("soak lost requests: accepted %d completed %d", st.Accepted, st.Complete)
	}
	if st.Objects != objects {
		t.Fatalf("soak objects = %d, want %d", st.Objects, objects)
	}
}

func BenchmarkServerThroughput(b *testing.B) {
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s, err := New(Config{Shards: shards, Queue: 1024, N: 8, T: 3})
			if err != nil {
				b.Fatal(err)
			}
			var worker int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				// Each goroutine owns a disjoint object set, preserving
				// the per-object ordering contract.
				id := int(atomic.AddInt64(&worker, 1))
				i := 0
				for pb.Next() {
					name := fmt.Sprintf("g%d-o%d", id, i%64)
					var q model.Request
					if i%4 == 0 {
						q = model.W(model.ProcessorID(i % 8))
					} else {
						q = model.R(model.ProcessorID(i % 8))
					}
					for {
						if _, err := s.Do(name, q); err == nil {
							break
						}
					}
					i++
				}
			})
			b.StopTimer()
			s.Drain()
		})
	}
}
