package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"objalloc/internal/cost"
	"objalloc/internal/multiobject"
	"objalloc/internal/netsim"
	"objalloc/internal/obs"
)

// Every counter the drain reports is live: once every Do of a load has
// returned, Stats reports the accounting the drain will — for each
// engine, journaled or not, with retransmissions billed.
func TestStatsLiveBeforeDrain(t *testing.T) {
	for _, eng := range []Engine{EngineDA, EngineSA, EngineAdaptive} {
		for _, journaled := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/journaled=%t", eng, journaled), func(t *testing.T) {
				cfg := Config{
					Shards: 2, N: 5, T: 2, Engine: eng, Seed: 3,
					Faults:          &netsim.FaultPlan{Seed: 4, Loss: 0.15, Dup: 0.1, Delay: 0.2, DelayMax: 3},
					Retry:           netsim.RetryPolicy{MaxAttempts: 3},
					CheckpointEvery: 16,
				}
				if journaled {
					cfg.Journal = t.TempDir()
				}
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				driveRange(t, s, 9, 0, 24, 3)
				live := s.Stats()
				if live.Final || live.Objects != 9 || live.Retrans == 0 || live.Counts.Data == 0 {
					t.Fatalf("live stats before drain: final=%t objects=%d retrans=%d counts=%+v",
						live.Final, live.Objects, live.Retrans, live.Counts)
				}
				s.Drain()
				if err := s.DrainErr(); err != nil {
					t.Fatal(err)
				}
				if got, want := detStats(live), detStats(s.Stats()); got != want {
					t.Fatalf("live stats diverge from the drained ones:\n  live    %s\n  drained %s", got, want)
				}
			})
		}
	}
}

// The books check names the shard and both totals. A checkpoint stores
// no books: restore derives them from its objects' counts plus its
// retransmission billing (extra), so an extra that disagrees with the
// checkpoint's retransmits count, or an object listed twice, fails the
// replay and the restart; at drain a tampered billing fails DrainErr.
func TestBooksCheckNamesShardAndTotals(t *testing.T) {
	cfg := func(dir string) Config {
		return Config{
			Shards: 2, N: 4, T: 2, Seed: 1,
			Faults:          &netsim.FaultPlan{Seed: 2, Loss: 0.2},
			Retry:           netsim.RetryPolicy{MaxAttempts: 3},
			Journal:         dir,
			CheckpointEvery: 8,
		}
	}
	t.Run("replay", func(t *testing.T) {
		dir := t.TempDir()
		s, err := New(cfg(dir))
		if err != nil {
			t.Fatal(err)
		}
		driveRange(t, s, 6, 0, 12, 2)
		s.Drain()
		path := filepath.Join(dir, "shard-1.jsonl")
		journal, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := bytes.Split(bytes.TrimSuffix(journal, []byte("\n")), []byte("\n"))
		last := -1
		for i, line := range lines {
			if bytes.HasPrefix(line, ckptPrefix) {
				last = i
			}
		}
		var ck ckptRecord
		if last < 0 || json.Unmarshal(lines[last], &ck) != nil || ck.Extra.Control == 0 {
			t.Fatalf("shard 1's last checkpoint (line %d) bills no retransmissions", last+1)
		}
		for _, tc := range []struct {
			name   string
			tamper func(c *ckptRecord)
			want   string
		}{
			{"extra", func(c *ckptRecord) { c.Extra.Control += 5 },
				fmt.Sprintf("+ retransmissions %v", cost.Counts{Control: int(ck.Retrans)})},
			{"object listed twice", func(c *ckptRecord) { c.Objects = append(c.Objects, c.Objects[0]) },
				fmt.Sprintf("over %d objects, directory", len(ck.Objects)+1)},
		} {
			c := ck
			c.Objects = append([]multiobject.ObjectState(nil), ck.Objects...)
			tc.tamper(&c)
			tampered := slices.Clone(lines)
			if tampered[last], err = json.Marshal(&c); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, append(bytes.Join(tampered, []byte("\n")), '\n'), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := New(cfg(dir))
			if err == nil || !strings.Contains(err.Error(), "shard-1.jsonl: books ") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%s: restart over the tampered checkpoint: %v, want shard-1.jsonl's books and %q", tc.name, err, tc.want)
			}
		}
	})
	t.Run("drain", func(t *testing.T) {
		s, err := New(cfg(""))
		if err != nil {
			t.Fatal(err)
		}
		driveRange(t, s, 6, 0, 12, 2)
		// Every reply has arrived and an unjournaled loop touches nothing
		// after its last one, so the idle state is the test's to read.
		st := s.shards[1].st.Load()
		books, objects := st.ctr.books()
		dir := st.db.TotalCounts()
		if books.Control == dir.Control {
			t.Fatal("shard 1 billed no retransmissions; the tamper would be vacuous")
		}
		st.ctr.retrans.Add(5)
		want := fmt.Sprintf("server: shard 1: books %v over %d objects, directory %v + retransmissions %v",
			books, objects, dir, cost.Counts{Control: books.Control - dir.Control + 5})
		s.Drain()
		if err := s.DrainErr(); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("DrainErr = %v, want it to contain %q", err, want)
		}
	})
}

// The drain bills an object's cost in the rounded milli-units the journal,
// the spans and the trace summary use: at cc = 0.3 three control messages
// price at 0.8999999999999999, which truncation would make 899.
func TestDrainObjectCostMilliRounds(t *testing.T) {
	sink := obs.NewMem()
	s, err := New(Config{
		Shards: 2, N: 5, T: 2, Model: cost.SC(0.3, 1),
		Obs: &obs.Obs{Registry: obs.NewRegistry(), Sink: sink},
	})
	if err != nil {
		t.Fatal(err)
	}
	const objects = 64
	want := map[string]int64{}
	for o := 0; o < objects; o++ {
		name := fmt.Sprintf("obj-%d", o)
		for i := 0; i < 3+o%29; i++ {
			r, err := s.Do(name, requestAt(o, i, 5))
			if err != nil {
				t.Fatal(err)
			}
			want[name] += milli(r.Cost)
		}
	}
	s.Drain()
	events := sink.Named("object")
	if len(events) != objects {
		t.Fatalf("%d object events, want %d", len(events), objects)
	}
	for _, e := range events {
		name := e.Get("name").(string)
		if got := e.Int64At("cost_milli"); got != want[name] {
			t.Errorf("%s: object event cost_milli = %d, Σ milli(Result.Cost) = %d", name, got, want[name])
		}
	}
}

// Scrapes run under load and read live books: two clients drive
// /v1/batch on a journaled two-shard server while two goroutines scrape
// /v1/stats and /v1/metrics. Without faults every scrape's completed,
// counts and objects are non-decreasing, and once the clients return the
// scraped Stats is the drained one but for Final and Draining.
func TestLiveScrapesUnderLoad(t *testing.T) {
	s, err := New(Config{Shards: 2, N: 4, T: 2, Journal: t.TempDir(), CheckpointEvery: 32})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := &Client{Base: ts.URL}

	var stop atomic.Bool
	var scrapers sync.WaitGroup
	scrape := func(read func() ([5]int64, error)) {
		defer scrapers.Done()
		var prev [5]int64
		for n := 0; !stop.Load() || n < 2; n++ {
			cur, err := read()
			if err != nil {
				t.Error(err)
				return
			}
			for i := range cur {
				if cur[i] < prev[i] {
					t.Errorf("scrape %d went back: %v after %v (completed, control, data, io, objects)", n, cur, prev)
					return
				}
			}
			prev = cur
		}
	}
	scrapers.Add(2)
	go scrape(func() ([5]int64, error) {
		st, err := c.Stats()
		return [5]int64{int64(st.Complete), int64(st.Counts.Control), int64(st.Counts.Data), int64(st.Counts.IO), int64(st.Objects)}, err
	})
	go scrape(func() ([5]int64, error) {
		text, err := c.Metrics()
		if err != nil {
			return [5]int64{}, err
		}
		m := promCounters(t, text)
		return [5]int64{m["objalloc_server_requests"], m["objalloc_server_msgs_control"],
			m["objalloc_server_msgs_data"], m["objalloc_server_io"], m["objalloc_server_objects"]}, nil
	})

	var clients sync.WaitGroup
	for w := 0; w < 2; w++ {
		clients.Add(1)
		go func(w int) {
			defer clients.Done()
			for round := 0; round < 40; round++ {
				var batch []WireRequest
				for o := w; o < 10; o += 2 {
					q := requestAt(o, round, 4)
					batch = append(batch, WireRequest{Object: fmt.Sprintf("obj-%d", o), Op: q.Op.String(), Processor: int(q.Processor)})
				}
				if resp, err := c.Batch(batch); err != nil || resp.Done != len(batch) {
					t.Errorf("batch: %+v, %v", resp, err)
					return
				}
			}
		}(w)
	}
	clients.Wait()
	stop.Store(true)
	scrapers.Wait()

	live, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	s.Drain()
	if err := s.DrainErr(); err != nil {
		t.Fatal(err)
	}
	drained := s.Stats()
	if live.Complete != 400 || !drained.Final || !drained.Draining {
		t.Fatalf("live completed %d (want 400), drained final=%t draining=%t", live.Complete, drained.Final, drained.Draining)
	}
	live.Final, live.Draining = drained.Final, drained.Draining
	if !reflect.DeepEqual(live, drained) {
		t.Fatalf("scraped stats diverge from the drained ones:\n  scraped %+v\n  drained %+v", live, drained)
	}
}

// promCounters reads the unlabelled sample lines of a Prometheus text
// exposition, failing on a metric family declared twice.
func promCounters(t *testing.T, text string) map[string]int64 {
	m := map[string]int64{}
	seen := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			if seen[f[2]] {
				t.Errorf("# TYPE %s declared twice", f[2])
			}
			seen[f[2]] = true
		}
		if len(f) == 2 && !strings.HasPrefix(f[0], "#") {
			if v, err := strconv.ParseInt(f[1], 10, 64); err == nil {
				m[f[0]] = v
			}
		}
	}
	return m
}
