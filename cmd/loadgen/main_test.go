package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"objalloc/internal/server"
)

// runGuarded runs loadgen with args and fails the test, rather than
// hanging it, if run has not returned within 5 s.
func runGuarded(t *testing.T, args ...string) (time.Duration, error) {
	t.Helper()
	start := time.Now()
	done := make(chan error, 1)
	go func() { done <- run(args) }()
	select {
	case err := <-done:
		return time.Since(start), err
	case <-time.After(5 * time.Second):
		t.Fatalf("run(%q) still running after 5s", args)
		return 0, nil
	}
}

// TestUnavailableShardEndsRun: a daemon whose shard has fail-stopped
// answers every batch with a 503 "unavailable" reply. loadgen must give
// up with an error at once, in count and duration mode alike, instead of
// resubmitting until it is killed.
func TestUnavailableShardEndsRun(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, `{"done":0,"results":[],"retry_after_ms":100,"unavailable":true}`)
	}))
	defer ts.Close()
	addr := strings.TrimPrefix(ts.URL, "http://")
	for _, mode := range [][]string{{"-requests", "32"}, {"-duration", "1s"}} {
		args := append([]string{"-addr", addr, "-workers", "1", "-objects", "4"}, mode...)
		took, err := runGuarded(t, args...)
		if err == nil {
			t.Errorf("%v: run returned nil against a fail-stopped shard", mode)
		}
		if took > 2*time.Second {
			t.Errorf("%v: run took %s to give up, want < 2s", mode, took)
		}
	}
}

// TestRunAgainstDaemon drives a two-shard server over HTTP and checks
// that every request was accepted and completed, and that each object's
// accepted sequence numbers run 1, 2, 3, … — the order the daemon's
// deduplication of resent batches relies on.
func TestRunAgainstDaemon(t *testing.T) {
	srv, err := server.New(server.Config{Shards: 2, N: 8, T: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain()
	h := srv.Handler()
	var mu sync.Mutex
	seqs := map[string][]uint64{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/batch" {
			h.ServeHTTP(w, r)
			return
		}
		body, _ := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		var req server.BatchRequest
		var resp server.BatchResponse
		if err := json.Unmarshal(body, &req); err != nil {
			t.Errorf("request body: %v", err)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Errorf("reply body: %v", err)
		}
		mu.Lock()
		for _, q := range req.Requests[:resp.Done] {
			seqs[q.Object] = append(seqs[q.Object], q.Seq)
		}
		mu.Unlock()
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	}))
	defer ts.Close()

	const requests = 600
	_, err = runGuarded(t, "-addr", strings.TrimPrefix(ts.URL, "http://"),
		"-workers", "3", "-objects", "12", "-batch", "16", "-requests", fmt.Sprint(requests), "-seed", "9")
	if err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.Accepted != requests || st.Complete != requests {
		t.Errorf("accepted %d, completed %d, want %d each", st.Accepted, st.Complete, requests)
	}
	if len(seqs) != 12 {
		t.Errorf("%d objects reached the daemon, want 12", len(seqs))
	}
	for obj, got := range seqs {
		for i, s := range got {
			if s != uint64(i+1) {
				t.Errorf("%s: accepted seqs %v, want 1, 2, 3, …", obj, got)
				break
			}
		}
	}
}

// TestFlagsRefused: the in-process fork is gone, and -retrywindow has
// one meaning, a positive bound on each batch.
func TestFlagsRefused(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-inproc"}, "not defined: -inproc"},
		{[]string{"-addr", "127.0.0.1:1", "-retrywindow", "0"}, "-retrywindow must be positive"},
		{[]string{"-addr", "127.0.0.1:1", "-retrywindow", "-1s"}, "-retrywindow must be positive"},
		{[]string{"-addr", "127.0.0.1:1", "-batch", "0"}, "at least 1"},
		{[]string{"-workers", "2"}, "-addr is required"},
	} {
		if _, err := runGuarded(t, c.args...); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("run(%q) = %v, want an error containing %q", c.args, err, c.want)
		}
	}
}

// TestReservoirBounded: past its capacity a reservoir keeps exactly cap
// samples while its count and maximum stay exact.
func TestReservoirBounded(t *testing.T) {
	r := newLatReservoir(4, 1)
	r.addN(time.Millisecond, 3)
	r.addN(5*time.Millisecond, 10)
	r.addN(2*time.Millisecond, 7)
	if len(r.buf) != r.cap {
		t.Errorf("len(buf) = %d, want %d", len(r.buf), r.cap)
	}
	n, _, _, _, max := r.percentiles()
	if n != 20 || max != 5*time.Millisecond {
		t.Errorf("seen %d, max %s; want 20, 5ms", n, max)
	}
}
