package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"objalloc/internal/model"
	"objalloc/internal/obs"
	"objalloc/internal/tracing"
)

// TestBatchTraceparentValidation table-drives the traceparent header
// handling: malformed values are rejected cleanly with 400 before any
// request is admitted; valid and absent headers are accepted.
func TestBatchTraceparentValidation(t *testing.T) {
	s, err := New(Config{Shards: 1, N: 4, T: 2, Trace: tracing.New(tracing.Config{})})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	valid := tracing.DeriveRequest(1, "client", 0).Traceparent()
	for _, tc := range []struct {
		name   string
		header string
		status int
	}{
		{"absent", "", http.StatusOK},
		{"valid", valid, http.StatusOK},
		{"truncated", valid[:40], http.StatusBadRequest},
		{"bad version", "99" + valid[2:], http.StatusBadRequest},
		{"bad separators", strings.ReplaceAll(valid, "-", "_"), http.StatusBadRequest},
		{"non-hex trace", valid[:3] + strings.Repeat("x", 32) + valid[35:], http.StatusBadRequest},
		{"zero trace", valid[:3] + strings.Repeat("0", 32) + valid[35:], http.StatusBadRequest},
		{"zero span", valid[:36] + strings.Repeat("0", 16) + valid[52:], http.StatusBadRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/batch",
				strings.NewReader(`{"requests":[{"object":"a","op":"r","processor":0}]}`))
			if err != nil {
				t.Fatal(err)
			}
			if tc.header != "" {
				req.Header.Set("traceparent", tc.header)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.status)
			}
		})
	}

	st := s.Stats()
	if st.Accepted != 2 {
		t.Fatalf("accepted = %d, want 2 (absent + valid only)", st.Accepted)
	}
}

// TestBatchBodyLimit checks an oversized batch body is refused with 413
// before any request is admitted, and that a body just under the limit
// still parses.
func TestBatchBodyLimit(t *testing.T) {
	s, err := New(Config{Shards: 1, N: 4, T: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// One JSON document comfortably past the limit: the decoder must
	// keep reading it and trip the MaxBytesReader.
	entry := `{"object":"o","op":"r","processor":0},`
	var big bytes.Buffer
	big.WriteString(`{"requests":[`)
	for big.Len() <= maxBatchBytes {
		big.WriteString(entry)
	}
	big.WriteString(`{"object":"o","op":"r","processor":0}]}`)

	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", &big)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body status = %d, want 413", resp.StatusCode)
	}
	if st := s.Stats(); st.Accepted != 0 {
		t.Fatalf("oversized body admitted %d requests", st.Accepted)
	}

	c := &Client{Base: ts.URL}
	ok, err := c.Batch([]WireRequest{{Object: "o", Op: "r", Processor: 0}})
	if err != nil || ok.Done != 1 {
		t.Fatalf("normal batch after rejection: %+v, %v", ok, err)
	}

	// The 8 MiB the refused body grew its scratch to must not outlive
	// it: whatever the pool hands later batches is small.
	for i := 0; i < 64; i++ {
		if sc := getScratch(); cap(sc.buf) > maxPooledBuf {
			t.Fatalf("the pool kept a %d-byte buffer (bound %d)", cap(sc.buf), maxPooledBuf)
		}
	}
	large := &batchScratch{buf: make([]byte, 0, maxPooledBuf+1)}
	if large.reset() {
		t.Fatal("reset kept a buffer over the bound")
	}
	wide := &batchScratch{body: BatchRequest{Requests: make([]WireRequest, 1, maxPooledBatch+1)}}
	if wide.reset() {
		t.Fatal("reset kept a batch over the bound")
	}
	small := &batchScratch{
		buf:  append(make([]byte, 0, maxPooledBuf), "body"...),
		body: BatchRequest{Requests: []WireRequest{{Object: "o"}, {Object: "p"}}[:1]},
		resp: BatchResponse{Done: 1, Results: []WireResult{{Object: "o"}}},
	}
	if !small.reset() || cap(small.buf) != maxPooledBuf || len(small.buf) != 0 || small.resp.Done != 0 {
		t.Fatalf("reset of a small scratch: %+v", small)
	}
	if reqs := small.body.Requests[:2]; len(small.body.Requests) != 0 || reqs[0].Object != "" || reqs[1].Object != "" {
		t.Fatalf("reset left requests behind: %+v", reqs)
	}
}

// TestClientBatchAllHonorsRetryHint stalls the single shard so its
// 1-slot queue fills, then checks BatchAllCtx resubmits the unserviced
// tail after the server's Overloaded retry hint until everything
// completes.
func TestClientBatchAllHonorsRetryHint(t *testing.T) {
	stall := make(chan struct{})
	var once sync.Once
	s, err := New(Config{
		Shards: 1, Queue: 1, Batch: 1, N: 2, T: 1,
		testBeforeRound: func(int) { <-stall },
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Occupy the queue slot while the shard loop is stalled.
	bgDone := make(chan struct{})
	go func() {
		defer close(bgDone)
		s.Do("filler", model.R(0))
	}()
	for len(s.shards[0].mail) == 0 {
		runtime.Gosched()
	}

	// Release the stall only after the server has rejected at least one
	// request, proving BatchAllCtx really hit the overload path.
	go func() {
		for s.shards[0].rejected.Load() == 0 {
			time.Sleep(time.Millisecond)
		}
		once.Do(func() { close(stall) })
	}()

	c := &Client{Base: ts.URL}
	reqs := []WireRequest{
		{Object: "filler", Op: "r", Processor: 0},
		{Object: "filler", Op: "w", Processor: 1},
		{Object: "other", Op: "r", Processor: 0},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	results, err := c.BatchAllCtx(ctx, tracing.SpanContext{}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(reqs) {
		t.Fatalf("BatchAllCtx serviced %d/%d requests", len(results), len(reqs))
	}
	for i, r := range results {
		if r.Object != reqs[i].Object || r.Op != reqs[i].Op {
			t.Fatalf("result %d = %+v out of order vs %+v", i, r, reqs[i])
		}
	}
	<-bgDone
	once.Do(func() { close(stall) })
	s.Drain()
	st := s.Stats()
	if st.Rejected == 0 {
		t.Fatal("retry test never triggered an overload")
	}
	if st.Accepted != st.Complete {
		t.Fatalf("accepted %d != completed %d", st.Accepted, st.Complete)
	}
}

// TestStatsIncludesHistograms checks GET /v1/stats carries the ops
// registry's histogram snapshots (bucket bounds and counts).
func TestStatsIncludesHistograms(t *testing.T) {
	s, err := New(Config{Shards: 2, N: 4, T: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := &Client{Base: ts.URL}
	if _, err := c.Batch([]WireRequest{{Object: "a", Op: "w", Processor: 1}}); err != nil {
		t.Fatal(err)
	}
	full, err := c.StatsFull()
	if err != nil {
		t.Fatal(err)
	}
	if full.Stats.Accepted != 1 {
		t.Fatalf("stats accepted = %d, want 1", full.Stats.Accepted)
	}
	if len(full.Ops.Histograms) == 0 {
		t.Fatal("/v1/stats carries no histogram snapshots")
	}
	var sawDepth bool
	for _, h := range full.Ops.Histograms {
		if len(h.Bounds) == 0 || len(h.Buckets) != len(h.Bounds)+1 {
			t.Fatalf("histogram %s has bounds/buckets %d/%d", h.Name, len(h.Bounds), len(h.Buckets))
		}
		if h.Name == "shard0.queue_depth" {
			sawDepth = true
		}
	}
	if !sawDepth {
		t.Fatal("queue-depth histogram missing from /v1/stats")
	}
}

// TestMetricsExposition checks GET /v1/metrics renders the Prometheus
// text format, including the request-latency histogram (populated once
// a scrape has armed wall-clock measurement), the accounting counters
// live before any drain, each family declared once, and, when tracing
// is on, a slow-request exemplar trace ID.
func TestMetricsExposition(t *testing.T) {
	tr := tracing.New(tracing.Config{})
	s, err := New(Config{
		Shards: 1, N: 4, T: 2, Trace: tr,
		Obs: &obs.Obs{Registry: obs.NewRegistry()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := &Client{Base: ts.URL}
	if _, err := c.Batch([]WireRequest{
		{Object: "a", Op: "r", Processor: 0},
		{Object: "a", Op: "w", Processor: 1},
	}); err != nil {
		t.Fatal(err)
	}
	text, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE objalloc_shard0_queue_depth histogram",
		"objalloc_shard0_queue_depth_bucket{le=\"+Inf\"}",
		"# TYPE objalloc_server_request_latency_us histogram",
		"objalloc_server_requests 2\n",
		"# TYPE objalloc_server_msgs_control counter",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	promCounters(t, text)
	// The tracer is non-deterministic and saw requests, so the latency
	// histogram's +Inf line must carry an exemplar trace id.
	if !strings.Contains(text, `trace_id="`) {
		t.Fatalf("exposition missing exemplar:\n%s", text)
	}

	s.Drain()
	text, err = c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "objalloc_server_requests 2\n") {
		t.Fatalf("post-drain exposition missing accounting counters:\n%s", text)
	}
	promCounters(t, text)
}

// TestMetricsHandlerWithoutObs covers the drained exposition when no
// accounting registry is attached: the accounting counters come from the
// shards' books, not from Config.Obs.
func TestMetricsHandlerWithoutObs(t *testing.T) {
	s, err := New(Config{Shards: 1, N: 2, T: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Do("x", model.R(0)); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := &Client{Base: ts.URL}
	text, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "objalloc_shard0_queue_depth_count") {
		t.Fatalf("ops histograms missing:\n%s", text)
	}
	if !strings.Contains(text, "objalloc_server_requests 1\n") {
		t.Fatalf("accounting counters missing without an Obs registry:\n%s", text)
	}
}

func TestParseOpRejectsUnknown(t *testing.T) {
	s, err := New(Config{Shards: 1, N: 2, T: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json",
		strings.NewReader(`{"requests":[{"object":"a","op":"x","processor":0}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown op status = %d, want 400", resp.StatusCode)
	}
}

// TestBatchValidatedBeforeConsumed checks a malformed request anywhere
// in a batch refuses the whole batch with 400 before any of it is
// admitted: nothing ahead of the bad index is serviced, billed or
// journaled.
func TestBatchValidatedBeforeConsumed(t *testing.T) {
	const n = 4
	s, err := New(Config{Shards: 2, N: n, T: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	good := `{"object":"a","op":"r","processor":0}`
	for _, tc := range []struct{ name, bad string }{
		{"bad op", `{"object":"a","op":"x","processor":0}`},
		{"processor -1", `{"object":"a","op":"r","processor":-1}`},
		{"processor N", fmt.Sprintf(`{"object":"a","op":"w","processor":%d}`, n)},
		{"empty object", `{"object":"","op":"r","processor":0}`},
	} {
		for _, at := range []struct{ name, body string }{
			{"index 0", `{"requests":[` + tc.bad + `,` + good + `]}`},
			{"mid-batch", `{"requests":[` + good + `,` + good + `,` + tc.bad + `,` + good + `]}`},
		} {
			t.Run(tc.name+"/"+at.name, func(t *testing.T) {
				resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(at.body))
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusBadRequest {
					t.Fatalf("status = %d, want 400", resp.StatusCode)
				}
				if st := s.Stats(); st.Accepted != 0 {
					t.Fatalf("malformed batch admitted %d requests", st.Accepted)
				}
			})
		}
	}
	// The in-process entry point refuses the same shapes.
	if _, err := s.Do("a", model.R(n)); err == nil {
		t.Fatal("Do accepted processor N")
	}
	if _, err := s.Do("", model.R(0)); err == nil {
		t.Fatal("Do accepted an empty object")
	}
	if _, err := s.Do("a", model.Request{Op: model.Op(7)}); err == nil {
		t.Fatal("Do accepted an unknown op")
	}
	if st := s.Stats(); st.Accepted != 0 {
		t.Fatalf("refused Do calls admitted %d requests", st.Accepted)
	}
}

// TestBatchRejectsTrailingData: the body is one JSON value and nothing
// else. A second value or stray bytes after it refuse the whole batch
// with 400 before any of it is admitted, and the client holds the reply
// to the same rule.
func TestBatchRejectsTrailingData(t *testing.T) {
	s, err := New(Config{Shards: 2, N: 4, T: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	good := `{"requests":[{"object":"a","op":"r","processor":0}]}`
	post := func(body string) int {
		resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, tail := range []string{good, " garbage", "]", "}", "0", "\x00", "\n\n" + good} {
		if code := post(good + tail); code != http.StatusBadRequest {
			t.Errorf("tail %q: status = %d, want 400", tail, code)
		}
		if st := s.Stats(); st.Accepted != 0 {
			t.Fatalf("tail %q admitted %d requests", tail, st.Accepted)
		}
	}
	if code := post(" " + good + " \r\n\t"); code != http.StatusOK {
		t.Errorf("surrounding whitespace: status = %d, want 200", code)
	}

	var tail string
	canned := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte(`{"done":0,"results":[]}` + tail))
	}))
	defer canned.Close()
	for _, tc := range []struct {
		tail    string
		wantErr bool
	}{{"", false}, {"\n", false}, {`{"done":1}`, true}, {"x", true}} {
		tail = tc.tail
		if _, err := (&Client{Base: canned.URL}).Batch(nil); (err != nil) != tc.wantErr {
			t.Errorf("reply tail %q: err = %v, want error %v", tc.tail, err, tc.wantErr)
		}
	}
}

// TestClientRejectsImpossibleDone: the client slices its batch at the
// reply's done count, so a count the batch cannot have produced — beyond
// the batch, negative, or disagreeing with the results — must come back
// as a decode error, never as an index (it used to panic the caller with
// "slice bounds out of range").
func TestClientRejectsImpossibleDone(t *testing.T) {
	var body string
	canned := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte(body))
	}))
	defer canned.Close()
	c := &Client{Base: canned.URL}
	reqs := []WireRequest{{Object: "a", Op: "r", Processor: 0}}
	one := `{"object":"a","op":"r","processor":0,"cost":0}`
	for _, tc := range []struct {
		body    string
		wantErr bool
	}{
		{`{"done":99,"results":[]}`, true},
		{`{"done":-1,"results":[]}`, true},
		{`{"done":2,"results":[` + one + `,` + one + `]}`, true}, // beyond the batch
		{`{"done":1,"results":[]}`, true},                        // results disagree
		{`{"done":0,"results":[` + one + `]}`, true},
		{`{"done":1,"results":[` + one + `]}`, false},
		{`{"done":0,"results":[],"retry_after_ms":5}`, false},
	} {
		body = tc.body
		resp, err := c.Batch(reqs)
		if (err != nil) != tc.wantErr {
			t.Errorf("reply %s: err = %v, want error %v", tc.body, err, tc.wantErr)
		}
		if err == nil {
			_ = reqs[resp.Done:] // what BatchAllCtx and loadgen do next
		}
	}
	// The retrying client treats the malformed reply like any failed
	// round trip: it gives up at its deadline without having panicked.
	body = `{"done":99,"results":[]}`
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if out, err := c.BatchAllCtx(ctx, tracing.SpanContext{}, reqs); err == nil || len(out) != 0 {
		t.Errorf("BatchAllCtx on a malformed reply: %d results, err = %v", len(out), err)
	}
}

// TestClientReturnsPermanentRefusal: a 4xx other than 429 will be
// repeated for a resend, so the retrying client must hand the server's
// diagnostic back at once, with what was serviced before it, instead of
// re-posting until its deadline and reporting only that (it used to: 9
// posts over a 2 s deadline, then "context deadline exceeded").
func TestClientReturnsPermanentRefusal(t *testing.T) {
	s := newFuzzServer(t) // N = 4
	var posts atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if posts.Add(1) == 1 {
			// A partial reply first, so the refusal arrives with results in hand.
			fmt.Fprint(w, `{"done":1,"results":[{"object":"a","op":"r","processor":0,"cost":1}],"retry_after_ms":1}`)
			return
		}
		s.Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()
	reqs := []WireRequest{{Object: "a", Op: "r", Processor: 0}, {Object: "a", Op: "r", Processor: 99}}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	start := time.Now()
	out, err := (&Client{Base: ts.URL}).BatchAllCtx(ctx, tracing.SpanContext{}, reqs)
	var refused *Refused
	if !errors.As(err, &refused) || refused.Status != http.StatusBadRequest || !strings.Contains(err.Error(), "processor 99 outside [0,4)") {
		t.Fatalf("err = %v, want a *Refused carrying the 400 and the server's message", err)
	}
	if len(out) != 1 || posts.Load() != 2 || time.Since(start) > time.Second {
		t.Errorf("%d results after %d posts in %s, want 1 after 2 (one partial, one refused) well under the 2 s deadline", len(out), posts.Load(), time.Since(start))
	}
	if s.Stats().Accepted != 0 {
		t.Errorf("the refused batch admitted %d requests", s.Stats().Accepted)
	}
}

// TestStatsCarriesRuntimeCounters checks GET /v1/stats carries the
// runtime's memory counters, and that the two a scraper may wait on — GC
// cycles and bytes allocated — only grow.
func TestStatsCarriesRuntimeCounters(t *testing.T) {
	s, err := New(Config{Shards: 2, N: 4, T: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Runtime map[string]uint64 `json:"runtime"`
	}
	err = json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"num_gc", "total_alloc_bytes", "heap_inuse_bytes", "goroutines"} {
		if _, ok := body.Runtime[name]; !ok {
			t.Errorf("/v1/stats runtime object has no %q: %v", name, body.Runtime)
		}
	}

	c := &Client{Base: ts.URL}
	first, err := c.StatsFull()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := c.Batch([]WireRequest{{Object: "a", Op: "w", Processor: i % 4}}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	second, err := c.StatsFull()
	if err != nil {
		t.Fatal(err)
	}
	a, b := first.Runtime, second.Runtime
	if a.TotalAllocBytes == 0 || a.HeapInuseBytes == 0 || a.Goroutines == 0 {
		t.Errorf("runtime counters not filled: %+v", a)
	}
	if b.NumGC <= a.NumGC || b.TotalAllocBytes <= a.TotalAllocBytes {
		t.Errorf("after 100 requests and a GC cycle the counters went %+v -> %+v", a, b)
	}
}
