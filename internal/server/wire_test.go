package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"objalloc/internal/model"
)

// wireAlphabet is what the property test builds strings from: every
// class of byte or rune the string escaper treats differently.
var wireAlphabet = []string{
	"a", "obj-17", " ", `"`, `\`, "/", "<", ">", "&", "'", "\x00", "\x01", "\b", "\f", "\n", "\r", "\t", "\x1f", "\x7f",
	"é", "\u2028", "\u2029", "\u2027", "\ufffd", "日本", "😀", "\xff", "\xc3", "\xe2\x80", "\xed\xa0\x80", "\u212a", "\u017f",
}

func randWireString(rng *rand.Rand) string {
	var sb strings.Builder
	for n := rng.Intn(5); n > 0; n-- {
		sb.WriteString(wireAlphabet[rng.Intn(len(wireAlphabet))])
	}
	return sb.String()
}

func randCost(rng *rand.Rand) float64 {
	fixed := []float64{0, math.Copysign(0, -1), 1, 1.25, 1e-7, 1e-6, 999999e-12, 1e21, 1e21 - 65536, 123456789.125, -3.5, math.MaxFloat64, math.SmallestNonzeroFloat64}
	if i := rng.Intn(2 * len(fixed)); i < len(fixed) {
		return fixed[i]
	}
	for {
		if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			return f
		}
	}
}

// randInt spreads over small values, both signs and the extremes.
func randInt(rng *rand.Rand) int {
	switch rng.Intn(4) {
	case 0:
		return 0
	case 1:
		return rng.Intn(8)
	case 2:
		return -rng.Intn(1000)
	}
	return int(rng.Uint64())
}

func randBatchRequest(rng *rand.Rand) BatchRequest {
	var req BatchRequest
	if n := rng.Intn(5); n > 0 {
		req.Requests = make([]WireRequest, n-1) // n == 1: empty but not nil
	}
	for i := range req.Requests {
		req.Requests[i] = WireRequest{Object: randWireString(rng), Op: randWireString(rng), Processor: randInt(rng)}
		if rng.Intn(2) == 0 {
			req.Requests[i].Seq = rng.Uint64() >> uint(rng.Intn(64))
		}
	}
	return req
}

func randBatchResponse(rng *rand.Rand) BatchResponse {
	resp := BatchResponse{Done: randInt(rng), Draining: rng.Intn(4) == 0, Unavailable: rng.Intn(4) == 0}
	if rng.Intn(2) == 0 {
		resp.RetryAfterMS = int64(randInt(rng))
	}
	if n := rng.Intn(5); n > 0 {
		resp.Results = make([]WireResult, n-1)
	}
	for i := range resp.Results {
		resp.Results[i] = WireResult{
			Object: randWireString(rng), Op: randWireString(rng), Processor: randInt(rng), Cost: randCost(rng),
			Coalesced: rng.Intn(3) == 0, Duplicate: rng.Intn(3) == 0,
		}
		if rng.Intn(3) == 0 {
			resp.Results[i].Retransmits = randInt(rng)
			resp.Results[i].Err = randWireString(rng)
		}
	}
	return resp
}

// TestWireEncodeMatchesJSON pins the encoders to encoding/json byte for
// byte — request, reply (as Encoder.Encode frames it) and journal
// record — over random values built from every escaping class, and
// checks the decoders read those bytes back as json.Unmarshal does.
func TestWireEncodeMatchesJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 3000; i++ {
		req := randBatchRequest(rng)
		want, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendBatchRequest(nil, &req); !bytes.Equal(got, want) {
			t.Fatalf("request %+v:\n got %s\nwant %s", req, got, want)
		}
		checkDecodeRequest(t, want)

		resp := randBatchResponse(rng)
		var enc bytes.Buffer
		if err := json.NewEncoder(&enc).Encode(resp); err != nil {
			t.Fatal(err)
		}
		got, err := appendBatchResponse(nil, &resp)
		if err != nil {
			t.Fatal(err)
		}
		if got = append(got, '\n'); !bytes.Equal(got, enc.Bytes()) {
			t.Fatalf("response %+v:\n got %s\nwant %s", resp, got, enc.Bytes())
		}
		checkDecodeResponse(t, got)

		tk := &task{object: randWireString(rng), req: model.Request{Op: model.Op(rng.Intn(2)), Processor: model.ProcessorID(rng.Intn(64))}}
		res := Result{Cost: float64(rng.Intn(1e6)) / 1000, Coalesced: rng.Intn(3) == 0}
		rec := reqRecord{Object: tk.object, Op: tk.req.Op.String(), P: int(tk.req.Processor), CostMilli: milli(res.Cost), Coalesced: res.Coalesced}
		if rng.Intn(2) == 0 {
			tk.seq = rng.Uint64() >> uint(rng.Intn(64))
			rec.Seq = tk.seq
		}
		if rng.Intn(3) == 0 {
			res.Retransmits = rng.Intn(5)
			res.Err = errors.New(randWireString(rng))
			rec.Retrans, rec.Err = res.Retransmits, res.Err.Error()
		}
		var j journalWriter
		j.record(tk, res)
		if want, _ := json.Marshal(rec); !bytes.Equal(j.buf, append(want, '\n')) {
			t.Fatalf("journal record %+v:\n got %swant %s", rec, j.buf, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		resp := BatchResponse{Results: []WireResult{{Cost: f}}}
		if _, err := appendBatchResponse(nil, &resp); err == nil {
			t.Errorf("cost %v encoded; encoding/json refuses it", f)
		}
	}
}

// checkDecode holds a decoder to json.Unmarshal on data, twice: into a
// zero value, and into a value whose slice has spare zeroed capacity,
// which is how the handler's pooled scratch presents it. Values are
// compared re-marshalled as well, so that -0 is not 0.
func checkDecode[T any](t *testing.T, data []byte, decode func([]byte, *T) error, spare func(*T)) {
	t.Helper()
	for i, prepare := range []func(*T){func(*T) {}, spare} {
		var want, got T
		prepare(&want)
		prepare(&got)
		wantErr, gotErr := json.Unmarshal(data, &want), decode(data, &got)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%T %q (spare %d): decoder says %v, encoding/json says %v", got, data, i, gotErr, wantErr)
		}
		if wantErr != nil {
			continue
		}
		wantJSON, _ := json.Marshal(want)
		gotJSON, _ := json.Marshal(got)
		if !reflect.DeepEqual(got, want) || !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("%q (spare %d):\n got %#v\nwant %#v", data, i, got, want)
		}
	}
}

func checkDecodeRequest(t *testing.T, data []byte) {
	t.Helper()
	checkDecode(t, data, decodeBatchRequest, func(r *BatchRequest) { r.Requests = make([]WireRequest, 0, 3) })
}

func checkDecodeResponse(t *testing.T, data []byte) {
	t.Helper()
	checkDecode(t, data, decodeBatchResponse, func(r *BatchResponse) { r.Results = make([]WireResult, 0, 3) })
}

// wireDecodeSeeds are the shapes the decoder's contract names: inputs
// where a hand-written parser most easily parts ways with
// encoding/json.
var wireDecodeSeeds = []string{
	``, ` `, `null`, ` null `, `nul`, `nullx`, `{}`, `[]`, `1`, `"x"`, `true`, `{"requests":null}`, `{"requests":[]}`, `{"results":[],"done":0}`,
	`{"requests":[{"object":"a","op":"r","processor":0}]}`,
	`{"requests":[{"object":"a","op":"w","processor":3,"seq":18446744073709551615}]} `,
	`{"done":2,"results":[{"object":"a","op":"r","processor":1,"cost":1.25},{"object":"b","op":"w","processor":0,"cost":0,"coalesced":true,"retransmits":2,"duplicate":true,"err":"x"}],"retry_after_ms":7,"draining":true,"unavailable":true}` + "\n",
	// key order, case folding (U+017F folds to s), escaped keys
	`{"requests":[{"seq":2,"processor":1,"op":"w","object":"a"}]}`,
	`{"REQUESTS":[{"Object":"a","OP":"r","Proce\u017f\u017for":1,"ſeq":3,"proceſsor":2}]}`,
	`{"requests":[{"\u006fbject":"a","o\u0070":"r"}],"\u212aind":1,"DONE":4,"Results":[{"COST":2}]}`,
	// unknown members: validated, skipped, any type and depth
	`{"x":{"y":[1,2,{"z":null}],"w":"s"},"requests":[{"object":"a","extra":[[],{}],"op":"r"}],"results":[{"n":{"a":[true,false]}}]}`,
	`{"x":[1,]}`, `{"x":{"a"}}`, `{"x":{"a":}}`, `{"x":tru}`, `{"x":01}`, `{"x":1.}`, `{"x":-}`, `{"x":1e}`, `{"x":"\q"}`, `{"x":"\u12g4"}`, "{\"x\":\"\x01\"}", `{"x":.5}`, `{"x":+1}`,
	`{"x":1 "y":2}`, `{"x":1,}`, `{,}`, `{"x"}`, `{"x":1}}`, `{"x":1}{"x":2}`, `{"x":1} garbage`, `{"requests":[]}]`, `[{"requests":[]}]`,
	// null: a no-op for scalars and elements, nil for the slice
	`{"requests":[null,{"object":null,"op":null,"processor":null,"seq":null},null]}`,
	`{"done":null,"results":[null,{"cost":null,"coalesced":null,"err":null}],"retry_after_ms":null,"draining":null}`,
	`{"requests":[{"object":"a"}],"requests":null}`,
	// duplicates: members merge in input order, elements too
	`{"requests":[{"object":"a","object":"b","seq":1,"seq":2}]}`,
	`{"requests":[{"object":"a","seq":5},{"object":"b"},{"object":"c"}],"requests":[{"op":"r"}],"requests":[null,{"op":"w"}]}`,
	`{"requests":[{"object":"a"}],"requests":[],"requests":[{"op":"r"}]}`,
	`{"results":[{"cost":1,"err":"e"}],"results":[{"cost":null}],"done":1,"done":2}`,
	// strings: escapes, surrogates paired and lone, invalid UTF-8
	`{"requests":[{"object":"\"\\\/\b\f\n\r\t\u0041\u00e9\u2028","op":"\ud83d\ude00"}]}`,
	`{"requests":[{"object":"\ud800","op":"\udc00\ud800x\ud800\u0041\ud83d"}]}`,
	`{"requests":[{"object":"\ud800\udc0"}]}`, `{"requests":[{"object":"\ud800\u"}]}`, `{"requests":[{"object":"a`, `{"requests":[{"object":"a\`,
	"{\"requests\":[{\"object\":\"\xff\xc3(\xe2\x80\xed\xa0\x80ok\",\"\xffop\":1}]}",
	"{\"results\":[{\"err\":\"tab\there\"}]}",
	// numbers: integers only for the integer fields, range checked
	`{"requests":[{"processor":3.0}]}`, `{"requests":[{"processor":1e2}]}`, `{"requests":[{"processor":-0}]}`, `{"requests":[{"seq":-0}]}`, `{"requests":[{"seq":-1}]}`,
	`{"requests":[{"processor":9223372036854775807}]}`, `{"requests":[{"processor":9223372036854775808}]}`, `{"requests":[{"processor":-9223372036854775808}]}`,
	`{"requests":[{"seq":18446744073709551616}]}`, `{"requests":[{"seq":1.0}]}`, `{"done":1E2}`, `{"retry_after_ms":-9223372036854775809}`,
	`{"results":[{"cost":1e400}]}`, `{"results":[{"cost":-1e-400}]}`, `{"results":[{"cost":-0}]}`, `{"results":[{"cost":0.1e+1}]}`, `{"results":[{"cost":12345678901234567890123456789012345678901234567890}]}`,
	// type mismatches
	`{"requests":{}}`, `{"requests":"x"}`, `{"requests":[1]}`, `{"requests":[[]]}`, `{"requests":[{"object":1}]}`, `{"requests":[{"processor":"1"}]}`, `{"requests":[{"op":true}]}`,
	`{"results":[{"coalesced":1}]}`, `{"results":[{"coalesced":"true"}]}`, `{"results":[{"cost":"1"}]}`, `{"done":[]}`, `{"draining":{}}`,
}

// maxWireDepth is encoding/json's nesting limit — the 10 001st open
// bracket is an error — which the deep fuzz seeds straddle.
const maxWireDepth = 10000

// FuzzWireDecode is the decoder's contract: for any bytes, both
// decoders fail exactly when json.Unmarshal fails and otherwise
// produce the value it produces.
func FuzzWireDecode(f *testing.F) {
	for _, s := range wireDecodeSeeds {
		f.Add([]byte(s))
	}
	for _, depth := range []int{50, maxWireDepth - 2, maxWireDepth - 1, maxWireDepth} {
		// The unknown value opens at depth 2 (request) or 4 (result).
		nest := strings.Repeat("[", depth) + strings.Repeat("]", depth)
		f.Add([]byte(`{"x":` + nest + `,"results":[{"y":` + nest + `}]}`))
		f.Add([]byte(`{"x":` + strings.Repeat(`{"a":`, depth) + `1` + strings.Repeat(`}`, depth) + `}`))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeRequest(t, data)
		checkDecodeResponse(t, data)
	})
}

func newFuzzServer(tb testing.TB) *Server {
	s, err := New(Config{Shards: 2, N: 4, T: 2})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	return s
}

// FuzzHandleBatch throws arbitrary bodies at POST /v1/batch: the reply
// is 2xx or 4xx, never a 5xx or a panic; a 4xx admits nothing; a 200
// is a well-formed reply that serviced the whole batch, framed by its
// Content-Length.
func FuzzHandleBatch(f *testing.F) {
	for _, s := range wireDecodeSeeds {
		f.Add([]byte(s))
	}
	f.Add([]byte(`{"requests":[{"object":"a","op":"w","processor":0,"seq":18446744073709551615},{"object":"a","op":"r","processor":1,"seq":1},{"object":"a","op":"r","processor":1,"seq":1}]}`))
	f.Add([]byte(`{"requests":[{"object":"a","op":"r","processor":0},{"object":"a","op":"r","processor":4}]}`))
	f.Add([]byte(`{"requests":[{"object":"a","op":"r","processor":0},{"object":"a","op":"r","processor":-1}]}`))
	f.Add([]byte(`{"requests":[{"object":"a","op":"read","processor":0},{"object":"","op":"write","processor":1}]}`))
	f.Add([]byte(`{"requests":[{"object":"<\u0000\ud800>","op":"w","processor":3}]}`))
	s := newFuzzServer(f)
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		before := s.Stats().Accepted
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body)))
		admitted := s.Stats().Accepted - before
		switch {
		case rw.Code == http.StatusOK:
			var sent BatchRequest
			var resp BatchResponse
			if err := json.Unmarshal(body, &sent); err != nil {
				t.Fatalf("200 for a body encoding/json rejects (%v): %q", err, body)
			}
			if err := json.Unmarshal(rw.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 with an unreadable reply (%v): %q", err, rw.Body.Bytes())
			}
			fresh := uint64(0) // a duplicate is answered from the dedup horizon, not admitted
			for _, r := range resp.Results {
				if !r.Duplicate {
					fresh++
				}
			}
			if resp.Done != len(sent.Requests) || len(resp.Results) != resp.Done || admitted != fresh {
				t.Fatalf("batch of %d: done %d, %d results (%d not duplicates), %d admitted", len(sent.Requests), resp.Done, len(resp.Results), fresh, admitted)
			}
			if cl := rw.Header().Get("Content-Length"); cl != fmt.Sprint(rw.Body.Len()) {
				t.Fatalf("Content-Length %q on a %d-byte reply", cl, rw.Body.Len())
			}
		case rw.Code >= 400 && rw.Code < 500:
			if admitted != 0 {
				t.Fatalf("HTTP %d admitted %d requests: %q", rw.Code, admitted, body)
			}
		default:
			t.Fatalf("HTTP %d for %q", rw.Code, body)
		}
	})
}

// batchAllocBudget is TestHandleBatchAllocBudget's gate, per batch of
// 32: measured 139 — per request, 3 inside Server.Do (task, reply
// channel, result) and the object name; per batch, 11 in net/http, the
// recorder and the decoder — against 159 with encoding/json on the
// path. The slack is for net/http's own count moving between Go
// releases; a per-request allocation coming back costs 32.
const batchAllocBudget = 150

// TestHandleBatchAllocBudget gates what one recorder-driven POST
// /v1/batch of 32 requests allocates, so that a per-request allocation
// creeping back onto the path fails a test rather than a benchmark.
func TestHandleBatchAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts need an undisturbed run")
	}
	h := newFuzzServer(t).Handler()
	const runs, size = 200, 32
	seq := 0
	next := func() (*httptest.ResponseRecorder, *http.Request) {
		batch := make([]WireRequest, size)
		for i := range batch {
			seq++
			batch[i] = WireRequest{Object: fmt.Sprintf("obj-%d", seq%64), Op: "rw"[seq%2 : seq%2+1], Processor: seq % 4, Seq: uint64(seq/64 + 1)}
		}
		body := appendBatchRequest(nil, &BatchRequest{Requests: batch})
		return httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body))
	}
	serve := func(n int) float64 {
		rws, reqs := make([]*httptest.ResponseRecorder, n), make([]*http.Request, n)
		for i := range rws {
			rws[i], reqs[i] = next()
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := range rws {
			h.ServeHTTP(rws[i], reqs[i])
		}
		runtime.ReadMemStats(&m1)
		for _, rw := range rws {
			if rw.Code != http.StatusOK {
				t.Fatalf("HTTP %d: %s", rw.Code, rw.Body.Bytes())
			}
		}
		return float64(m1.Mallocs-m0.Mallocs) / float64(n)
	}
	serve(20) // fill the pool, the object maps and the recorder's lazy state
	// The counter is process-wide: the least of three runs is the one a
	// stray goroutine of an earlier test disturbed least.
	if got := min(serve(runs), serve(runs), serve(runs)); got > batchAllocBudget {
		t.Fatalf("%.1f allocations per %d-request batch, budget %d", got, size, batchAllocBudget)
	} else {
		t.Logf("%.1f allocations per %d-request batch (budget %d)", got, size, batchAllocBudget)
	}
}

// plainString reports whether the encoder writes s as it stands and the
// recogniser reads it: printable ASCII with nothing appendString escapes.
func plainString(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || strings.IndexByte(`"\<>&`, c) >= 0 {
			return false
		}
	}
	return true
}

// plainInt: no sign, at most 18 digits.
func plainInt(v int) bool { return v >= 0 && int64(v) < 1e18 }

// plainCost: non-negative, in appendFloat's 'f' form with at most 18
// integer digits.
func plainCost(f float64) bool { return !math.Signbit(f) && (f == 0 || f >= 1e-6 && f < 1e18) }

func plainRequest(req *BatchRequest) bool {
	for _, r := range req.Requests {
		if !plainString(r.Object) || !plainString(r.Op) || !plainInt(r.Processor) || r.Seq >= 1e18 {
			return false
		}
	}
	return true
}

func plainResponse(resp *BatchResponse) bool {
	for _, r := range resp.Results {
		if !plainString(r.Object) || !plainString(r.Op) || !plainString(r.Err) || !plainInt(r.Processor) || !plainInt(r.Retransmits) || !plainCost(r.Cost) {
			return false
		}
	}
	return plainInt(resp.Done) && plainInt(int(resp.RetryAfterMS))
}

// TestRecogniserAcceptsWhatTheEncodersWrite: over random values, the
// recogniser accepts the encoder's bytes exactly when every string,
// integer and cost is in the plain class, declines the rest (escapes,
// non-ASCII, signs, 19-digit integers, exponents), and either way the
// decoder it fronts agrees with json.Unmarshal.
func TestRecogniserAcceptsWhatTheEncodersWrite(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	plainWords := []string{"", "a", "obj-17", "r", "w", " /'~", "unreachable: peer 3"}
	word := func(s *string) { *s = plainWords[rng.Intn(len(plainWords))] }
	count := func(v *int) { *v = rng.Intn(1e6) }
	var accepted, declined [2]int
	for i := 0; i < 4000; i++ {
		req, resp := randBatchRequest(rng), randBatchResponse(rng)
		if rng.Intn(2) == 0 { // move both values into the plain class
			for j := range req.Requests {
				r := &req.Requests[j]
				word(&r.Object)
				word(&r.Op)
				count(&r.Processor)
				r.Seq %= 1e18
			}
			count(&resp.Done)
			resp.RetryAfterMS = int64(rng.Intn(3) * 250)
			for j := range resp.Results {
				r := &resp.Results[j]
				word(&r.Object)
				word(&r.Op)
				word(&r.Err)
				count(&r.Processor)
				count(&r.Retransmits)
				r.Cost = []float64{0, 1, 1.25, 1e-6, 123456789.125, 999999999999999872}[rng.Intn(6)]
			}
		}
		data := appendBatchRequest(nil, &req)
		var gotReq BatchRequest
		if got, want := recogniseBatchRequest(data, &gotReq), plainRequest(&req); got != want {
			t.Fatalf("request %s: recognised = %v, want %v", data, got, want)
		} else if got {
			accepted[0]++
		} else {
			declined[0]++
		}
		checkDecodeRequest(t, data)

		data, err := appendBatchResponse(nil, &resp)
		if err != nil {
			t.Fatal(err)
		}
		var gotResp BatchResponse
		if got, want := recogniseBatchResponse(append(data, '\n'), &gotResp), plainResponse(&resp); got != want {
			t.Fatalf("response %s: recognised = %v, want %v", data, got, want)
		} else if got {
			accepted[1]++
		} else {
			declined[1]++
		}
		checkDecodeResponse(t, data)
	}
	for i, kind := range []string{"requests", "responses"} {
		if accepted[i] < 1000 || declined[i] < 1000 {
			t.Errorf("%s: %d accepted, %d declined — the test wants plenty of both", kind, accepted[i], declined[i])
		}
	}
}

// TestRecogniserDeclineLeavesDestination cuts a canonical body short at
// every offset and flips each of its bytes in turn. Whatever the
// recogniser declines must leave the destination — scalar fields, slice
// header, and the backing array to its capacity — exactly as it was, for
// that is what json.Unmarshal is then handed; accepted or declined (a
// changed letter in a name is still canonical), the decoder must read
// the text as Unmarshal reads it. The destinations are the pooled
// scratch's shape (zeroed spare capacity, here less than the batch, so
// that growth happens too) and one holding stale values, which the
// recogniser must not write over at all.
func TestRecogniserDeclineLeavesDestination(t *testing.T) {
	reqBody := appendBatchRequest(nil, &BatchRequest{Requests: []WireRequest{
		{Object: "obj-1", Op: "r", Processor: 3, Seq: 7}, {Object: "obj-22", Op: "w", Processor: 0}, {Object: "c", Op: "r", Processor: 12, Seq: 1},
	}})
	checkDeclines(t, reqBody, recogniseBatchRequest, decodeBatchRequest,
		func(r *BatchRequest) []WireRequest { return r.Requests },
		func(r *BatchRequest) { r.Requests = make([]WireRequest, 1, 2) },
		func(r *BatchRequest) {
			r.Requests = append(make([]WireRequest, 0, 4), WireRequest{}, WireRequest{Object: "old", Seq: 9}, WireRequest{Op: "w"})[:1]
		})

	respBody, err := appendBatchResponse(nil, &BatchResponse{Done: 3, RetryAfterMS: 4, Draining: true, Unavailable: true, Results: []WireResult{
		{Object: "obj-1", Op: "r", Processor: 3, Cost: 1.25}, {Object: "obj-22", Op: "w", Cost: 2, Coalesced: true, Retransmits: 2, Duplicate: true, Err: "x"}, {Object: "c", Op: "r", Processor: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	checkDeclines(t, append(respBody, '\n'), recogniseBatchResponse, decodeBatchResponse,
		func(r *BatchResponse) []WireResult { return r.Results },
		func(r *BatchResponse) {
			*r = BatchResponse{Done: 42, RetryAfterMS: 43, Draining: true, Results: make([]WireResult, 1, 2)}
		},
		func(r *BatchResponse) {
			*r = BatchResponse{Unavailable: true, Results: append(make([]WireResult, 0, 4), WireResult{}, WireResult{Err: "old", Cost: 9}, WireResult{Duplicate: true})[:1]}
		})
}

// checkDeclines runs body, each of its proper prefixes and each of its
// one-byte corruptions through recognise, into every destination the
// prepare functions build; elems names the destination's slice.
func checkDeclines[T any, E comparable](t *testing.T, body []byte, recognise func([]byte, *T) bool, decode func([]byte, *T) error, elems func(*T) []E, prepares ...func(*T)) {
	t.Helper()
	for _, prepare := range prepares {
		try := func(data []byte) {
			var dst T
			prepare(&dst)
			before := dst
			was := elems(&before)
			backing := slices.Clone(was[:cap(was)])
			if !recognise(data, &dst) {
				now := elems(&dst)
				if !reflect.DeepEqual(dst, before) || cap(now) != cap(was) || &now[0] != &was[0] || !slices.Equal(was[:cap(was)], backing) {
					t.Fatalf("declined %q and left %#v (backing %#v), was %#v (backing %#v)", data, dst, was[:cap(was)], before, backing)
				}
			}
			checkDecode(t, data, decode, prepare)
		}
		try(body)
		for i := range body {
			try(body[:i])
			for _, flip := range []byte{0x01, 0x10, 0x80} {
				data := bytes.Clone(body)
				data[i] ^= flip
				try(data)
			}
		}
	}
}

// TestRecogniserTakesGeneratedTraffic: the bodies bench/, cmd/loadgen
// and crash_smoke.sh's curl post — obj-%d names, r or w, a processor, a
// per-object seq from 1 — are recognised, and so is the reply the
// handler writes for them. This is the gate on the serve path falling
// back unnoticed: TestHandleBatchAllocBudget reads 145 against 139 when
// every request body goes to encoding/json, inside its budget of 150.
func TestRecogniserTakesGeneratedTraffic(t *testing.T) {
	h := newFuzzServer(t).Handler()
	batch := make([]WireRequest, 32)
	for i := range batch {
		batch[i] = WireRequest{Object: fmt.Sprintf("obj-%d", i*7%64), Op: "rw"[i%2 : i%2+1], Processor: i % 4, Seq: uint64(i/64 + 1)}
	}
	for _, body := range [][]byte{
		appendBatchRequest(nil, &BatchRequest{Requests: batch}),
		[]byte(`{"requests":[{"object":"a","op":"r","processor":0}]}`), // crash_smoke.sh
	} {
		var req BatchRequest
		if !recogniseBatchRequest(body, &req) {
			t.Fatalf("request body not recognised: %s", body)
		}
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body)))
		var resp BatchResponse
		if rw.Code != http.StatusOK || !recogniseBatchResponse(rw.Body.Bytes(), &resp) || resp.Done != len(req.Requests) {
			t.Fatalf("HTTP %d, reply not recognised or short: %s", rw.Code, rw.Body.Bytes())
		}
	}
}
