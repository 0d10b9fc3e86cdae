// Package tracing is the request-tracing layer of the sharded allocation
// service: every request that flows through admission, a shard mailbox
// and an allocation engine leaves a small tree of spans — admission wait,
// queue wait, engine service, and one span per billed protocol
// transition — tied together by a trace ID that a client can propagate
// over the HTTP wire with a traceparent-style header.
//
// Spans carry two kinds of fields, mirroring the repo's observability
// contract (package obs):
//
//   - Deterministic fields — causal parent, virtual cost units,
//     message/I/O counts, per-object sequence numbers, drop/retry
//     annotations. These are pure functions of the seed and the
//     per-object request order, so they are identical at any shard
//     count or client parallelism.
//   - Wall-clock fields — span start offsets and durations, queue
//     depths, shard assignment. These depend on scheduling. Under
//     Config.Deterministic they are zeroed (and the shard-count-
//     dependent shard field normalized to -1), so a same-seed trace
//     file is byte-identical at any shard count and parallelism.
//
// The Tracer tail-samples: requests that errored, retransmitted, or
// switched protocols are always kept, the rest probabilistically by a
// hash of their trace ID (order-independent, hence deterministic), and
// a bounded span buffer caps memory on unbounded runs. The canonical
// output is JSONL, sorted by (object, sequence, span rank) — a total
// order independent of completion interleaving — with a final summary
// line carrying the engine's authoritative totals, so an analyzer
// (cmd/traceview) can reconcile the billed cost of a run from spans
// alone.
package tracing

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// TraceID is a 16-byte trace identifier (rendered as 32 hex digits).
type TraceID [16]byte

// IsZero reports whether the ID is all-zero (invalid per W3C rules).
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String renders the ID as lowercase hex.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// SpanID is an 8-byte span identifier (rendered as 16 hex digits).
type SpanID [8]byte

// IsZero reports whether the ID is all-zero.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the ID as lowercase hex.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// SpanContext identifies one position in one trace: the pair a parent
// hands to a child. The zero SpanContext means "no trace context".
type SpanContext struct {
	Trace TraceID
	Span  SpanID
}

// Valid reports whether both IDs are non-zero.
func (sc SpanContext) Valid() bool { return !sc.Trace.IsZero() && !sc.Span.IsZero() }

// Traceparent renders the context in the W3C traceparent layout:
// version "00", 32 hex trace digits, 16 hex span digits, flags "01"
// (sampled).
func (sc SpanContext) Traceparent() string {
	return "00-" + sc.Trace.String() + "-" + sc.Span.String() + "-01"
}

// ParseTraceparent parses a traceparent-style header. It accepts exactly
// the layout Traceparent emits — version 00, lowercase hex, sampled or
// unsampled flags — and rejects malformed values with a specific error,
// which the HTTP layer surfaces as a 400.
func ParseTraceparent(h string) (SpanContext, error) {
	if len(h) != 55 {
		return SpanContext{}, fmt.Errorf("tracing: traceparent length %d, want 55", len(h))
	}
	if h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return SpanContext{}, fmt.Errorf("tracing: traceparent %q: bad field separators", h)
	}
	if h[:2] != "00" {
		return SpanContext{}, fmt.Errorf("tracing: unsupported traceparent version %q", h[:2])
	}
	var sc SpanContext
	if _, err := hex.Decode(sc.Trace[:], []byte(h[3:35])); err != nil {
		return SpanContext{}, fmt.Errorf("tracing: traceparent trace id: %v", err)
	}
	if _, err := hex.Decode(sc.Span[:], []byte(h[36:52])); err != nil {
		return SpanContext{}, fmt.Errorf("tracing: traceparent span id: %v", err)
	}
	if _, err := hex.Decode(make([]byte, 1), []byte(h[53:55])); err != nil {
		return SpanContext{}, fmt.Errorf("tracing: traceparent flags: %v", err)
	}
	if sc.Trace.IsZero() {
		return SpanContext{}, fmt.Errorf("tracing: traceparent trace id is all-zero")
	}
	if sc.Span.IsZero() {
		return SpanContext{}, fmt.Errorf("tracing: traceparent span id is all-zero")
	}
	return sc, nil
}

// mix64 is the splitmix64 finalizer — the same generator the fault
// streams use, here as a pure function for ID derivation.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// fnv64a is the 64-bit FNV-1a hash (matches the server's object
// hashing).
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func put64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (56 - 8*i))
	}
}

// DeriveRequest derives a request's trace context as a pure function of
// (seed, object, per-object sequence number) — the identity a request
// has under the determinism contract. Two runs with the same seed and
// workload derive the same IDs at any shard count or parallelism.
func DeriveRequest(seed int64, object string, seq uint64) SpanContext {
	s0 := mix64(fnv64a(object) ^ mix64(uint64(seed)))
	s1 := mix64(s0 ^ mix64(seq))
	var sc SpanContext
	put64(sc.Trace[0:8], s1)
	put64(sc.Trace[8:16], mix64(s1^0xa5a5a5a5a5a5a5a5))
	put64(sc.Span[:], mix64(s1^0x5bd1e9955bd1e995))
	if sc.Trace.IsZero() {
		sc.Trace[0] = 1 // astronomically unlikely, but keep the context valid
	}
	if sc.Span.IsZero() {
		sc.Span[0] = 1
	}
	return sc
}

// ChildID derives a child span ID from its parent context and a
// (kind, index) pair — deterministic, collision-resistant within a
// trace.
func ChildID(parent SpanContext, kind string, index uint64) SpanID {
	var hi, lo [8]byte
	copy(hi[:], parent.Trace[:8])
	copy(lo[:], parent.Span[:])
	h := mix64(get64(hi) ^ mix64(get64(lo)) ^ fnv64a(kind) ^ mix64(index))
	var id SpanID
	put64(id[:], h)
	if id.IsZero() {
		id[0] = 1
	}
	return id
}

func get64(b [8]byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(b[i])
	}
	return v
}

// Span names, in causal order within one request.
const (
	NameRequest    = "request"    // root: admission through reply
	NameAdmission  = "admission"  // submit → enqueued (or rejected)
	NameQueue      = "queue"      // enqueued → dequeued by the shard loop
	NameService    = "service"    // dequeued → engine reply
	NameTransition = "transition" // one billed protocol switch
	// NameRecover marks a shard supervisor recovery: the span is emitted
	// once per restart, flagged so the tail sampler always keeps it. It
	// is not part of any request's tree.
	NameRecover = "shard_recover"
	// NameJournalFault marks one injected-or-real durability fault on a
	// shard journal (emitted just before the fault ends the service loop
	// and is returned, as a typed error, to the shard's supervisor).
	// Always sampled, like NameRecover.
	NameJournalFault = "journal_fault"
)

// rank orders a request's spans causally for the canonical sort.
func rank(name string) int {
	switch name {
	case NameRequest:
		return 0
	case NameAdmission:
		return 1
	case NameQueue:
		return 2
	case NameService:
		return 3
	case NameTransition:
		return 4
	default:
		return 5
	}
}

// Span is one record of the trace file. JSON field order is fixed by
// the struct, so encoding is deterministic; wall-clock fields carry
// omitempty and vanish in deterministic mode.
type Span struct {
	Trace  string `json:"trace"`
	Span   string `json:"span"`
	Parent string `json:"parent,omitempty"`
	Name   string `json:"name"`
	Object string `json:"object,omitempty"`
	Op     string `json:"op,omitempty"`
	Proc   int    `json:"proc,omitempty"`
	// Seq is the request's per-object sequence number (arrival order on
	// the object's serial path) — with Object, the request's
	// shard-count-independent identity.
	Seq uint64 `json:"seq"`
	// Shard is the servicing shard, or -1 when normalized away in
	// deterministic mode (the assignment depends on the shard count).
	Shard  int    `json:"shard"`
	Engine string `json:"engine,omitempty"`
	// Protocol is the allocation protocol in force after the request
	// (differs from Engine only under the adaptive controller).
	Protocol string `json:"protocol,omitempty"`
	// CostMilli is the span's virtual cost in milli-units of the cost
	// model; on a service span it is the request's full billed cost
	// (retransmissions and transitions included).
	CostMilli int64 `json:"cost_milli,omitempty"`
	Control   int   `json:"ctl,omitempty"`
	Data      int   `json:"data,omitempty"`
	IO        int   `json:"io,omitempty"`
	// Retransmits and Holds annotate injected faults: lost attempts
	// retried, and the rounds the injected delay drew.
	Retransmits int `json:"retransmits,omitempty"`
	Holds       int `json:"holds,omitempty"`
	// QueueLen is the mailbox depth observed at enqueue (queue spans;
	// zeroed in deterministic mode).
	QueueLen int `json:"queue_len,omitempty"`
	// Outcome annotates non-OK completions: "overloaded", "unreachable",
	// "coalesced", "error", or "reprocessed" (a replay after a recovered
	// panic re-emitting spans the first attempt already shipped).
	Outcome string `json:"outcome,omitempty"`
	// Err carries the fault detail on journal_fault spans.
	Err string `json:"err,omitempty"`
	// From/To/Step describe a transition span's protocol switch.
	From string `json:"from,omitempty"`
	To   string `json:"to,omitempty"`
	Step int    `json:"step,omitempty"`
	// StartNS is the span start as nanoseconds since the tracer was
	// created; DurNS the span's wall-clock duration. Both are zero in
	// deterministic mode.
	StartNS int64 `json:"start_ns,omitempty"`
	DurNS   int64 `json:"dur_ns,omitempty"`
}

// Summary is the trace file's final line: the engine's authoritative
// totals at drain, against which an analyzer reconciles the spans.
type Summary struct {
	Requests  int64  `json:"requests"`
	Objects   int    `json:"objects"`
	Engine    string `json:"engine"`
	CostMilli int64  `json:"cost_milli"`
	Control   int    `json:"ctl"`
	Data      int    `json:"data"`
	IO        int    `json:"io"`
	// Seen counts requests submitted to the tracer; Sampled those kept
	// by the tail sampler; DroppedSpans spans lost to the buffer cap.
	// Cost reconciliation is exact only when Sampled == Seen and
	// DroppedSpans == 0.
	Seen         int64 `json:"seen"`
	Sampled      int64 `json:"sampled"`
	DroppedSpans int64 `json:"dropped_spans,omitempty"`
}

// Config configures a Tracer.
type Config struct {
	// Deterministic zeroes every wall-clock field and normalizes the
	// shard field, so a same-seed trace file is byte-identical at any
	// shard count and client parallelism.
	Deterministic bool
	// SampleRate is the tail-sampling probability for unflagged
	// requests (flagged ones — errors, retransmissions, protocol
	// switches, overloads — are always kept). Zero or less means 1
	// (keep everything); values above 1 are clamped to 1.
	SampleRate float64
	// maxSpans bounds the span buffer; past it, further requests are
	// dropped and counted in Summary.DroppedSpans. Zero means 1<<18,
	// the only value outside this package's tests. A run that hits the
	// cap loses the byte-identical guarantee (the cap cuts by
	// completion order).
	maxSpans int
	// Stream, when non-nil, receives each completed request's spans
	// immediately — JSONL, canonically sorted within the request — so a
	// crash loses only in-flight requests' spans. Streamed spans are not
	// buffered (maxSpans does not apply; a failed write counts the
	// request's spans in DroppedSpans instead), requests appear in
	// completion order, and WriteTo emits only the summary line. Stream
	// is incompatible with Deterministic: completion order is
	// scheduling-dependent, which is exactly what the byte-identical
	// guarantee excludes.
	Stream io.Writer
}

// Tracer collects finished request span-trees and writes the canonical
// trace file. All methods are safe on a nil *Tracer (no-ops), so
// instrumented code needs no conditionals, and safe for concurrent use.
type Tracer struct {
	cfg   Config
	start time.Time

	mu      sync.Mutex
	spans   []Span
	seen    int64
	sampled int64
	dropped int64
	summary *Summary

	slowTrace string
	slowNS    int64
}

// New creates a Tracer. The zero Config samples everything, bounds the
// buffer at 2^18 spans, and records wall clocks. A Stream set together
// with Deterministic is ignored (streaming is completion-ordered, which
// would break the byte-identical guarantee); callers that want to
// reject the combination should do so before constructing.
func New(cfg Config) *Tracer {
	if cfg.SampleRate <= 0 || cfg.SampleRate > 1 {
		cfg.SampleRate = 1
	}
	if cfg.maxSpans <= 0 {
		cfg.maxSpans = 1 << 18
	}
	if cfg.Deterministic {
		cfg.Stream = nil
	}
	return &Tracer{cfg: cfg, start: time.Now()}
}

// Enabled reports whether tracing is attached.
func (t *Tracer) Enabled() bool { return t != nil }

// Deterministic reports whether the tracer is in deterministic mode.
func (t *Tracer) Deterministic() bool { return t != nil && t.cfg.Deterministic }

// Now returns nanoseconds since the tracer was created, or 0 in
// deterministic mode (and on a nil tracer) — the only clock spans use,
// so deterministic traces never read the wall clock at all.
func (t *Tracer) Now() int64 {
	if t == nil || t.cfg.Deterministic {
		return 0
	}
	return int64(time.Since(t.start))
}

// Sampled decides the tail-sampling fate of a trace: flagged traces are
// always kept, the rest by a hash of the trace ID against the sample
// rate — a pure function of the ID, so the decision is independent of
// completion order.
func (t *Tracer) Sampled(trace string, flagged bool) bool {
	if t == nil {
		return false
	}
	if flagged || t.cfg.SampleRate >= 1 {
		return true
	}
	u := mix64(fnv64a(trace))
	return float64(u>>11)/(1<<53) < t.cfg.SampleRate
}

// Submit records one finished request's spans. The flagged bit marks
// requests the tail sampler must keep (errors, retransmissions,
// protocol switches, admission rejections). In deterministic mode the
// spans' Shard is normalized to -1 here, for every submitter: the
// assignment depends on the shard count.
func (t *Tracer) Submit(flagged bool, spans ...Span) {
	if t == nil || len(spans) == 0 {
		return
	}
	if t.cfg.Deterministic {
		for i := range spans {
			spans[i].Shard = -1
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seen++
	if !t.Sampled(spans[0].Trace, flagged) {
		return
	}
	if t.cfg.Stream != nil {
		// Streaming: flush the request's spans now, canonically sorted
		// within the request, instead of buffering until drain.
		sortRequestSpans(spans)
		enc := json.NewEncoder(t.cfg.Stream)
		for i := range spans {
			if err := enc.Encode(&spans[i]); err != nil {
				t.dropped += int64(len(spans))
				return
			}
		}
	} else {
		if len(t.spans)+len(spans) > t.cfg.maxSpans {
			t.dropped += int64(len(spans))
			return
		}
		t.spans = append(t.spans, spans...)
	}
	t.sampled++
	for i := range spans {
		if spans[i].Name == NameRequest && spans[i].DurNS > t.slowNS {
			t.slowNS = spans[i].DurNS
			t.slowTrace = spans[i].Trace
		}
	}
}

// sortRequestSpans applies the canonical within-request order — causal
// rank, then transition step, then span ID — to one request's spans (the
// per-request projection of WriteTo's global sort).
func sortRequestSpans(spans []Span) {
	sort.SliceStable(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if ra, rb := rank(a.Name), rank(b.Name); ra != rb {
			return ra < rb
		}
		if a.Step != b.Step {
			return a.Step < b.Step
		}
		return a.Span < b.Span
	})
}

// SetSummary installs the engine's authoritative totals; the server
// calls it at drain, before the trace file is written.
func (t *Tracer) SetSummary(s Summary) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.Seen = t.seen
	s.Sampled = t.sampled
	s.DroppedSpans = t.dropped
	t.summary = &s
}

// Slowest returns the trace ID and duration of the slowest sampled
// request so far — the exemplar the /v1/metrics exposition attaches to
// the request-latency histogram. Zero duration means none.
func (t *Tracer) Slowest() (trace string, durNS int64) {
	if t == nil {
		return "", 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.slowTrace, t.slowNS
}

// Len returns the number of buffered spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// WriteTo writes the canonical trace file: spans sorted by
// (object, seq, causal rank, span id) — a total order independent of
// completion interleaving — then the summary line, one JSON object per
// line. It may be called more than once; the buffer is not consumed.
func (t *Tracer) WriteTo(w io.Writer) (int64, error) {
	if t == nil {
		return 0, nil
	}
	t.mu.Lock()
	spans := append([]Span(nil), t.spans...)
	summary := t.summary
	t.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.Object != b.Object {
			return a.Object < b.Object
		}
		if a.Seq != b.Seq {
			return a.Seq < b.Seq
		}
		if ra, rb := rank(a.Name), rank(b.Name); ra != rb {
			return ra < rb
		}
		if a.Step != b.Step {
			return a.Step < b.Step
		}
		return a.Span < b.Span
	})
	var n int64
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return n, err
		}
		n++
	}
	if summary != nil {
		if err := enc.Encode(struct {
			Name    string  `json:"name"`
			Summary Summary `json:"summary"`
		}{"summary", *summary}); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}
