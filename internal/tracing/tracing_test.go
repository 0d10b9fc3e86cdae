package tracing

import (
	"bytes"
	"strings"
	"testing"
)

func TestTraceparentRoundTrip(t *testing.T) {
	sc := DeriveRequest(42, "obj-7", 3)
	if !sc.Valid() {
		t.Fatal("derived context invalid")
	}
	h := sc.Traceparent()
	if len(h) != 55 {
		t.Fatalf("traceparent length %d, want 55: %q", len(h), h)
	}
	got, err := ParseTraceparent(h)
	if err != nil {
		t.Fatalf("ParseTraceparent(%q): %v", h, err)
	}
	if got != sc {
		t.Fatalf("round trip: got %+v, want %+v", got, sc)
	}
}

func TestParseTraceparentMalformed(t *testing.T) {
	valid := DeriveRequest(1, "x", 0).Traceparent()
	for _, tc := range []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"short", valid[:54]},
		{"long", valid + "0"},
		{"bad version", "01" + valid[2:]},
		{"bad separator", valid[:2] + "_" + valid[3:]},
		{"non-hex trace", valid[:3] + strings.Repeat("g", 32) + valid[35:]},
		{"non-hex span", valid[:36] + strings.Repeat("z", 16) + valid[52:]},
		{"zero trace", valid[:3] + strings.Repeat("0", 32) + valid[35:]},
		{"zero span", valid[:36] + strings.Repeat("0", 16) + valid[52:]},
		{"non-hex flags", valid[:53] + "xy"},
	} {
		if _, err := ParseTraceparent(tc.in); err == nil {
			t.Errorf("%s: %q accepted", tc.name, tc.in)
		}
	}
	if _, err := ParseTraceparent(valid); err != nil {
		t.Fatalf("valid header rejected: %v", err)
	}
}

func TestDeriveRequestDeterministicAndDistinct(t *testing.T) {
	a := DeriveRequest(42, "obj-1", 5)
	if b := DeriveRequest(42, "obj-1", 5); a != b {
		t.Fatal("same inputs derived different contexts")
	}
	seen := map[string]bool{a.Trace.String(): true}
	for _, sc := range []SpanContext{
		DeriveRequest(42, "obj-1", 6),
		DeriveRequest(42, "obj-2", 5),
		DeriveRequest(43, "obj-1", 5),
	} {
		id := sc.Trace.String()
		if seen[id] {
			t.Fatalf("trace id collision at %s", id)
		}
		seen[id] = true
	}
}

func TestChildIDDeterministicAndDistinct(t *testing.T) {
	parent := DeriveRequest(1, "o", 0)
	a := ChildID(parent, NameQueue, 0)
	if b := ChildID(parent, NameQueue, 0); a != b {
		t.Fatal("same child inputs derived different ids")
	}
	if a == ChildID(parent, NameService, 0) {
		t.Fatal("kind not mixed into child id")
	}
	if a == ChildID(parent, NameQueue, 1) {
		t.Fatal("index not mixed into child id")
	}
}

func TestSamplerKeepsFlaggedOnly(t *testing.T) {
	tr := New(Config{SampleRate: 1e-12})
	for i := 0; i < 50; i++ {
		sc := DeriveRequest(7, "obj", uint64(i))
		tr.Submit(i%10 == 0, Span{Trace: sc.Trace.String(), Span: sc.Span.String(), Name: NameRequest})
	}
	// At rate ~0 only the 5 flagged submissions survive.
	if got := tr.Len(); got != 5 {
		t.Fatalf("buffered %d spans, want 5 flagged", got)
	}
	tr.SetSummary(Summary{})
	var buf bytes.Buffer
	tr.WriteTo(&buf)
	a, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if a.Summary.Seen != 50 || a.Summary.Sampled != 5 {
		t.Fatalf("summary seen/sampled = %d/%d, want 50/5", a.Summary.Seen, a.Summary.Sampled)
	}
	if a.FullySampled() {
		t.Fatal("partial trace claims full sampling")
	}
}

func TestMaxSpansCap(t *testing.T) {
	tr := New(Config{maxSpans: 3})
	for i := 0; i < 5; i++ {
		sc := DeriveRequest(1, "o", uint64(i))
		tr.Submit(true, Span{Trace: sc.Trace.String(), Span: sc.Span.String(), Name: NameRequest})
	}
	if got := tr.Len(); got != 3 {
		t.Fatalf("buffered %d spans, want 3 (cap)", got)
	}
	tr.SetSummary(Summary{})
	var buf bytes.Buffer
	tr.WriteTo(&buf)
	a, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if a.Summary.DroppedSpans != 2 {
		t.Fatalf("dropped = %d, want 2", a.Summary.DroppedSpans)
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() || tr.Deterministic() || tr.Now() != 0 {
		t.Fatal("nil tracer not inert")
	}
	tr.Submit(true, Span{Trace: "t", Span: "s", Name: NameRequest})
	tr.SetSummary(Summary{})
	var buf bytes.Buffer
	if n, err := tr.WriteTo(&buf); n != 0 || err != nil || buf.Len() != 0 {
		t.Fatal("nil tracer wrote output")
	}
}

// TestWriteToCanonicalOrder submits span trees out of order and checks
// the file sorts by (object, seq, causal rank) with the summary last —
// and that a deterministic tracer's output carries no wall-clock
// fields.
func TestWriteToCanonicalOrder(t *testing.T) {
	tr := New(Config{Deterministic: true})
	mk := func(object string, seq uint64) []Span {
		sc := DeriveRequest(9, object, seq)
		trace, root := sc.Trace.String(), sc.Span.String()
		return []Span{
			{Trace: trace, Span: ChildID(sc, NameService, 0).String(), Parent: root, Name: NameService, Object: object, Seq: seq, Shard: -1},
			{Trace: trace, Span: root, Name: NameRequest, Object: object, Seq: seq, Shard: -1},
			{Trace: trace, Span: ChildID(sc, NameQueue, 0).String(), Parent: root, Name: NameQueue, Object: object, Seq: seq, Shard: -1},
		}
	}
	tr.Submit(false, mk("b", 1)...)
	tr.Submit(false, mk("a", 1)...)
	tr.Submit(false, mk("a", 0)...)
	tr.SetSummary(Summary{Requests: 3, Engine: "da"})
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "start_ns") || strings.Contains(out, "dur_ns") || strings.Contains(out, "queue_len") {
		t.Fatalf("deterministic trace leaked wall-clock fields:\n%s", out)
	}
	a, err := Parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	wantOrder := []string{"a/0", "a/1", "b/1"}
	for i, rv := range a.Requests {
		if got := rv.Object + "/" + string(rune('0'+rv.Seq)); got != wantOrder[i] {
			t.Fatalf("request %d = %s, want %s", i, got, wantOrder[i])
		}
	}
	var names []string
	for _, s := range a.Spans[:3] {
		names = append(names, s.Name)
	}
	if got := strings.Join(names, ","); got != "request,queue,service" {
		t.Fatalf("span order within request = %s, want causal rank order", got)
	}
	if a.Summary == nil || a.Summary.Requests != 3 {
		t.Fatalf("summary not preserved: %+v", a.Summary)
	}
	// WriteTo must be repeatable (the buffer is not consumed).
	var again bytes.Buffer
	tr.WriteTo(&again)
	if again.String() != out {
		t.Fatal("second WriteTo differs")
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := Parse(strings.NewReader("not json\n")); err == nil {
		t.Fatal("garbage line accepted")
	}
	if _, err := Parse(strings.NewReader(`{"trace":"t"}` + "\n")); err == nil {
		t.Fatal("span without span/name accepted")
	}
}

func TestSlowestTracking(t *testing.T) {
	tr := New(Config{})
	for i, dur := range []int64{100, 900, 300} {
		sc := DeriveRequest(3, "o", uint64(i))
		tr.Submit(false, Span{Trace: sc.Trace.String(), Span: sc.Span.String(), Name: NameRequest, Object: "o", Seq: uint64(i), DurNS: dur})
	}
	trace, dur := tr.Slowest()
	if dur != 900 || trace != DeriveRequest(3, "o", 1).Trace.String() {
		t.Fatalf("Slowest = %s/%d, want seq 1 at 900ns", trace, dur)
	}
}
