package tracing

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// RequestView is one request folded out of its span tree: the
// critical-path decomposition traceview prints.
type RequestView struct {
	Trace    string
	Object   string
	Seq      uint64
	Op       string
	Proc     int
	Shard    int
	Engine   string
	Protocol string
	Outcome  string

	CostMilli   int64
	Control     int
	Data        int
	IO          int
	Retransmits int
	QueueLen    int

	StartNS     int64 // root span start
	TotalNS     int64 // root span duration
	AdmissionNS int64
	QueueNS     int64
	ServiceNS   int64

	Transitions []Span
}

// Analysis is a parsed trace file.
type Analysis struct {
	Spans    []Span
	Requests []RequestView
	Summary  *Summary
}

// Parse reads a trace JSONL stream: span lines and the optional final
// summary line. Any line that is neither is an error — the trace-smoke
// gate uses this as the schema check.
func Parse(r io.Reader) (*Analysis, error) {
	a := &Analysis{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	lineNo := 0
	byKey := make(map[string]int) // trace+root span -> request index
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var probe struct {
			Name    string   `json:"name"`
			Trace   string   `json:"trace"`
			Summary *Summary `json:"summary"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			return nil, fmt.Errorf("tracing: line %d: %v", lineNo, err)
		}
		if probe.Summary != nil {
			if probe.Name != "summary" {
				return nil, fmt.Errorf("tracing: line %d: summary line named %q", lineNo, probe.Name)
			}
			a.Summary = probe.Summary
			continue
		}
		var s Span
		if err := json.Unmarshal(line, &s); err != nil {
			return nil, fmt.Errorf("tracing: line %d: %v", lineNo, err)
		}
		if s.Trace == "" || s.Span == "" || s.Name == "" {
			return nil, fmt.Errorf("tracing: line %d: span missing trace/span/name", lineNo)
		}
		a.Spans = append(a.Spans, s)
		key := s.Trace + "/" + s.Object + "/" + fmt.Sprint(s.Seq)
		i, ok := byKey[key]
		if !ok {
			i = len(a.Requests)
			byKey[key] = i
			a.Requests = append(a.Requests, RequestView{
				Trace: s.Trace, Object: s.Object, Seq: s.Seq, Shard: -1,
			})
		}
		rv := &a.Requests[i]
		switch s.Name {
		case NameRequest:
			rv.Op, rv.Proc, rv.Shard = s.Op, s.Proc, s.Shard
			rv.Engine, rv.Protocol, rv.Outcome = s.Engine, s.Protocol, s.Outcome
			rv.Retransmits = s.Retransmits
			rv.StartNS, rv.TotalNS = s.StartNS, s.DurNS
		case NameAdmission:
			rv.AdmissionNS = s.DurNS
			if rv.Outcome == "" {
				rv.Outcome = s.Outcome
			}
		case NameQueue:
			rv.QueueNS, rv.QueueLen = s.DurNS, s.QueueLen
		case NameService:
			rv.ServiceNS = s.DurNS
			rv.CostMilli = s.CostMilli
			rv.Control, rv.Data, rv.IO = s.Control, s.Data, s.IO
		case NameTransition:
			rv.Transitions = append(rv.Transitions, s)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return a, nil
}

// SpanCostMilli sums the service spans' billed cost — the spans-only
// reconstruction of the run's total cost. When the summary shows full
// sampling (Sampled == Seen, no drops), this equals Summary.CostMilli
// exactly.
func (a *Analysis) SpanCostMilli() int64 {
	var total int64
	for _, rv := range a.Requests {
		total += rv.CostMilli
	}
	return total
}

// SpanCounts sums the service spans' message/I/O counts.
func (a *Analysis) SpanCounts() (ctl, data, io int) {
	for _, rv := range a.Requests {
		ctl += rv.Control
		data += rv.Data
		io += rv.IO
	}
	return
}

// FullySampled reports whether the trace covers every request the
// engine serviced (no tail-sampling losses, no buffer drops) — the
// precondition for exact cost reconciliation.
func (a *Analysis) FullySampled() bool {
	return a.Summary != nil && a.Summary.Sampled == a.Summary.Seen && a.Summary.DroppedSpans == 0
}

// Reconcile checks the spans against the summary: with full sampling,
// the span-reconstructed cost and message/I/O counts must equal the
// engine-reported totals exactly. It returns a descriptive error on
// mismatch and nil when the trace reconciles (or carries no summary to
// reconcile against).
func (a *Analysis) Reconcile() error {
	if a.Summary == nil {
		return fmt.Errorf("tracing: no summary line to reconcile against")
	}
	if !a.FullySampled() {
		return nil // partial trace: totals are a lower bound by design
	}
	if got, want := a.SpanCostMilli(), a.Summary.CostMilli; got != want {
		return fmt.Errorf("tracing: span cost %d milli != engine total %d milli", got, want)
	}
	ctl, data, io := a.SpanCounts()
	if ctl != a.Summary.Control || data != a.Summary.Data || io != a.Summary.IO {
		return fmt.Errorf("tracing: span counts ctl=%d data=%d io=%d != engine ctl=%d data=%d io=%d",
			ctl, data, io, a.Summary.Control, a.Summary.Data, a.Summary.IO)
	}
	return nil
}

// Slowest returns the n slowest requests by total duration (ties broken
// by cost, then object/seq — so deterministic traces, whose durations
// are all zero, rank by cost).
func (a *Analysis) Slowest(n int) []RequestView {
	out := append([]RequestView(nil), a.Requests...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].TotalNS != out[j].TotalNS {
			return out[i].TotalNS > out[j].TotalNS
		}
		if out[i].CostMilli != out[j].CostMilli {
			return out[i].CostMilli > out[j].CostMilli
		}
		if out[i].Object != out[j].Object {
			return out[i].Object < out[j].Object
		}
		return out[i].Seq < out[j].Seq
	})
	if n < len(out) {
		out = out[:n]
	}
	return out
}

// ShardBreakdown aggregates the latency decomposition per shard:
// request count, total queue-wait and service time, and the mean queue
// depth observed at enqueue. Requests without a shard (deterministic
// traces normalize it to -1) aggregate under shard -1.
type ShardBreakdown struct {
	Shard     int
	Requests  int
	QueueNS   int64
	ServiceNS int64
	DepthSum  int64
}

// QueueShare is the shard's queue-wait share of (queue + service) time.
func (sb ShardBreakdown) QueueShare() float64 {
	if sb.QueueNS+sb.ServiceNS == 0 {
		return 0
	}
	return float64(sb.QueueNS) / float64(sb.QueueNS+sb.ServiceNS)
}

// ByShard folds the requests into per-shard breakdowns, sorted by
// shard.
func (a *Analysis) ByShard() []ShardBreakdown {
	m := make(map[int]*ShardBreakdown)
	for _, rv := range a.Requests {
		sb, ok := m[rv.Shard]
		if !ok {
			sb = &ShardBreakdown{Shard: rv.Shard}
			m[rv.Shard] = sb
		}
		sb.Requests++
		sb.QueueNS += rv.QueueNS
		sb.ServiceNS += rv.ServiceNS
		sb.DepthSum += int64(rv.QueueLen)
	}
	out := make([]ShardBreakdown, 0, len(m))
	for _, sb := range m {
		out = append(out, *sb)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Shard < out[j].Shard })
	return out
}

// DepthTimeline buckets one shard's enqueue-time queue depths into
// `buckets` equal wall-clock windows over the trace's span and returns
// the mean depth per window (-1 marks windows with no samples). It
// returns nil when the trace carries no wall clocks (deterministic
// mode) or fewer than two distinct enqueue times.
func (a *Analysis) DepthTimeline(shard, buckets int) []float64 {
	var minT, maxT int64 = -1, -1
	type sample struct {
		at    int64
		depth int
	}
	var samples []sample
	for _, rv := range a.Requests {
		if rv.Shard != shard || rv.StartNS == 0 {
			continue
		}
		samples = append(samples, sample{rv.StartNS, rv.QueueLen})
		if minT < 0 || rv.StartNS < minT {
			minT = rv.StartNS
		}
		if rv.StartNS > maxT {
			maxT = rv.StartNS
		}
	}
	if len(samples) == 0 || maxT <= minT || buckets < 1 {
		return nil
	}
	sums := make([]float64, buckets)
	counts := make([]int, buckets)
	span := maxT - minT + 1
	for _, s := range samples {
		b := int((s.at - minT) * int64(buckets) / span)
		sums[b] += float64(s.depth)
		counts[b]++
	}
	out := make([]float64, buckets)
	for i := range out {
		if counts[i] == 0 {
			out[i] = -1
		} else {
			out[i] = sums[i] / float64(counts[i])
		}
	}
	return out
}
