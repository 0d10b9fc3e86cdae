package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
)

// Attr is one ordered key-value pair of an event. Attribute order is part
// of the event's identity: the JSONL encoding preserves it, which is what
// makes metrics files byte-comparable across runs.
type Attr struct {
	Key   string
	Value any
}

// String returns a string attribute.
func String(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int returns an int attribute.
func Int(k string, v int) Attr { return Attr{Key: k, Value: int64(v)} }

// Int64 returns an int64 attribute.
func Int64(k string, v int64) Attr { return Attr{Key: k, Value: v} }

// Uint64 returns a uint64 attribute.
func Uint64(k string, v uint64) Attr { return Attr{Key: k, Value: v} }

// Float returns a float64 attribute, encoded with strconv's shortest
// round-trip form — deterministic for deterministic values. JSON has no
// infinity or NaN, so those are encoded as the strings "+Inf", "-Inf" and
// "NaN".
func Float(k string, v float64) Attr { return Attr{Key: k, Value: v} }

// Bool returns a bool attribute.
func Bool(k string, v bool) Attr { return Attr{Key: k, Value: v} }

// Int64s returns an integer-array attribute.
func Int64s(k string, v []int64) Attr { return Attr{Key: k, Value: v} }

// Event is one structured record: a name plus ordered attributes. Events
// carry only deterministic quantities — anything derived from wall-clock
// time belongs in the Observer, not here.
type Event struct {
	Name  string
	Attrs []Attr
}

// Get returns the value of the named attribute, or nil.
func (e Event) Get(key string) any {
	for _, a := range e.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return nil
}

// Int64At returns the named attribute as an int64 (0 if absent or not
// integral) — the common case when folding deltas out of an event stream.
func (e Event) Int64At(key string) int64 {
	switch v := e.Get(key).(type) {
	case int64:
		return v
	case uint64:
		return int64(v)
	default:
		return 0
	}
}

// Sink receives events. Implementations must be safe for concurrent use.
type Sink interface {
	Emit(Event)
}

// Null is the discarding sink.
var Null Sink = nullSink{}

type nullSink struct{}

func (nullSink) Emit(Event) {}

// JSONLSink renders each event as one JSON object per line:
//
//	{"event":"request","kind":"read","proc":3,"ctl":1,"data":1,"io":1}
//
// Attribute order is preserved, numbers use shortest round-trip encoding,
// and nothing time-dependent is added, so two runs that emit the same
// events produce byte-identical files.
type JSONLSink struct {
	mu  sync.Mutex
	w   io.Writer
	buf []byte
	err error
}

// NewJSONL returns a sink writing to w.
func NewJSONL(w io.Writer) *JSONLSink { return &JSONLSink{w: w} }

// Emit implements Sink.
func (s *JSONLSink) Emit(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buf = s.buf[:0]
	s.buf = append(s.buf, `{"event":`...)
	s.buf = appendJSONValue(s.buf, e.Name)
	for _, a := range e.Attrs {
		s.buf = append(s.buf, ',')
		s.buf = appendJSONValue(s.buf, a.Key)
		s.buf = append(s.buf, ':')
		s.buf = appendJSONValue(s.buf, a.Value)
	}
	s.buf = append(s.buf, '}', '\n')
	if s.err == nil {
		_, s.err = s.w.Write(s.buf)
	}
}

// Err returns the first write error encountered, if any.
func (s *JSONLSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

func appendJSONValue(b []byte, v any) []byte {
	switch x := v.(type) {
	case string:
		q, err := json.Marshal(x)
		if err != nil {
			return append(b, `"?"`...)
		}
		return append(b, q...)
	case int64:
		return strconv.AppendInt(b, x, 10)
	case uint64:
		return strconv.AppendUint(b, x, 10)
	case int:
		return strconv.AppendInt(b, int64(x), 10)
	case float64:
		if math.IsInf(x, 0) || math.IsNaN(x) {
			return strconv.AppendQuote(b, strconv.FormatFloat(x, 'g', -1, 64))
		}
		return strconv.AppendFloat(b, x, 'g', -1, 64)
	case bool:
		return strconv.AppendBool(b, x)
	case []int64:
		b = append(b, '[')
		for i, n := range x {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, n, 10)
		}
		return append(b, ']')
	case nil:
		return append(b, "null"...)
	default:
		return appendJSONValue(b, fmt.Sprint(x))
	}
}

// MemSink collects events in memory — for tests and for consumers that
// fold the stream after a run (package trace builds its running-cost
// column this way).
type MemSink struct {
	mu     sync.Mutex
	events []Event
}

// NewMem returns an empty in-memory sink.
func NewMem() *MemSink { return &MemSink{} }

// Emit implements Sink.
func (s *MemSink) Emit(e Event) {
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

// Events returns the collected events in emission order.
func (s *MemSink) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Event(nil), s.events...)
}

// Drain returns the collected events in emission order and clears the
// sink. The chaos runner uses it to canonicalize each step's raw network
// events before re-emitting them in a deterministic order.
func (s *MemSink) Drain() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.events
	s.events = nil
	return out
}

// Named returns the collected events with the given name.
func (s *MemSink) Named(name string) []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Event
	for _, e := range s.events {
		if e.Name == name {
			out = append(out, e)
		}
	}
	return out
}
