package server

// The /v1/batch wire codec (DESIGN S30). The four wire structs are
// fixed, so nothing about them needs discovering per request: the
// encoders append exactly the bytes encoding/json emits for them, and
// the decoders recognise exactly those bytes — what every client in the
// tree sends — and leave any other text to json.Unmarshal, so the
// language accepted is encoding/json's because encoding/json reads it.
// The handler, the client and the journal writer share the codec;
// encoding/json alone stays where nothing is per-request (stats,
// healthz, checkpoints, replay).

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"unicode/utf8"

	"objalloc/internal/model"
)

const hexDigits = "0123456789abcdef"

// appendString appends s as encoding/json quotes it with HTML escaping
// on: ", \ and control bytes escaped (\b \f \n \r \t by name), <, > and
// & as \u00XX, U+2028/9 as \u202X, invalid UTF-8 as \ufffd.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			start = i + size
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			start = i + size
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// appendFloat appends f in encoding/json's (ES6) number format. Like
// json.Marshal it refuses NaN and the infinities.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, fmt.Errorf("server: unsupported value: %v", f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-09 is written e-9
		b = b[:n-1]
	}
	return b, nil
}

// appendBatchRequest appends json.Marshal(req).
func appendBatchRequest(b []byte, req *BatchRequest) []byte {
	if req.Requests == nil {
		return append(b, `{"requests":null}`...)
	}
	b = append(b, `{"requests":[`...)
	for i := range req.Requests {
		r := &req.Requests[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(append(b, `{"object":`...), r.Object)
		b = appendString(append(b, `,"op":`...), r.Op)
		b = strconv.AppendInt(append(b, `,"processor":`...), int64(r.Processor), 10)
		if r.Seq != 0 {
			b = strconv.AppendUint(append(b, `,"seq":`...), r.Seq, 10)
		}
		b = append(b, '}')
	}
	return append(b, ']', '}')
}

// appendBatchResponse appends json.Marshal(resp).
func appendBatchResponse(b []byte, resp *BatchResponse) ([]byte, error) {
	b = strconv.AppendInt(append(b, `{"done":`...), int64(resp.Done), 10)
	if resp.Results == nil {
		b = append(b, `,"results":null`...)
	} else {
		b = append(b, `,"results":[`...)
		for i := range resp.Results {
			r := &resp.Results[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(append(b, `{"object":`...), r.Object)
			b = appendString(append(b, `,"op":`...), r.Op)
			b = strconv.AppendInt(append(b, `,"processor":`...), int64(r.Processor), 10)
			var err error
			if b, err = appendFloat(append(b, `,"cost":`...), r.Cost); err != nil {
				return b, err
			}
			if r.Coalesced {
				b = append(b, `,"coalesced":true`...)
			}
			if r.Retransmits != 0 {
				b = strconv.AppendInt(append(b, `,"retransmits":`...), int64(r.Retransmits), 10)
			}
			if r.Duplicate {
				b = append(b, `,"duplicate":true`...)
			}
			if r.Err != "" {
				b = appendString(append(b, `,"err":`...), r.Err)
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if resp.RetryAfterMS != 0 {
		b = strconv.AppendInt(append(b, `,"retry_after_ms":`...), resp.RetryAfterMS, 10)
	}
	if resp.Draining {
		b = append(b, `,"draining":true`...)
	}
	if resp.Unavailable {
		b = append(b, `,"unavailable":true`...)
	}
	return append(b, '}'), nil
}

// decodeBatchRequest is json.Unmarshal(data, req): the bytes
// appendBatchRequest writes are recognised in one pass without
// reflection, and any other text is encoding/json's to read or refuse.
func decodeBatchRequest(data []byte, req *BatchRequest) error {
	if recogniseBatchRequest(data, req) {
		return nil
	}
	return json.Unmarshal(data, req)
}

// decodeBatchResponse is json.Unmarshal(data, resp), likewise over
// appendBatchResponse's bytes.
func decodeBatchResponse(data []byte, resp *BatchResponse) error {
	if recogniseBatchResponse(data, resp) {
		return nil
	}
	return json.Unmarshal(data, resp)
}

// recogniseBatchRequest reads data into req as json.Unmarshal would and
// reports true if data is in appendBatchRequest's form; if not, it
// reports false with req, backing array included, as it found it.
func recogniseBatchRequest(data []byte, req *BatchRequest) bool {
	c := canon{data: data, ok: true}
	c.lit(`{"requests":`)
	requests, wrote := elements(&c, req.Requests, (*canon).request)
	c.lit(`}`)
	if !c.end() {
		clear(wrote)
		return false
	}
	req.Requests = requests
	return true
}

// recogniseBatchResponse is the same over appendBatchResponse's form.
func recogniseBatchResponse(data []byte, resp *BatchResponse) bool {
	c, out := canon{data: data, ok: true}, *resp
	c.lit(`{"done":`)
	out.Done = c.int()
	c.lit(`,"results":`)
	results, wrote := elements(&c, resp.Results, (*canon).result)
	out.Results = results
	if c.has(`,"retry_after_ms":`) {
		out.RetryAfterMS = int64(c.uint()) // 18 digits fit
	}
	if c.has(`,"draining":true`) {
		out.Draining = true
	}
	if c.has(`,"unavailable":true`) {
		out.Unavailable = true
	}
	c.lit(`}`)
	if !c.end() {
		clear(wrote)
		return false
	}
	*resp = out
	return true
}

// canon is a cursor over a text being tried against the encoders'
// canonical form: members in declaration order with omitempty's gaps,
// no space between tokens, strings of unescaped printable ASCII,
// integers of at most 18 digits with no sign or leading zero, costs as
// digits[.digits]. ok turns false at the first byte that is anything
// else and stays false, so a caller reads a whole value and asks once.
// A text that passes is read as json.Unmarshal reads it; one that does
// not is declined, which decides nothing about whether it is valid.
type canon struct {
	data []byte
	pos  int
	ok   bool
}

// has steps over s if the text continues with it.
func (c *canon) has(s string) bool {
	if !c.ok || len(c.data)-c.pos < len(s) || string(c.data[c.pos:c.pos+len(s)]) != s {
		return false
	}
	c.pos += len(s)
	return true
}

// lit declines unless the text continues with s.
func (c *canon) lit(s string) {
	c.ok = c.has(s)
}

// end reports whether the text was canonical to its last byte, allowing
// the white space a framing newline leaves after the top-level value.
func (c *canon) end() bool {
	for c.has(" ") || c.has("\n") || c.has("\t") || c.has("\r") {
	}
	return c.ok && c.pos == len(c.data)
}

func (c *canon) str() string {
	c.lit(`"`)
	for i := c.pos; c.ok && i < len(c.data); i++ {
		b := c.data[i]
		if b == '"' {
			s := string(c.data[c.pos:i])
			c.pos = i + 1
			return s
		}
		c.ok = ' ' <= b && b <= '~' && b != '\\'
	}
	c.ok = false
	return ""
}

// digits steps over a run of decimal digits and returns it.
func (c *canon) digits() []byte {
	start := c.pos
	for c.pos < len(c.data) && c.data[c.pos]-'0' <= 9 {
		c.pos++
	}
	return c.data[start:c.pos]
}

func (c *canon) uint() (v uint64) {
	d := c.digits()
	if len(d) == 0 || len(d) > 18 || len(d) > 1 && d[0] == '0' {
		c.ok = false
	}
	for _, b := range d {
		v = v*10 + uint64(b-'0')
	}
	return v
}

func (c *canon) int() int {
	v := c.uint()
	if v > math.MaxInt {
		c.ok = false
	}
	return int(v)
}

// float reads the 'f' form appendFloat writes for a non-negative cost,
// through the conversion encoding/json uses.
func (c *canon) float() float64 {
	start := c.pos
	c.uint()
	if c.has(".") && len(c.digits()) == 0 {
		c.ok = false
	}
	f, err := strconv.ParseFloat(string(c.data[start:c.pos]), 64)
	if err != nil {
		c.ok = false
	}
	return f
}

func (c *canon) request(r *WireRequest) {
	c.lit(`{"object":`)
	r.Object = c.str()
	c.lit(`,"op":`)
	r.Op = c.str()
	c.lit(`,"processor":`)
	r.Processor = c.int()
	if c.has(`,"seq":`) {
		r.Seq = c.uint()
	}
	c.lit(`}`)
}

func (c *canon) result(r *WireResult) {
	c.lit(`{"object":`)
	r.Object = c.str()
	c.lit(`,"op":`)
	r.Op = c.str()
	c.lit(`,"processor":`)
	r.Processor = c.int()
	c.lit(`,"cost":`)
	r.Cost = c.float()
	r.Coalesced = c.has(`,"coalesced":true`)
	if c.has(`,"retransmits":`) {
		r.Retransmits = c.int()
	}
	r.Duplicate = c.has(`,"duplicate":true`)
	if c.has(`,"err":`) {
		r.Err = c.str()
	}
	c.lit(`}`)
}

// elements reads null or an array of canonical elements the way
// json.Unmarshal reads one into old: null is nil, [] a fresh empty
// slice, and element i lands on old's backing array at i while that
// lasts. Unmarshal decodes on top of what the array holds there, and a
// decline must hand it back as it was, so an element is written only
// over a zero value — what the pooled scratch and a fresh destination
// hold — and wrote is the part of old's array to clear on a decline.
func elements[T comparable](c *canon, old []T, elem func(*canon, *T)) (s, wrote []T) {
	if c.has("null") {
		return nil, nil
	}
	c.lit("[")
	var zero T
	s = old[:0]
	for n := 0; c.ok && !c.has("]"); n++ {
		if n > 0 {
			c.lit(",")
		}
		if n < cap(s) && s[:n+1][n] != zero {
			c.ok = false
			break
		}
		s = append(s, zero)
		elem(c, &s[n])
	}
	wrote = old[:min(len(s), cap(old))]
	if len(s) == 0 {
		s = []T{}
	}
	return s, wrote
}

// maxPooledBuf and maxPooledBatch bound what an idle batchScratch may
// keep: a body can be 8 MiB (maxBatchBytes), and one such batch must
// not raise the process's resident set for the rest of its life.
const (
	maxPooledBuf   = 64 << 10
	maxPooledBatch = 1024
)

// batchScratch is the memory one /v1/batch exchange works in: the body
// as read (then the reply as written), the decoded batch, its validated
// requests and its results. The client uses buf and resp only.
type batchScratch struct {
	buf  []byte
	body BatchRequest
	reqs []model.Request
	resp BatchResponse
}

// A new scratch starts with room for a typical batch, so that readAll
// does not grow it from nothing each time the pool has been collected.
var scratchPool = sync.Pool{New: func() any { return &batchScratch{buf: make([]byte, 0, 4096)} }}

func getScratch() *batchScratch { return scratchPool.Get().(*batchScratch) }

// putScratch returns sc to the pool unless it grew past the bounds.
func putScratch(sc *batchScratch) {
	if sc.reset() {
		scratchPool.Put(sc)
	}
}

// reset empties sc for reuse, zeroing its slices to their capacity: the
// decoder writes on top of what a backing array holds, and a pooled
// string would pin its object name. It reports false, leaving sc alone,
// if sc is too large to keep.
func (sc *batchScratch) reset() bool {
	if cap(sc.buf) > maxPooledBuf || cap(sc.body.Requests) > maxPooledBatch || cap(sc.resp.Results) > maxPooledBatch {
		return false
	}
	reqs, results := sc.body.Requests[:cap(sc.body.Requests)], sc.resp.Results[:cap(sc.resp.Results)]
	clear(reqs)
	clear(results)
	*sc = batchScratch{
		buf:  sc.buf[:0],
		body: BatchRequest{Requests: reqs[:0]},
		reqs: sc.reqs[:0],
		resp: BatchResponse{Results: results[:0]},
	}
	return true
}

// readAll is io.ReadAll into b's spare capacity.
func readAll(b []byte, r io.Reader) ([]byte, error) {
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}
