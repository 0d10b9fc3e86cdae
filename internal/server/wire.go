package server

// The /v1/batch wire codec (DESIGN S30). The four wire structs are
// fixed, so nothing about them needs discovering per request: the
// encoders append exactly the bytes encoding/json emits for them, and
// the decoder accepts exactly the inputs json.Unmarshal accepts for
// them, with the same resulting value. The handler, the client and the
// journal writer share it; encoding/json stays where nothing is
// per-request (stats, healthz, checkpoints, replay).

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"unicode"
	"unicode/utf16"
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

// wireField is one member of a wire struct's schema: its JSON key and
// how to decode the value under it.
type wireField[T any] struct {
	key string
	set func(d *wireDecoder, v *T) error
}

var (
	wireRequestFields = []wireField[WireRequest]{
		{"object", func(d *wireDecoder, r *WireRequest) error { return d.str(&r.Object) }},
		{"op", func(d *wireDecoder, r *WireRequest) error { return d.str(&r.Op) }},
		{"processor", func(d *wireDecoder, r *WireRequest) error { return decodeNumber(d, &r.Processor, true, atoi) }},
		{"seq", func(d *wireDecoder, r *WireRequest) error { return decodeNumber(d, &r.Seq, true, atou64) }},
	}
	batchRequestFields = []wireField[BatchRequest]{
		{"requests", func(d *wireDecoder, b *BatchRequest) error {
			return decodeSlice(d, wireRequestFields, &b.Requests)
		}},
	}
	wireResultFields = []wireField[WireResult]{
		{"object", func(d *wireDecoder, r *WireResult) error { return d.str(&r.Object) }},
		{"op", func(d *wireDecoder, r *WireResult) error { return d.str(&r.Op) }},
		{"processor", func(d *wireDecoder, r *WireResult) error { return decodeNumber(d, &r.Processor, true, atoi) }},
		{"cost", func(d *wireDecoder, r *WireResult) error { return decodeNumber(d, &r.Cost, false, atof64) }},
		{"coalesced", func(d *wireDecoder, r *WireResult) error { return d.bool(&r.Coalesced) }},
		{"retransmits", func(d *wireDecoder, r *WireResult) error { return decodeNumber(d, &r.Retransmits, true, atoi) }},
		{"duplicate", func(d *wireDecoder, r *WireResult) error { return d.bool(&r.Duplicate) }},
		{"err", func(d *wireDecoder, r *WireResult) error { return d.str(&r.Err) }},
	}
	batchResponseFields = []wireField[BatchResponse]{
		{"done", func(d *wireDecoder, b *BatchResponse) error { return decodeNumber(d, &b.Done, true, atoi) }},
		{"results", func(d *wireDecoder, b *BatchResponse) error {
			return decodeSlice(d, wireResultFields, &b.Results)
		}},
		{"retry_after_ms", func(d *wireDecoder, b *BatchResponse) error { return decodeNumber(d, &b.RetryAfterMS, true, atoi64) }},
		{"draining", func(d *wireDecoder, b *BatchResponse) error { return d.bool(&b.Draining) }},
		{"unavailable", func(d *wireDecoder, b *BatchResponse) error { return d.bool(&b.Unavailable) }},
	}
)

// decodeBatchRequest is json.Unmarshal(data, req) without reflection:
// it fails on exactly the inputs Unmarshal fails on (trailing bytes
// included) and otherwise leaves req as Unmarshal would.
func decodeBatchRequest(data []byte, req *BatchRequest) error {
	return decodeWire(data, batchRequestFields, req)
}

// decodeBatchResponse is json.Unmarshal(data, resp), likewise.
func decodeBatchResponse(data []byte, resp *BatchResponse) error {
	return decodeWire(data, batchResponseFields, resp)
}

func decodeWire[T any](data []byte, fields []wireField[T], v *T) error {
	d := wireDecoder{data: data}
	d.space()
	if err := decodeObject(&d, fields, v); err != nil {
		return err
	}
	if d.space(); d.pos < len(d.data) {
		return d.errorf("data after the top-level value")
	}
	return nil
}

// maxWireDepth is encoding/json's nesting limit: the 10 001st open
// bracket is an error.
const maxWireDepth = 10000

// wireDecoder is a cursor over one JSON text. Every value method
// starts at the value's first byte and leaves pos just past its last.
type wireDecoder struct {
	data  []byte
	pos   int
	depth int    // brackets open at pos
	tmp   []byte // unquoted text of the last string that needed rewriting
}

func (d *wireDecoder) errorf(format string, args ...any) error {
	return fmt.Errorf("wire: offset %d: %s", d.pos, fmt.Sprintf(format, args...))
}

func (d *wireDecoder) space() {
	for d.pos < len(d.data) {
		if c := d.data[d.pos]; c != ' ' && c != '\n' && c != '\t' && c != '\r' {
			return
		}
		d.pos++
	}
}

// consume steps over c if it is the next byte.
func (d *wireDecoder) consume(c byte) bool {
	if d.pos < len(d.data) && d.data[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

// literal steps over lit if the text continues with it. A longer word
// (nullx) is caught by whoever looks for the next delimiter.
func (d *wireDecoder) literal(lit string) bool {
	if len(d.data)-d.pos >= len(lit) && string(d.data[d.pos:d.pos+len(lit)]) == lit {
		d.pos += len(lit)
		return true
	}
	return false
}

// each walks a container — an object's members or an array's elements
// — calling item at the start of every one. It owns the brackets, the
// commas and the depth limit, for both schemas and for skipped values.
func (d *wireDecoder) each(opening, closing byte, item func() error) error {
	if !d.consume(opening) {
		return d.errorf("want %q", opening)
	}
	if d.depth++; d.depth > maxWireDepth {
		return d.errorf("exceeded max depth")
	}
	d.space()
	for first := true; !d.consume(closing); first = false {
		if !first && !d.consume(',') {
			return d.errorf("want ',' or %q", closing)
		}
		d.space()
		if err := item(); err != nil {
			return err
		}
		d.space()
	}
	d.depth--
	return nil
}

// decodeObject decodes the next value into v the way encoding/json
// decodes into a struct: null leaves v alone; an object sets, member by
// member in input order, the field whose key matches exactly or else
// under Unicode case folding, on top of what v already holds, and
// validates and skips members no field claims; anything else is an
// error. A nil schema skips a whole object.
func decodeObject[T any](d *wireDecoder, fields []wireField[T], v *T) error {
	if d.literal("null") {
		return nil
	}
	// Members nearly always arrive in schema order, so the search for
	// each key starts where the previous one matched.
	next := 0
	return d.each('{', '}', func() error {
		key, err := d.string()
		if err != nil {
			return err
		}
		if d.space(); !d.consume(':') {
			return d.errorf("want ':' after object key")
		}
		d.space()
		f := findField(fields, key, next)
		if f < 0 {
			return d.skip()
		}
		next = f + 1
		return fields[f].set(d, v)
	})
}

func findField[T any](fields []wireField[T], key []byte, hint int) int {
	if hint < len(fields) && string(key) == fields[hint].key {
		return hint
	}
	for i := range fields {
		if string(key) == fields[i].key {
			return i
		}
	}
	for i := range fields {
		if bytes.EqualFold(key, []byte(fields[i].key)) {
			return i
		}
	}
	return -1
}

// decodeSlice decodes the next value into *p the way encoding/json
// decodes into a slice of structs: null makes it nil; an array decodes
// element i on top of whatever the slice's backing array already holds
// at i (zero beyond its capacity), truncates to the count read, and
// turns zero elements into a fresh empty slice.
func decodeSlice[T any](d *wireDecoder, fields []wireField[T], p *[]T) error {
	if d.literal("null") {
		*p = nil
		return nil
	}
	s, n := *p, 0
	err := d.each('[', ']', func() error {
		if n >= cap(s) {
			var zero T
			s = append(s[:n], zero)
		} else if n >= len(s) {
			s = s[:n+1]
		}
		n++
		return decodeObject(d, fields, &s[n-1])
	})
	if err != nil {
		return err
	}
	if n == 0 {
		s = []T{}
	}
	*p = s[:n]
	return nil
}

// skip validates and steps over one value of any type.
func (d *wireDecoder) skip() error {
	if d.pos == len(d.data) {
		return d.errorf("unexpected end of input")
	}
	switch d.data[d.pos] {
	case '{':
		return decodeObject[struct{}](d, nil, nil)
	case '[':
		return d.each('[', ']', d.skip)
	case '"':
		_, err := d.string()
		return err
	case 't', 'f', 'n':
		if d.literal("true") || d.literal("false") || d.literal("null") {
			return nil
		}
		return d.errorf("invalid literal")
	}
	_, _, err := d.number()
	return err
}

// string reads a JSON string and returns its text. Bytes needing no
// rewriting are returned as a slice of the input; otherwise the text is
// built in d.tmp and stays valid until the next rewritten string.
// Escapes are resolved and invalid UTF-8 (lone surrogate escapes
// included) becomes U+FFFD, as in encoding/json.
func (d *wireDecoder) string() ([]byte, error) {
	if !d.consume('"') {
		return nil, d.errorf("want a string")
	}
	for i := d.pos; i < len(d.data); {
		c := d.data[i]
		switch {
		case c == '"':
			text := d.data[d.pos:i]
			d.pos = i + 1
			return text, nil
		case c == '\\' || c < ' ':
			return d.unquote(i)
		case c < utf8.RuneSelf:
			i++
		default:
			r, size := utf8.DecodeRune(d.data[i:])
			if r == utf8.RuneError && size == 1 {
				return d.unquote(i)
			}
			i += size
		}
	}
	d.pos = len(d.data)
	return nil, d.errorf("unterminated string")
}

// unquote finishes string from the first byte, at i, that cannot be
// returned in place; data[pos:i] is the clean prefix.
func (d *wireDecoder) unquote(i int) ([]byte, error) {
	d.tmp = append(d.tmp[:0], d.data[d.pos:i]...)
	for d.pos = i; d.pos < len(d.data); {
		c := d.data[d.pos]
		switch {
		case c == '"':
			d.pos++
			return d.tmp, nil
		case c < ' ':
			return nil, d.errorf("control byte in string")
		case c == '\\':
			if err := d.escape(); err != nil {
				return nil, err
			}
		case c < utf8.RuneSelf:
			d.tmp = append(d.tmp, c)
			d.pos++
		default:
			r, size := utf8.DecodeRune(d.data[d.pos:])
			d.tmp = utf8.AppendRune(d.tmp, r)
			d.pos += size
		}
	}
	return nil, d.errorf("unterminated string")
}

// escape resolves the escape sequence at pos into d.tmp.
func (d *wireDecoder) escape() error {
	if d.pos+1 >= len(d.data) {
		return d.errorf("unterminated string")
	}
	c := d.data[d.pos+1]
	switch c {
	case '"', '\\', '/':
	case 'b':
		c = '\b'
	case 'f':
		c = '\f'
	case 'n':
		c = '\n'
	case 'r':
		c = '\r'
	case 't':
		c = '\t'
	case 'u':
		r := hex4(d.data[d.pos:])
		if r < 0 {
			return d.errorf("invalid \\u escape")
		}
		d.pos += 6
		if utf16.IsSurrogate(r) {
			// A high surrogate pairs with a low one right behind it;
			// anything else leaves one U+FFFD and is read on its own.
			if pair := utf16.DecodeRune(r, hex4(d.data[d.pos:])); pair != unicode.ReplacementChar {
				d.pos += 6
				r = pair
			} else {
				r = unicode.ReplacementChar
			}
		}
		d.tmp = utf8.AppendRune(d.tmp, r)
		return nil
	default:
		return d.errorf("invalid escape")
	}
	d.tmp = append(d.tmp, c)
	d.pos += 2
	return nil
}

// hex4 returns the code unit of a \uXXXX escape at the start of s, or
// -1 if s does not start with one.
func hex4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	r, err := strconv.ParseUint(string(s[2:6]), 16, 16) // no sign, prefix or underscore in base 16
	if err != nil {
		return -1
	}
	return rune(r)
}

// number reads a number literal by the JSON grammar; integral reports
// that it has neither fraction nor exponent.
func (d *wireDecoder) number() (lit []byte, integral bool, err error) {
	start := d.pos
	d.consume('-')
	digits := func() bool {
		from := d.pos
		for d.pos < len(d.data) && '0' <= d.data[d.pos] && d.data[d.pos] <= '9' {
			d.pos++
		}
		return d.pos > from
	}
	if !d.consume('0') && !digits() {
		return nil, false, d.errorf("want a number")
	}
	integral = true
	if d.consume('.') {
		if integral = false; !digits() {
			return nil, false, d.errorf("want a digit after '.'")
		}
	}
	if d.consume('e') || d.consume('E') {
		if integral = false; !d.consume('+') {
			d.consume('-')
		}
		if !digits() {
			return nil, false, d.errorf("want a digit in the exponent")
		}
	}
	return d.data[start:d.pos], integral, nil
}

func (d *wireDecoder) str(p *string) error {
	if d.literal("null") {
		return nil
	}
	b, err := d.string()
	if err == nil {
		*p = string(b)
	}
	return err
}

func (d *wireDecoder) bool(p *bool) error {
	switch {
	case d.literal("null"):
	case d.literal("true"):
		*p = true
	case d.literal("false"):
		*p = false
	default:
		return d.errorf("want a boolean")
	}
	return nil
}

// decodeNumber stores a number literal as parse reads it; null leaves
// *p alone. With integral set, a fraction or exponent is a type error
// (3.0 is not an int), and so is anything parse refuses (range).
func decodeNumber[T any](d *wireDecoder, p *T, integral bool, parse func([]byte) (T, error)) error {
	if d.literal("null") {
		return nil
	}
	lit, isInt, err := d.number()
	if err != nil {
		return err
	}
	n, err := parse(lit)
	if err != nil || integral && !isInt {
		return d.errorf("number %s does not fit a %T", lit, n)
	}
	*p = n
	return nil
}

// The conversions stay in direct calls so that string(b) stays off the
// heap.
func atoi(b []byte) (int, error)       { return strconv.Atoi(string(b)) }
func atoi64(b []byte) (int64, error)   { return strconv.ParseInt(string(b), 10, 64) }
func atou64(b []byte) (uint64, error)  { return strconv.ParseUint(string(b), 10, 64) }
func atof64(b []byte) (float64, error) { return strconv.ParseFloat(string(b), 64) }

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
