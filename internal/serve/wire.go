package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
)

// The wire layer: the float arrays of the served routes (the b and batch of a
// solve, the diag and vals of a PATCH, the x of every answer) are scanned and
// printed here by hand, in one pass over the body. Everything else on those
// routes (short scalars, a config object) and every other route stays with
// encoding/json. SolveRequest, UpdateRequest and SolveResponse keep their
// struct tags: encoding/json on the same type is the oracle the fuzz targets
// and TestAppendSolveResponseMatchesEncodingJSON compare this file against,
// down to its corners (a repeated key, a null inside an array). The types carry
// no UnmarshalJSON/MarshalJSON on purpose: encoding/json scans a value to its
// end before it calls the method, which costs most of what the method saves.

// maxDepth is encoding/json's nesting limit; the same inputs fail here.
const maxDepth = 10000

// DecodeSolveRequest decodes the first JSON value of data into req. It accepts
// what json.NewDecoder(bytes.NewReader(data)).Decode(req) accepts and leaves
// req as that call leaves it; bytes after the first value are ignored.
func DecodeSolveRequest(data []byte, req *SolveRequest) error {
	s := scanner{data: data}
	return s.top(func(key []byte) error {
		switch field(key, "b", "batch", "rhs", "timeoutMs", "omitX") {
		case "b":
			return s.floats(&req.B)
		case "batch":
			return s.rows(&req.Batch)
		case "rhs":
			return s.cold(&req.RHS)
		case "timeoutMs":
			return s.cold(&req.TimeoutMs)
		case "omitX":
			return s.cold(&req.OmitX)
		}
		return s.skip()
	})
}

// DecodeUpdateRequest is DecodeSolveRequest for the body of a PATCH.
func DecodeUpdateRequest(data []byte, req *UpdateRequest) error {
	s := scanner{data: data}
	return s.top(func(key []byte) error {
		switch field(key, "id", "diag", "vals", "gen", "n", "entries", "config") {
		case "id":
			return s.cold(&req.ID)
		case "diag":
			return s.floats(&req.Diag)
		case "vals":
			return s.floats(&req.Vals)
		case "gen":
			return s.cold(&req.Gen)
		case "n":
			return s.cold(&req.N)
		case "entries":
			return s.cold(&req.Entries)
		case "config":
			return s.cold(&req.Config)
		}
		return s.skip()
	})
}

// field returns the one of names that key selects the way encoding/json
// selects a struct field: the exact name, else the first that is equal under
// Unicode case folding ("" when none is).
func field(key []byte, names ...string) string {
	for _, n := range names {
		if string(key) == n {
			return n
		}
	}
	for _, n := range names {
		if bytes.EqualFold(key, []byte(n)) {
			return n
		}
	}
	return ""
}

// scanner is a cursor over one JSON text.
type scanner struct {
	data  []byte
	pos   int
	depth int // open objects and arrays around the cursor
}

// errorf describes the byte at the cursor as a syntax error.
func (s *scanner) errorf(context string) error {
	if s.pos >= len(s.data) {
		return io.ErrUnexpectedEOF
	}
	return fmt.Errorf("invalid character %q %s (offset %d)", s.data[s.pos], context, s.pos)
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }

func (s *scanner) ws() {
	for s.pos < len(s.data) && isSpace(s.data[s.pos]) {
		s.pos++
	}
}

// at reports whether the byte at the cursor is c.
func (s *scanner) at(c byte) bool { return s.pos < len(s.data) && s.data[s.pos] == c }

// eat consumes c when it is the byte at the cursor.
func (s *scanner) eat(c byte) bool {
	if s.at(c) {
		s.pos++
		return true
	}
	return false
}

// lit consumes word when the text at the cursor starts with it.
func (s *scanner) lit(word string) bool {
	if bytes.HasPrefix(s.data[s.pos:], []byte(word)) {
		s.pos += len(word)
		return true
	}
	return false
}

// next consumes the separator after an element of a container closed by
// closer and reports whether another element follows.
func (s *scanner) next(closer byte, context string) (more bool, err error) {
	s.ws()
	switch {
	case s.eat(','):
		s.ws()
		return true, nil
	case s.eat(closer):
		return false, nil
	}
	return false, s.errorf(context)
}

// top decodes the first value of the text: an object, whose members go to
// member one by one, or a null, which encoding/json takes into a struct as
// nothing to do.
func (s *scanner) top(member func(key []byte) error) error {
	s.ws()
	switch {
	case s.at('{'):
		return s.object(member)
	case s.lit("null"):
		return nil
	}
	return s.errorf("looking for a JSON object")
}

// enter opens one nesting level on the opening bracket at the cursor.
func (s *scanner) enter() error {
	if s.depth++; s.depth > maxDepth {
		return errors.New("exceeded max depth")
	}
	s.pos++
	s.ws()
	return nil
}

// object walks the object at the cursor. For each member it calls member with
// the unquoted key and the cursor on the first byte of the value; member
// consumes exactly that value. A repeated key is simply seen again.
func (s *scanner) object(member func(key []byte) error) error {
	if err := s.enter(); err != nil {
		return err
	}
	for more := !s.eat('}'); more; {
		if !s.at('"') {
			return s.errorf("looking for beginning of object key string")
		}
		key, err := s.key()
		if err != nil {
			return err
		}
		s.ws()
		if !s.eat(':') {
			return s.errorf("after object key")
		}
		s.ws()
		if err := member(key); err != nil {
			return err
		}
		if more, err = s.next('}', "after object key:value pair"); err != nil {
			return err
		}
	}
	s.depth--
	return nil
}

// key consumes the string at the cursor and returns its value.
func (s *scanner) key() ([]byte, error) {
	start := s.pos
	raw, escaped, err := s.str()
	if err != nil || !escaped {
		return raw, err
	}
	var k string
	err = json.Unmarshal(s.data[start:s.pos], &k)
	return []byte(k), err
}

// str consumes the string at the cursor and returns the bytes between its
// quotes; escaped reports whether they hold a backslash escape.
func (s *scanner) str() (raw []byte, escaped bool, err error) {
	d := s.data
	for i := s.pos + 1; i < len(d); i++ {
		switch c := d[i]; {
		case c == '"':
			raw, s.pos = d[s.pos+1:i], i+1
			return raw, escaped, nil
		case c < 0x20:
			s.pos = i
			return nil, false, s.errorf("in string literal")
		case c == '\\':
			escaped = true
			if i++; i >= len(d) {
				return nil, false, io.ErrUnexpectedEOF
			}
			switch d[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for k := 0; k < 4; k++ {
					if i++; i >= len(d) || !isHex(d[i]) {
						s.pos = i
						return nil, false, s.errorf("in \\u hexadecimal character escape")
					}
				}
			default:
				s.pos = i
				return nil, false, s.errorf("in string escape code")
			}
		}
	}
	return nil, false, io.ErrUnexpectedEOF
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// digits returns the index after the run of decimal digits that starts at i.
func (s *scanner) digits(i int) int {
	for i < len(s.data) && '0' <= s.data[i] && s.data[i] <= '9' {
		i++
	}
	return i
}

// number consumes the number at the cursor, checked against the RFC 8259
// grammar (strconv.ParseFloat alone also takes Inf, 0x1p3, 1_0, +1 and .5),
// and returns its text.
func (s *scanner) number() ([]byte, error) {
	d, i := s.data, s.pos
	if i < len(d) && d[i] == '-' {
		i++
	}
	j := s.digits(i)
	if j == i {
		s.pos = i
		return nil, s.errorf("in numeric literal")
	}
	if d[i] == '0' {
		j = i + 1 // a leading zero is the whole integer part: a digit after it trips the caller
	}
	i = j
	if i < len(d) && d[i] == '.' {
		if j = s.digits(i + 1); j == i+1 {
			s.pos = j
			return nil, s.errorf("after decimal point in numeric literal")
		}
		i = j
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if j = s.digits(i); j == i {
			s.pos = j
			return nil, s.errorf("in exponent of numeric literal")
		}
		i = j
	}
	tok := d[s.pos:i]
	s.pos = i
	return tok, nil
}

// skip consumes the value at the cursor and checks its syntax: an unknown key
// is ignored, a malformed value under it is still an error.
func (s *scanner) skip() error {
	if s.pos >= len(s.data) {
		return io.ErrUnexpectedEOF
	}
	switch c := s.data[s.pos]; {
	case c == '{':
		return s.object(func([]byte) error { return s.skip() })
	case c == '[':
		if err := s.enter(); err != nil {
			return err
		}
		for more := !s.eat(']'); more; {
			err := s.skip()
			if err == nil {
				more, err = s.next(']', "after array element")
			}
			if err != nil {
				return err
			}
		}
		s.depth--
		return nil
	case c == '"':
		_, _, err := s.str()
		return err
	case c == '-' || '0' <= c && c <= '9':
		_, err := s.number()
		return err
	case s.lit("true") || s.lit("false") || s.lit("null"):
		return nil
	}
	return s.errorf("looking for beginning of value")
}

// cold hands the value at the cursor to encoding/json: the scalar fields and
// the config object are tens of bytes and not worth hand code.
func (s *scanner) cold(field any) error {
	start := s.pos
	if err := s.skip(); err != nil {
		return err
	}
	return json.Unmarshal(s.data[start:s.pos], field)
}

// open consumes what every array field starts with. A null (the field becomes
// nil) and an empty array (empty, not nil) are done with; otherwise the cursor
// is on the first element and more is true.
func open[T any](s *scanner, p *[]T) (more bool, err error) {
	switch {
	case s.lit("null"):
		*p = nil
		return false, nil
	case !s.eat('['):
		return false, s.errorf("looking for an array")
	}
	if s.ws(); s.eat(']') {
		*p = []T{}
		return false, nil
	}
	return true, nil
}

// floats decodes the array of numbers (or the null) at the cursor into *p,
// allocated once at its exact size.
func (s *scanner) floats(p *[]float64) error {
	if more, err := open(s, p); !more {
		return err
	}
	end := bytes.IndexByte(s.data[s.pos:], ']')
	if end < 0 {
		return io.ErrUnexpectedEOF
	}
	n := bytes.Count(s.data[s.pos:s.pos+end], []byte{','}) + 1
	// encoding/json decodes a repeated key into the array the field already
	// has and a null element leaves what is there, so old numbers show
	// through the nulls; on the first occurrence there is nothing to keep.
	out := (*p)[:cap(*p)]
	if n > len(out) {
		out = make([]float64, n)
		copy(out, (*p)[:cap(*p)])
	}
	out = out[:n]
	for i := range out {
		if !s.lit("null") {
			tok, err := s.number()
			if err != nil {
				return err
			}
			if out[i], err = strconv.ParseFloat(string(tok), 64); err != nil {
				return err // out of range
			}
		}
		closer := byte(',')
		if i == n-1 {
			closer = ']'
		}
		s.ws()
		if !s.eat(closer) {
			return s.errorf("after array element")
		}
		s.ws()
	}
	*p = out
	return nil
}

// rows decodes the array of number arrays (or the null) at the cursor.
func (s *scanner) rows(p *[][]float64) error {
	if more, err := open(s, p); !more {
		return err
	}
	out, n := (*p)[:cap(*p)], 0 // old rows show through, as in floats
	for more := true; more; n++ {
		if n == len(out) {
			out = append(out, nil)
		}
		err := s.floats(&out[n])
		if err == nil {
			more, err = s.next(']', "after array element")
		}
		if err != nil {
			return err
		}
	}
	*p = out[:n]
	return nil
}

// AppendSolveResponse appends to buf the bytes json.NewEncoder(w).Encode(resp)
// writes, trailing newline included. A NaN or an infinity anywhere in resp is
// an error, as it is there.
func AppendSolveResponse(buf []byte, resp *SolveResponse) ([]byte, error) {
	buf, err := appendSolve(buf, resp)
	return append(buf, '\n'), err
}

// AppendBatchResponse is AppendSolveResponse for a batch.
func AppendBatchResponse(buf []byte, resp *BatchResponse) ([]byte, error) {
	if resp.Results == nil {
		return append(buf, "{\"results\":null}\n"...), nil
	}
	buf = append(buf, `{"results":[`...)
	for i := range resp.Results {
		if i > 0 {
			buf = append(buf, ',')
		}
		var err error
		if buf, err = appendSolve(buf, &resp.Results[i]); err != nil {
			return buf, err
		}
	}
	return append(buf, "]}\n"...), nil
}

// appendSolve writes one answer. The scalar head goes through encoding/json,
// so escaping, omitempty and the order of those fields have one source; x and
// error, the two fields after it, are appended by hand.
func appendSolve(buf []byte, resp *SolveResponse) ([]byte, error) {
	head := *resp
	head.X, head.Error = nil, ""
	h, err := json.Marshal(&head)
	if err != nil {
		return buf, err
	}
	buf = append(buf, h[:len(h)-1]...)
	if len(resp.X) > 0 {
		buf = append(buf, `,"x":[`...)
		for i, f := range resp.X {
			abs := math.Abs(f)
			if !(abs <= math.MaxFloat64) {
				return buf, fmt.Errorf("unsupported value x[%d] = %v", i, f)
			}
			if i > 0 {
				buf = append(buf, ',')
			}
			// encoding/json's float rule, so the bytes on the wire stay.
			if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
				buf = strconv.AppendFloat(buf, f, 'e', -1, 64)
				if n := len(buf); buf[n-4] == 'e' && buf[n-3] == '-' && buf[n-2] == '0' {
					buf[n-2] = buf[n-1] // e-09 is written e-9
					buf = buf[:n-1]
				}
			} else {
				buf = strconv.AppendFloat(buf, f, 'f', -1, 64)
			}
		}
		buf = append(buf, ']')
	}
	if resp.Error != "" {
		e, err := json.Marshal(resp.Error)
		if err != nil {
			return buf, err
		}
		buf = append(buf, `,"error":`...)
		buf = append(buf, e...)
	}
	return append(buf, '}'), nil
}
