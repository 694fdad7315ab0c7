package model

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// The wire grammar of one gateway delivery (POST /ingest) is the JSON
// document
//
//	{"time": 123, "readings": [{"Object": 1, "Reader": 2, "Time": 123}, ...]}
//
// decoded here by hand. A delivery of a few thousand readings is the largest
// thing the server parses, and the reflection-driven decoder spent more time
// on it than the engine spent ingesting it. The scanner accepts exactly what
// encoding/json accepts for these two struct types, and stores what it
// stores: keys in any order and any letter case, whitespace between tokens,
// unknown keys skipped (their values still have to be well-formed JSON),
// null leaving a field as it was, a repeated key decoded over the earlier
// one, integers checked against the field's range. A fraction, an exponent,
// a string or a boolean where an integer belongs is an error, and so is
// anything but whitespace after the closing brace. A reading spelled exactly
// as json.Marshal writes one is decoded by a straight-line pass (canonical)
// that hands anything else back to the general loop. FuzzBatchDecode holds the
// scanner and encoding/json equal on a method-less copy of the types; the one
// thing done differently on purpose is stated at UnmarshalJSON.

// maxWireDepth is the deepest nesting of arrays and objects a delivery may
// contain, the limit encoding/json applies.
const maxWireDepth = 10000

// The field names of a delivery and of a reading, as encoding/json sees them.
var (
	batchKeys   = []string{"time", "readings"}
	readingKeys = []string{"Object", "Reader", "Time"}
)

// UnmarshalJSON decodes one delivery document into b. Like encoding/json it
// decodes over what b already holds: a field the document omits keeps its
// value, and readings are decoded into the memory of b.Readings, over the
// elements within its length. Unlike encoding/json, an element past the
// length starts from zero, so a caller reuses a slice by truncating it.
func (b *Batch) UnmarshalJSON(data []byte) error {
	s := wireScan{data: data}
	if err := s.batch(b); err != nil {
		return err
	}
	if s.token(); s.i < len(data) {
		return s.fail("data after the delivery document")
	}
	return nil
}

// wireScan is a cursor over one document.
type wireScan struct {
	data []byte
	i    int
}

func (s *wireScan) fail(msg string) error {
	return fmt.Errorf("model: delivery JSON: %s at offset %d", msg, s.i)
}

// token skips whitespace and returns the byte the cursor then rests on,
// 0 at the end of the document (a NUL byte begins no token either).
func (s *wireScan) token() byte {
	if s.i < len(s.data) && s.data[s.i] > ' ' {
		return s.data[s.i] // no whitespace to skip: the usual case, kept inlinable
	}
	return s.skipSpace()
}

func (s *wireScan) skipSpace() byte {
	for ; s.i < len(s.data); s.i++ {
		if c := s.data[s.i]; c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return c
		}
	}
	return 0
}

// literal consumes the given keyword.
func (s *wireScan) literal(word string) error {
	if !bytes.HasPrefix(s.data[s.i:], []byte(word)) {
		return s.fail("want " + word)
	}
	s.i += len(word)
	return nil
}

// member moves to the next member of the object the cursor is inside, first
// telling whether it is the one right after the opening brace. It returns
// the member's key with the cursor on the member's value, or end once the
// closing brace is consumed.
func (s *wireScan) member(first bool) (key []byte, end bool, err error) {
	c := s.token()
	switch {
	case c == '}':
		s.i++
		return nil, true, nil
	case first:
	case c == ',':
		s.i++
		c = s.token()
	default:
		return nil, false, s.fail("want , or } after an object member")
	}
	if c != '"' {
		return nil, false, s.fail("want an object key")
	}
	key, escaped, err := s.str()
	if err != nil {
		return nil, false, err
	}
	if escaped {
		key = unescapeKey(key)
	}
	if s.token() != ':' {
		return nil, false, s.fail("want : after an object key")
	}
	s.i++
	return key, false, nil
}

// element moves to the next element of the array the cursor is inside and
// reports whether there is one; the closing bracket is consumed when not.
func (s *wireScan) element(first bool) (more bool, err error) {
	c := s.token()
	switch {
	case c == ']':
		s.i++
		return false, nil
	case first:
		return true, nil
	case c == ',':
		s.i++
		if s.token() == ']' {
			return false, s.fail("want a value after ,")
		}
		return true, nil
	}
	return false, s.fail("want , or ] after an array element")
}

// str consumes the string the cursor rests on and returns the bytes between
// its quotes, still escaped; escaped tells whether any escape occurs.
func (s *wireScan) str() (raw []byte, escaped bool, err error) {
	data, start := s.data, s.i+1
	for j := start; j < len(data); j++ {
		c := data[j]
		if c == '"' {
			s.i = j + 1
			return data[start:j], escaped, nil
		}
		if c != '\\' && c >= 0x20 {
			continue
		}
		if s.i = j; c != '\\' {
			return nil, false, s.fail("control character in a string")
		}
		escaped = true
		j++
		switch {
		case j == len(data):
		case data[j] == 'u' && hex4(data[j+1:]) >= 0:
			j += 4
		case strings.IndexByte(`"\/bfnrt`, data[j]) < 0:
			return nil, false, s.fail("unknown string escape")
		}
	}
	s.i = len(data)
	return nil, false, s.fail("unterminated string")
}

// hex4 decodes the four hex digits p begins with, -1 when it does not.
func hex4(p []byte) rune {
	if len(p) < 4 {
		return -1
	}
	var r rune
	for _, c := range p[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// unescapeKey resolves the escapes of a validated object key, as far as
// matching it against a field name needs: surrogate halves become U+FFFD
// one by one, since no rune outside the basic plane folds to a letter of a
// field name.
func unescapeKey(raw []byte) []byte {
	out := make([]byte, 0, len(raw))
	for i := 0; i < len(raw); i++ {
		c := raw[i]
		if c != '\\' {
			out = append(out, c)
			continue
		}
		i++
		switch raw[i] {
		case 'b':
			out = append(out, '\b')
		case 'f':
			out = append(out, '\f')
		case 'n':
			out = append(out, '\n')
		case 'r':
			out = append(out, '\r')
		case 't':
			out = append(out, '\t')
		case 'u':
			out = utf8.AppendRune(out, hex4(raw[i+1:]))
			i += 4
		default: // " \ /
			out = append(out, raw[i])
		}
	}
	return out
}

// keyIndex returns the index in names of the field key selects — spelled
// exactly, or under Unicode case folding as encoding/json falls back to —
// and -1 when it selects none. guess is tried first: a canonical document's
// nth key is the nth name.
func keyIndex(key []byte, names []string, guess int) int {
	if guess < len(names) && string(key) == names[guess] {
		return guess
	}
	for i, name := range names {
		if string(key) == name {
			return i
		}
	}
	for i, name := range names {
		if bytes.EqualFold(key, []byte(name)) {
			return i
		}
	}
	return -1
}

// integer consumes the number the cursor rests on as an int64.
func (s *wireScan) integer() (int64, error) {
	data, j := s.data, s.i
	neg := data[j] == '-'
	if neg {
		j++
	}
	first := j
	var n uint64
	for ; j < len(data) && data[j]-'0' <= 9; j++ {
		n = n*10 + uint64(data[j]-'0')
	}
	switch digits := j - first; {
	case digits == 0:
		return 0, s.fail("want an integer")
	case digits > 1 && data[first] == '0':
		return 0, s.fail("integer with a leading zero")
	case j < len(data) && (data[j] == '.' || data[j] == 'e' || data[j] == 'E'):
		return 0, s.fail("want an integer, not a fraction or an exponent")
	case digits > 18:
		// n may have wrapped; leave the range check to strconv.
		v, err := strconv.ParseInt(string(data[s.i:j]), 10, 64)
		if err != nil {
			return 0, s.fail("integer out of range")
		}
		s.i = j
		return v, nil
	}
	s.i = j
	if neg {
		return -int64(n), nil
	}
	return int64(n), nil
}

// intField consumes the value of an integer field, of Go type int when
// asInt is set and int64 otherwise; set is false for null, which leaves the
// field as it was.
func (s *wireScan) intField(asInt bool) (v int64, set bool, err error) {
	switch c := s.token(); {
	case c == 'n':
		return 0, false, s.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		v, err = s.integer()
		if err == nil && asInt && int64(int(v)) != v {
			err = s.fail("integer out of range")
		}
		return v, err == nil, err
	}
	return 0, false, s.fail("want an integer")
}

func (s *wireScan) batch(b *Batch) error {
	switch s.token() {
	case 'n':
		return s.literal("null")
	case '{':
		s.i++
	default:
		return s.fail("want a delivery object")
	}
	for n := 0; ; n++ {
		key, end, err := s.member(n == 0)
		if err != nil || end {
			return err
		}
		switch keyIndex(key, batchKeys, n) {
		case 0:
			var v int64
			var set bool
			if v, set, err = s.intField(false); set {
				b.Time = Time(v)
			}
		case 1:
			err = s.readings(b)
		default:
			err = s.skip(1)
		}
		if err != nil {
			return err
		}
	}
}

func (s *wireScan) readings(b *Batch) error {
	switch s.token() {
	case 'n':
		b.Readings = nil
		return s.literal("null")
	case '[':
		s.i++
	default:
		return s.fail("want an array of readings")
	}
	rs := b.Readings
	n := 0
	for ; ; n++ {
		more, err := s.element(n == 0)
		if err != nil {
			return err
		}
		if !more {
			break
		}
		switch {
		case n < len(rs):
		case n < cap(rs):
			rs = rs[:n+1]
			rs[n] = RawReading{}
		case cap(rs) == 0:
			// First growth: size the slice from what is left of the document
			// (a reading with its three fields takes 32 bytes or more), so
			// the usual delivery is one allocation, not a dozen doublings.
			rs = make([]RawReading, 1, (len(s.data)-s.i)/32+1)
		default:
			rs = append(rs, RawReading{})
		}
		if s.canonical(&rs[n]) {
			continue
		}
		if err := s.reading(&rs[n]); err != nil {
			return err
		}
	}
	if n == 0 {
		rs = []RawReading{}
	}
	b.Readings = rs[:n]
	return nil
}

// canonical decodes the reading the cursor rests on if it is spelled the
// way json.Marshal writes one, {"Object":1,"Reader":2,"Time":3}, with no
// whitespace and no integer longer than 18 digits, and reports whether it
// was. Everything it accepts, reading accepts and decodes to the same
// value; on the first byte that differs it returns false with neither the
// cursor nor r moved, and reading takes the reading from its opening brace,
// so every other spelling and every error is reading's.
func (s *wireScan) canonical(r *RawReading) bool {
	obj, j, ok := canonicalField(s.data, s.i, `{"Object":`)
	if !ok || int64(int(obj)) != obj {
		return false
	}
	rd, j, ok := canonicalField(s.data, j, `,"Reader":`)
	if !ok || int64(int(rd)) != rd {
		return false
	}
	t, j, ok := canonicalField(s.data, j, `,"Time":`)
	if !ok || j == len(s.data) || s.data[j] != '}' {
		return false
	}
	*r = RawReading{Object: ObjectID(obj), Reader: ReaderID(rd), Time: Time(t)}
	s.i = j + 1
	return true
}

// canonicalField matches key at data[j:] and the integer after it, by
// integer's rules: an optional minus, then 1 to 18 digits without a leading
// zero. It returns the integer and the offset past it. A longer integer, a
// fraction or an exponent leaves a digit, '.', 'e' or 'E' after the offset
// returned, where canonical wants the next key or the closing brace.
func canonicalField(data []byte, j int, key string) (v int64, next int, ok bool) {
	if len(data)-j < len(key) || string(data[j:j+len(key)]) != key {
		return 0, j, false
	}
	j += len(key)
	neg := j < len(data) && data[j] == '-'
	if neg {
		j++
	}
	first := j
	for ; j < len(data) && j-first < 18 && data[j]-'0' <= 9; j++ {
		v = v*10 + int64(data[j]-'0')
	}
	if digits := j - first; digits == 0 || digits > 1 && data[first] == '0' {
		return 0, j, false
	}
	if neg {
		v = -v
	}
	return v, j, true
}

func (s *wireScan) reading(r *RawReading) error {
	switch s.token() {
	case 'n':
		return s.literal("null")
	case '{':
		s.i++
	default:
		return s.fail("want a reading object")
	}
	for n := 0; ; n++ {
		key, end, err := s.member(n == 0)
		if err != nil || end {
			return err
		}
		var v int64
		var set bool
		switch keyIndex(key, readingKeys, n) {
		case 0:
			if v, set, err = s.intField(true); set {
				r.Object = ObjectID(v)
			}
		case 1:
			if v, set, err = s.intField(true); set {
				r.Reader = ReaderID(v)
			}
		case 2:
			if v, set, err = s.intField(false); set {
				r.Time = Time(v)
			}
		default:
			err = s.skip(3)
		}
		if err != nil {
			return err
		}
	}
}

// skip consumes any well-formed JSON value; depth is the number of arrays
// and objects the value is nested inside.
func (s *wireScan) skip(depth int) error {
	switch c := s.token(); {
	case c == '"':
		_, _, err := s.str()
		return err
	case c == 't':
		return s.literal("true")
	case c == 'f':
		return s.literal("false")
	case c == 'n':
		return s.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		return s.number()
	case c != '{' && c != '[':
		return s.fail("want a value")
	case depth >= maxWireDepth:
		return s.fail("nesting too deep")
	case c == '{':
		s.i++
		for first := true; ; first = false {
			_, end, err := s.member(first)
			if err != nil || end {
				return err
			}
			if err := s.skip(depth + 1); err != nil {
				return err
			}
		}
	default:
		s.i++
		for first := true; ; first = false {
			more, err := s.element(first)
			if err != nil || !more {
				return err
			}
			if err := s.skip(depth + 1); err != nil {
				return err
			}
		}
	}
}

// number consumes any JSON number.
func (s *wireScan) number() error {
	digits := func() int {
		start := s.i
		for s.i < len(s.data) && '0' <= s.data[s.i] && s.data[s.i] <= '9' {
			s.i++
		}
		return s.i - start
	}
	if s.data[s.i] == '-' {
		s.i++
	}
	first := s.i
	switch n := digits(); {
	case n == 0:
		return s.fail("want a digit")
	case n > 1 && s.data[first] == '0':
		s.i = first + 1
		return s.fail("number with a leading zero")
	}
	if s.i < len(s.data) && s.data[s.i] == '.' {
		s.i++
		if digits() == 0 {
			return s.fail("want a digit after the decimal point")
		}
	}
	if s.i < len(s.data) && (s.data[s.i] == 'e' || s.data[s.i] == 'E') {
		s.i++
		if s.i < len(s.data) && (s.data[s.i] == '+' || s.data[s.i] == '-') {
			s.i++
		}
		if digits() == 0 {
			return s.fail("want a digit in the exponent")
		}
	}
	return nil
}
