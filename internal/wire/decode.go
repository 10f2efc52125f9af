package wire

import (
	"bytes"
	"encoding"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
)

// The one-pass request decoder. A request type whose fields are all of the
// kinds below is decoded from the body in one pass over bytes read once:
// an inline model (json.RawMessage) is checked against JSON's grammar in
// place and copied out, and numbers are read as the predict path reads
// them. It has no error texts: a body it does not take —
// another key or spelling of one, a duplicate, null, an escape in a
// string field, a number out of range, trailing data — goes, the same
// bytes, through decodeStream, the only author of decode errors. The
// invariant (FuzzDecodeMatchesJSON): whatever this accepts, encoding/json
// accepts, with bit-identical floats and byte-identical raw values.

// body is a request body read whole into a pooled buffer.
type body struct {
	*bytes.Buffer
	err error // what ended the read early, if anything
}

// readBody reads r's body once, behind the limits every decode shares:
// refused on its declared length before a byte of it is buffered, cut off
// at limit while streaming. The caller releases it.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) (body, error) {
	if err := declaredTooLarge(r, limit); err != nil {
		return body{}, err
	}
	b := body{Buffer: getBody()}
	_, b.err = b.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	return b, nil
}

func (b body) release() { putBody(b.Buffer) }

// replay sends the bytes that arrived, then the error that ended them,
// through decodeStream into v, which says why they are refused.
func (b body) replay(v any) error {
	return decodeStream(io.MultiReader(bytes.NewReader(b.Bytes()), failingReader{b.err}), v)
}

// failingReader ends a replayed body the way the original ended.
type failingReader struct{ err error }

func (f failingReader) Read([]byte) (int, error) {
	if f.err == nil {
		return 0, io.EOF
	}
	return 0, f.err
}

// fieldKind is a field type the one-pass decoder reads itself.
type fieldKind uint8

const (
	rawField    fieldKind = iota // json.RawMessage: any JSON value but null
	vectorField                  // []float64
	matrixField                  // [][]float64
	floatField                   // float64
	intField                     // int, int64: an integer literal in range
	stringField                  // string: plain ASCII, no escapes
)

var kinds = map[reflect.Type]fieldKind{
	reflect.TypeOf(json.RawMessage(nil)): rawField,
	reflect.TypeOf([]float64(nil)):       vectorField,
	reflect.TypeOf([][]float64(nil)):     matrixField,
	reflect.TypeOf(float64(0)):           floatField,
	reflect.TypeOf(int(0)):               intField,
	reflect.TypeOf(int64(0)):             intField,
	reflect.TypeOf(""):                   stringField,
}

// field is one entry of a request type's table.
type field struct {
	key   string // the JSON name, quoted
	index int    // in the struct
	kind  fieldKind
}

// plan is the field table of one request type; nil for a type the
// one-pass decoder does not read, which keeps the streaming decode.
type plan struct {
	fields []field
}

// plans holds each request type's plan, computed on its first request.
var plans sync.Map // reflect.Type → *plan

func planFor(v any) *plan {
	t := reflect.TypeOf(v)
	if p, ok := plans.Load(t); ok {
		return p.(*plan)
	}
	p, _ := plans.LoadOrStore(t, newPlan(t))
	return p.(*plan)
}

var (
	jsonUnmarshaler = reflect.TypeOf((*json.Unmarshaler)(nil)).Elem()
	textUnmarshaler = reflect.TypeOf((*encoding.TextUnmarshaler)(nil)).Elem()
)

// newPlan tables t, a pointer to a struct whose exported fields are all of
// a kind above, named by a plain tag or by the field, at most 64 of them,
// no two alike; for any other t it returns nil. A type that unmarshals
// itself, or embeds a struct, is encoding/json's alone.
func newPlan(t reflect.Type) *plan {
	if t == nil || t.Kind() != reflect.Pointer || t.Implements(jsonUnmarshaler) || t.Implements(textUnmarshaler) {
		return nil
	}
	st := t.Elem()
	if st.Kind() != reflect.Struct || st.NumField() > 64 {
		return nil
	}
	p := &plan{}
	names := map[string]bool{}
	for i := 0; i < st.NumField(); i++ {
		sf := st.Field(i)
		if sf.Anonymous {
			return nil
		}
		if !sf.IsExported() {
			continue
		}
		name, ok := jsonName(sf)
		kind, known := kinds[sf.Type]
		if !ok || !known || names[name] {
			return nil
		}
		names[name] = true
		p.fields = append(p.fields, field{key: `"` + name + `"`, index: i, kind: kind})
	}
	return p
}

// jsonName is the name encoding/json reads sf under, when that is plain:
// letters, digits and underscores, with no option but omitempty.
func jsonName(sf reflect.StructField) (string, bool) {
	name, opts, _ := strings.Cut(sf.Tag.Get("json"), ",")
	if opts != "" && opts != "omitempty" {
		return "", false
	}
	if name == "" {
		name = sf.Name
	}
	for _, c := range []byte(name) {
		if !(c == '_' || c-'0' <= 9 || (c|0x20)-'a' <= 'z'-'a') {
			return "", false
		}
	}
	return name, true
}

// decode reads data into v, which p tables, in one pass, setting only the
// fields the body names, as encoding/json leaves a field the body does not
// name as it was. False means encoding/json must read data instead; v may
// then hold some of the fields the body names, each of which encoding/json
// sets again from the same key before it can succeed.
func (p *plan) decode(data []byte, v any) bool {
	s := scanner{data: data}
	if !s.eat('{') {
		return false
	}
	dst := reflect.ValueOf(v).Elem()
	var seen uint64
	for first := true; !s.eat('}'); first = false {
		if !first && !s.eat(',') {
			return false
		}
		s.space()
		i := s.key(p.fields)
		if i < 0 || seen&(1<<i) != 0 || !s.eat(':') {
			return false
		}
		seen |= 1 << i
		s.space()
		if !s.value(dst.Field(p.fields[i].index), p.fields[i].kind) {
			return false
		}
	}
	s.space()
	return s.pos == len(data)
}

// key consumes the quoted key of one of fields, exactly as tabled, and
// returns its index; -1 if the text holds none of them.
func (s *scanner) key(fields []field) int {
	for i := range fields {
		if s.literal(fields[i].key) {
			return i
		}
	}
	return -1
}

// value reads one value of kind into f.
func (s *scanner) value(f reflect.Value, kind fieldKind) bool {
	switch kind {
	case rawField:
		start := s.pos
		if s.pos >= len(s.data) || s.data[s.pos] == 'n' || !s.skipValue(1) {
			return false
		}
		*f.Addr().Interface().(*json.RawMessage) = append(json.RawMessage(nil), s.data[start:s.pos]...)
	case vectorField:
		if !s.eat('[') {
			return false
		}
		n, _ := s.bound()
		vec, ok := s.row(make([]float64, 0, n))
		if !ok {
			return false
		}
		*f.Addr().Interface().(*[]float64) = vec
	case matrixField:
		rows, ok := s.matrix()
		if !ok {
			return false
		}
		*f.Addr().Interface().(*[][]float64) = rows
	case floatField:
		x, ok := s.number()
		if !ok {
			return false
		}
		f.SetFloat(x)
	case intField:
		n, ok := s.integer()
		if !ok || f.OverflowInt(n) {
			return false
		}
		f.SetInt(n)
	case stringField:
		str, ok := s.plainString()
		if !ok {
			return false
		}
		f.SetString(str)
	}
	return true
}

// integer reads an integer literal that fits an int64, as
// strconv.ParseInt reads what encoding/json hands it: no fraction, no
// exponent, even where the value would be whole.
func (s *scanner) integer() (int64, bool) {
	text := s.data[s.pos:]
	n, end, ok := scanNumber(text)
	if !ok || n.long || bytes.IndexAny(text[:end], ".eE") >= 0 || n.mant > 1<<63 || (!n.neg && n.mant == 1<<63) {
		return 0, false
	}
	s.pos += end
	if n.neg {
		return -int64(n.mant), true // 1<<63 wraps to math.MinInt64, its own negation
	}
	return int64(n.mant), true
}

// maxNesting is encoding/json's limit on arrays and objects open at once,
// the request's own object included.
const maxNesting = 10000

// skipValue moves past the JSON value at the scanner's position, checking
// it as json.Valid does — the grammar of numbers, the escapes of strings,
// the literals, the nesting limit — but converting nothing. open is how
// many arrays and objects already enclose it.
func (s *scanner) skipValue(open int) bool {
	d, p := s.data, s.pos
	var isObject [maxNesting/64 + 1]uint64 // one bit per open container
	depth := 0                             // containers opened here
	for {
		// A value starts at p.
		p = skipSpace(d, p)
		if p >= len(d) {
			return false
		}
		switch c := d[p]; c {
		case '{', '[':
			if open+depth >= maxNesting {
				return false
			}
			if c == '{' {
				isObject[depth/64] |= 1 << (depth % 64)
			} else {
				isObject[depth/64] &^= 1 << (depth % 64)
			}
			depth++
			p++
			p = skipSpace(d, p)
			if p < len(d) && d[p] == c+2 { // '}' is '{'+2, ']' is '['+2
				p++
				depth--
				break
			}
			if c == '{' {
				if p = skipKey(d, p); p < 0 {
					return false
				}
			}
			continue
		case '"':
			if p = skipString(d, p); p < 0 {
				return false
			}
		case 't':
			if p = skipLiteral(d, p, "true"); p < 0 {
				return false
			}
		case 'f':
			if p = skipLiteral(d, p, "false"); p < 0 {
				return false
			}
		case 'n':
			if p = skipLiteral(d, p, "null"); p < 0 {
				return false
			}
		default:
			if p = skipNumber(d, p); p < 0 {
				return false
			}
		}
		// A value ended at p: close what it ends, or go on to the next.
		for {
			if depth == 0 {
				s.pos = p
				return true
			}
			p = skipSpace(d, p)
			if p >= len(d) {
				return false
			}
			object := isObject[(depth-1)/64]&(1<<((depth-1)%64)) != 0
			if c := d[p]; c == ',' {
				p++
				if object {
					if p = skipKey(d, p); p < 0 {
						return false
					}
				}
				break
			} else if object && c == '}' || !object && c == ']' {
				p++
				depth--
				continue
			}
			return false
		}
	}
}

func skipSpace(d []byte, p int) int {
	for p < len(d) && (d[p] == ' ' || d[p] == '\t' || d[p] == '\r' || d[p] == '\n') {
		p++
	}
	return p
}

// skipKey moves past `"key" :` and the whitespace before it; -1 if the
// text is not that.
func skipKey(d []byte, p int) int {
	p = skipSpace(d, p)
	if p >= len(d) || d[p] != '"' {
		return -1
	}
	if p = skipString(d, p); p < 0 {
		return -1
	}
	p = skipSpace(d, p)
	if p >= len(d) || d[p] != ':' {
		return -1
	}
	return p + 1
}

// skipString moves past the string that opens at d[p]; -1 if it is not
// one. Like encoding/json, it takes any byte but a control character and
// checks escapes, not UTF-8.
func skipString(d []byte, p int) int {
	for p++; p < len(d); p++ {
		switch c := d[p]; {
		case c == '"':
			return p + 1
		case c < 0x20:
			return -1
		case c == '\\':
			if p++; p >= len(d) {
				return -1
			}
			switch d[p] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if len(d)-p <= 4 {
					return -1
				}
				for _, h := range d[p+1 : p+5] {
					if !(h-'0' <= 9 || (h|0x20)-'a' <= 'f'-'a') {
						return -1
					}
				}
				p += 4
			default:
				return -1
			}
		}
	}
	return -1
}

func skipLiteral(d []byte, p int, lit string) int {
	if len(d)-p < len(lit) || string(d[p:p+len(lit)]) != lit {
		return -1
	}
	return p + len(lit)
}

// skipNumber moves past the number that starts at d[p], checking JSON's
// grammar only; -1 if none starts there.
func skipNumber(d []byte, p int) int {
	if p < len(d) && d[p] == '-' {
		p++
	}
	switch {
	case p >= len(d):
		return -1
	case d[p] == '0':
		p++
	case d[p]-'1' <= 8:
		p = skipDigits(d, p+1)
	default:
		return -1
	}
	if p < len(d) && d[p] == '.' {
		q := skipDigits(d, p+1)
		if q == p+1 {
			return -1
		}
		p = q
	}
	if p < len(d) && d[p]|0x20 == 'e' {
		p++
		if p < len(d) && (d[p] == '+' || d[p] == '-') {
			p++
		}
		q := skipDigits(d, p)
		if q == p {
			return -1
		}
		p = q
	}
	return p
}

func skipDigits(d []byte, p int) int {
	for p < len(d) && d[p]-'0' <= 9 {
		p++
	}
	return p
}
