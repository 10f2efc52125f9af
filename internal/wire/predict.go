package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"sync"

	"repro/internal/serving"
)

// The numeric codec of the predict path. A predict body is a model
// reference and a matrix of floats, and it arrives in one of two forms:
//
//   - JSON, {"modelId": …, "instances": [[…], …]}, on every public mount
//     and from anything that can run curl. parsePredict reads the
//     canonical spelling of it straight into one row-major []float64; a
//     body it does not recognise goes, the same bytes, through
//     decodeStream, which stays the only author of decode errors.
//   - a frame (FrameType), between HTTPBackend and a replica, both ends in
//     this repository: lengths first, then the float bits as they are in
//     memory, little-endian.
//
// PredictHandler answers in the form it was asked in; an error is the JSON
// envelope either way, so the status table is the only error path.

// FrameType is the Content-Type of a predict frame. All integers and floats
// are little-endian; a frame's length must equal what its header declares.
//
//	request:  u32 len(ref) | ref | u32 rows | u32 cols | rows×cols f64
//	response: u32 rows | u32 cols | rows i32 classes | rows×cols f64 probabilities
const FrameType = "application/x-spatial-predict-frame"

// bodies holds the byte buffers predict bodies are read into. Only bytes
// are pooled: a decoded matrix is allocated per request, because
// Runtime.Predict may return (context cancelled, runtime closed) while a
// worker still reads the rows.
var bodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBody keeps one oversized upload from pinning its buffer in the
// pool; a 256 × 21 JSON body is about 100 KB.
const maxPooledBody = 1 << 20

func getBody() *bytes.Buffer { return bodies.Get().(*bytes.Buffer) }

func putBody(b *bytes.Buffer) {
	if b.Cap() <= maxPooledBody {
		b.Reset()
		bodies.Put(b)
	}
}

type predictFunc = func(ctx context.Context, ref string, instances [][]float64) ([][]float64, []int, error)

// PredictHandler serves POST /predict for anything that scores a model
// reference: the ML service's runtime, the cluster router, one replica.
func PredictHandler(predict func(ctx context.Context, ref string, instances [][]float64) ([][]float64, []int, error)) http.HandlerFunc {
	return predictHandler(predict, MaxBodyBytes)
}

func predictHandler(predict predictFunc, limit int64) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		framed := r.Header.Get("Content-Type") == FrameType
		ref, instances, err := readPredict(w, r, framed, limit)
		if err == nil {
			err = BadRequest(rectangular(instances))
		}
		var probs [][]float64
		var classes []int
		if err == nil {
			probs, classes, err = predict(r.Context(), ref, instances)
		}
		switch {
		case err != nil:
			WriteError(w, err)
		case framed:
			answerFramed(w, probs, classes)
		default:
			if probs == nil {
				probs, classes = [][]float64{}, []int{}
			}
			Write(w, http.StatusOK, serving.PredictResponse{Classes: classes, Probs: probs})
		}
	}
}

// readPredict reads the body once, behind the same limits as Decode, and
// decodes it. Nothing it returns points into the pooled buffer.
func readPredict(w http.ResponseWriter, r *http.Request, framed bool, limit int64) (string, [][]float64, error) {
	if err := declaredTooLarge(r, limit); err != nil {
		return "", nil, err
	}
	buf := getBody()
	defer putBody(buf)
	_, readErr := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	if framed {
		if readErr != nil {
			return "", nil, decodeError(readErr)
		}
		ref, instances, err := decodeRequestFrame(buf.Bytes())
		if err != nil {
			return "", nil, decodeError(err)
		}
		return ref, instances, nil
	}
	if readErr == nil {
		if ref, instances, ok := parsePredict(buf.Bytes()); ok {
			return ref, instances, nil
		}
	}
	// Not the canonical spelling, or cut short: encoding/json sees the
	// bytes that arrived and then the error that ended them, and says why.
	var req serving.PredictRequest
	err := decodeStream(io.MultiReader(bytes.NewReader(buf.Bytes()), failingReader{readErr}), &req)
	return req.ModelID, req.Instances, err
}

// failingReader ends a replayed body the way the original ended.
type failingReader struct{ err error }

func (f failingReader) Read([]byte) (int, error) {
	if f.err == nil {
		return 0, io.EOF
	}
	return 0, f.err
}

// rectangular reports the first row whose width differs from row 0's.
func rectangular(rows [][]float64) error {
	for i := 1; i < len(rows); i++ {
		if len(rows[i]) != len(rows[0]) {
			return fmt.Errorf("instances: row %d has %d values, row 0 has %d", i, len(rows[i]), len(rows[0]))
		}
	}
	return nil
}

// scanner is a position in a JSON text.
type scanner struct {
	data []byte
	pos  int
}

// eat skips whitespace and consumes c if it is next.
func (s *scanner) eat(c byte) bool {
	s.space()
	if s.pos < len(s.data) && s.data[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

func (s *scanner) space() {
	for s.pos < len(s.data) {
		switch s.data[s.pos] {
		case ' ', '\t', '\r', '\n':
			s.pos++
		default:
			return
		}
	}
}

// literal consumes lit if the text continues with exactly it.
func (s *scanner) literal(lit string) bool {
	if len(s.data)-s.pos >= len(lit) && string(s.data[s.pos:s.pos+len(lit)]) == lit {
		s.pos += len(lit)
		return true
	}
	return false
}

// parsePredict is the fast path for a predict body: an object whose keys
// are exactly "modelId" (a string of plain ASCII, no escapes) and
// "instances" (an array of arrays of numbers), each at most once, in either
// order, with nothing but whitespace around it. It has no error texts:
// ok is false for anything else — other keys or spellings of them, null,
// escapes, a number outside JSON's grammar or float64's range, a syntax
// error, trailing data — and the caller hands the bytes to encoding/json.
// The invariant (FuzzPredictDecodeMatchesJSON): whatever this accepts,
// encoding/json accepts, with the same reference and bit-identical floats.
func parsePredict(data []byte) (ref string, rows [][]float64, ok bool) {
	s := scanner{data: data}
	if !s.eat('{') {
		return "", nil, false
	}
	var haveRef, haveRows bool
	for first := true; !s.eat('}'); first = false {
		if !first && !s.eat(',') {
			return "", nil, false
		}
		s.space()
		switch {
		case !haveRef && s.literal(`"modelId"`):
			haveRef = true
			if !s.eat(':') {
				return "", nil, false
			}
			s.space()
			if ref, ok = s.plainString(); !ok {
				return "", nil, false
			}
		case !haveRows && s.literal(`"instances"`):
			haveRows = true
			if !s.eat(':') {
				return "", nil, false
			}
			if rows, ok = s.matrix(); !ok {
				return "", nil, false
			}
		default:
			return "", nil, false
		}
	}
	s.space()
	return ref, rows, s.pos == len(s.data)
}

// plainString reads a string that needs no unescaping: printable ASCII
// without a backslash.
func (s *scanner) plainString() (string, bool) {
	d := s.data
	if s.pos >= len(d) || d[s.pos] != '"' {
		return "", false
	}
	start := s.pos + 1
	for p := start; p < len(d); p++ {
		switch c := d[p]; {
		case c == '"':
			s.pos = p + 1
			return string(d[start:p]), true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return "", false
		}
	}
	return "", false
}

// matrix reads [[number,…],…] into one row-major array and returns views
// of its rows, each capped at its own end so an append to one row cannot
// write into the next. Both arrays are sized before the first number from
// what the text can hold at most — a number after the first follows a
// comma and takes two bytes, a row opens with a bracket — so neither grows
// and the views stay in the one array.
func (s *scanner) matrix() ([][]float64, bool) {
	if !s.eat('[') {
		return nil, false
	}
	rest := s.data[s.pos:]
	rows := make([][]float64, 0, bytes.Count(rest, []byte{'['}))
	flat := make([]float64, 0, min(bytes.Count(rest, []byte{','}), len(rest)/2)+1)
	for firstRow := true; !s.eat(']'); firstRow = false {
		if !firstRow && !s.eat(',') {
			return nil, false
		}
		if !s.eat('[') {
			return nil, false
		}
		start := len(flat)
		for firstNum := true; !s.eat(']'); firstNum = false {
			if !firstNum && !s.eat(',') {
				return nil, false
			}
			s.space()
			f, ok := s.number()
			if !ok {
				return nil, false
			}
			flat = append(flat, f)
		}
		rows = append(rows, flat[start:len(flat):len(flat)])
	}
	return rows, true
}

// number reads one JSON number and gives it the value encoding/json would:
// the nearest float64, or a refusal where that is out of range. The bytes
// are read once. scanNumber checks JSON's grammar — narrower than
// strconv.ParseFloat's, which also takes hex, "inf", underscores and a bare
// leading or trailing point — and collects the decimal on the way; one
// Eisel–Lemire step converts it. Only where that step cannot answer does
// ParseFloat read the same bytes again. Both round correctly, so the bits
// are the same whichever answers.
func (s *scanner) number() (float64, bool) {
	text := s.data[s.pos:]
	n, end, ok := scanNumber(text)
	if !ok {
		return 0, false
	}
	f, ok := n.fast()
	if !ok {
		var err error
		if f, err = strconv.ParseFloat(string(text[:end]), 64); err != nil {
			return 0, false
		}
	}
	s.pos += end
	return f, true
}

// decimal is a number as scanNumber collects it: (-1)^neg × mant ×
// 10^exp10, where mant holds the significant digits — all of them but the
// zeros before the first nonzero one — if there are at most 19 of them.
type decimal struct {
	mant  uint64
	exp10 int
	neg   bool
	long  bool // more than 19 significant digits: mant is not the value
}

// scanNumber reads the JSON number at the start of text and returns it and
// its length; ok is false if text does not start with one. The exponent
// stops growing past 10 000, as strconv's does: far outside pow10 already.
func scanNumber(text []byte) (n decimal, end int, ok bool) {
	d := text
	if len(d) > 0 && d[0] == '-' {
		n.neg, d = true, d[1:]
	}
	if len(d) == 0 || d[0]-'0' > 9 {
		return n, 0, false
	}
	sig := 0
	if d[0] == '0' { // a leading 0 stands alone
		d = d[1:]
	} else {
		n.mant, d, sig = accumulate(0, d)
	}
	if len(d) > 0 && d[0] == '.' {
		d = d[1:]
		frac := len(d)
		if sig == 0 {
			for len(d) > 0 && d[0] == '0' {
				d = d[1:]
			}
			n.exp10 = len(d) - frac
		}
		var k int
		n.mant, d, k = accumulate(n.mant, d)
		if len(d) == frac {
			return n, 0, false
		}
		sig += k
		n.exp10 -= k
	}
	if len(d) > 0 && d[0]|0x20 == 'e' { // e or E
		d = d[1:]
		negExp := len(d) > 0 && d[0] == '-'
		if len(d) > 0 && (d[0] == '-' || d[0] == '+') {
			d = d[1:]
		}
		if len(d) == 0 || d[0]-'0' > 9 {
			return n, 0, false
		}
		e := 0
		for ; len(d) > 0 && d[0]-'0' <= 9; d = d[1:] {
			if e < 10000 {
				e = e*10 + int(d[0]-'0')
			}
		}
		if negExp {
			e = -e
		}
		n.exp10 += e
	}
	n.long = sig > 19
	return n, len(text) - len(d), true
}

// accumulate appends the run of decimal digits that starts d to m, and
// returns the sum, what follows the run and the run's length. Past 19
// digits m wraps; scanNumber marks such a decimal long.
func accumulate(m uint64, d []byte) (uint64, []byte, int) {
	start := len(d)
	for ; len(d) > 0 && d[0]-'0' <= 9; d = d[1:] {
		m = m*10 + uint64(d[0]-'0')
	}
	return m, d, start - len(d)
}

// fast converts n with one Eisel–Lemire step; ok is false where that step
// cannot answer, and then strconv.ParseFloat must.
func (n decimal) fast() (float64, bool) {
	f, ok := eiselLemire64(n.mant, n.exp10, n.neg)
	return f, ok && !n.long
}

// appendRequestFrame appends the request frame of a rectangular matrix.
func appendRequestFrame(b []byte, ref string, rows [][]float64) []byte {
	cols := 0
	if len(rows) > 0 {
		cols = len(rows[0])
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(ref)))
	b = append(b, ref...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(rows)))
	b = binary.LittleEndian.AppendUint32(b, uint32(cols))
	return appendFloats(b, rows)
}

func appendFloats(b []byte, rows [][]float64) []byte {
	for _, row := range rows {
		for _, f := range row {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
		}
	}
	return b
}

// decodeRequestFrame is appendRequestFrame's inverse on bytes from outside:
// the declared sizes must account for the frame's length exactly, and
// nothing is allocated before they do.
func decodeRequestFrame(frame []byte) (string, [][]float64, error) {
	if len(frame) < 4 {
		return "", nil, fmt.Errorf("frame: %d bytes is no header", len(frame))
	}
	refLen := uint64(binary.LittleEndian.Uint32(frame))
	if uint64(len(frame)-4) < refLen+8 {
		return "", nil, fmt.Errorf("frame: %d bytes cannot hold a %d-byte reference and a header", len(frame), refLen)
	}
	ref, b := string(frame[4:4+refLen]), frame[4+refLen:]
	rows, cols := binary.LittleEndian.Uint32(b), binary.LittleEndian.Uint32(b[4:])
	// Rows of no columns cost no bytes; hold them to a row a byte, so the
	// row headers are never more than a small multiple of what arrived.
	if cols == 0 && uint64(rows) > uint64(len(frame)) {
		return "", nil, fmt.Errorf("frame: %d empty rows declared in %d bytes", rows, len(frame))
	}
	instances, err := decodeFloats(b[8:], rows, cols)
	return ref, instances, err
}

// decodeFloats reads rows × cols float64 that must fill b exactly.
func decodeFloats(b []byte, rows, cols uint32) ([][]float64, error) {
	cells := uint64(rows) * uint64(cols) // two 32-bit factors: cannot overflow
	if cells != uint64(len(b))/8 || len(b)%8 != 0 {
		return nil, fmt.Errorf("frame: %d × %d values declared, %d bytes of them received", rows, cols, len(b))
	}
	flat := make([]float64, cells)
	for i := range flat {
		flat[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	out := make([][]float64, rows)
	n := int(cols)
	for i := range out {
		out[i] = flat[i*n : (i+1)*n : (i+1)*n]
	}
	return out, nil
}

// appendResponseFrame appends the response frame of a rectangular matrix
// with one class a row.
func appendResponseFrame(b []byte, probs [][]float64, classes []int) []byte {
	cols := 0
	if len(probs) > 0 {
		cols = len(probs[0])
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(probs)))
	b = binary.LittleEndian.AppendUint32(b, uint32(cols))
	for _, c := range classes {
		b = binary.LittleEndian.AppendUint32(b, uint32(int32(c)))
	}
	return appendFloats(b, probs)
}

// answerFramed answers a framed predict. A result that is not one class
// and one row of equal width per instance has no frame; that is a bug in
// the scorer, and reported as one.
func answerFramed(w http.ResponseWriter, probs [][]float64, classes []int) {
	err := rectangular(probs)
	if len(classes) != len(probs) {
		err = fmt.Errorf("%d classes for %d rows", len(classes), len(probs))
	}
	if err != nil {
		WriteError(w, Tag(ErrInternal, fmt.Errorf("encode response frame: %w", err)))
		return
	}
	buf := getBody()
	defer putBody(buf)
	frame := appendResponseFrame(buf.AvailableBuffer(), probs, classes)
	w.Header().Set("Content-Type", FrameType)
	w.Header().Set("Content-Length", strconv.Itoa(len(frame)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(frame)   // a failed write means the client is gone; there is no one to tell
	_, _ = buf.Write(frame) // in place when it fit; else the buffer grows to fit the next one
}

// decodeResponseFrame reads a replica's answer.
func decodeResponseFrame(b []byte) ([][]float64, []int, error) {
	if len(b) < 8 {
		return nil, nil, fmt.Errorf("frame: %d bytes is no header", len(b))
	}
	rows, cols := binary.LittleEndian.Uint32(b), binary.LittleEndian.Uint32(b[4:])
	b = b[8:]
	if uint64(len(b)) < 4*uint64(rows) {
		return nil, nil, fmt.Errorf("frame: %d classes declared, %d bytes follow", rows, len(b))
	}
	probs, err := decodeFloats(b[4*int(rows):], rows, cols)
	if err != nil {
		return nil, nil, err
	}
	classes := make([]int, rows)
	for i := range classes {
		classes[i] = int(int32(binary.LittleEndian.Uint32(b[4*i:])))
	}
	return probs, classes, nil
}

// Predict is the replica hop's round trip, the framed counterpart of Do
// with the same request building, trace propagation and *StatusError: the
// matrix goes out as a request frame and the answer comes back as the
// replica's slices, float bits untouched. A ragged matrix has no frame and
// is refused here. An answer that breaks off is a *url.Error like any other
// failure to reach the server, so the router fails over on it.
func Predict(ctx context.Context, c *http.Client, target, ref string, instances [][]float64) ([][]float64, []int, error) {
	if err := rectangular(instances); err != nil {
		return nil, nil, BadRequest(err)
	}
	cells := 0
	if len(instances) > 0 {
		cells = len(instances) * len(instances[0])
	}
	// Not from the pool: the transport may still be writing the body from
	// another goroutine after the answer has arrived.
	frame := appendRequestFrame(make([]byte, 0, 12+len(ref)+8*cells), ref, instances)
	resp, err := send(ctx, c, http.MethodPost, target, nil, FrameType, frame)
	if err != nil {
		return nil, nil, err
	}
	defer func() { _ = resp.Body.Close() }()
	if ct := resp.Header.Get("Content-Type"); ct != FrameType {
		return nil, nil, fmt.Errorf("decode response: Content-Type %q is not a predict frame", ct)
	}
	buf := getBody()
	defer putBody(buf)
	if _, err := buf.ReadFrom(io.LimitReader(resp.Body, MaxBodyBytes)); err != nil {
		return nil, nil, &url.Error{Op: "Post", URL: target, Err: fmt.Errorf("read response: %w", err)}
	}
	probs, classes, err := decodeResponseFrame(buf.Bytes())
	if err != nil {
		return nil, nil, fmt.Errorf("decode response: %w", err)
	}
	return probs, classes, nil
}
