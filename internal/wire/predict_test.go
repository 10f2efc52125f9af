package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/serving"
)

// oracleHandler is the predict handler as it was before the fast path:
// wire.Handle over serving.PredictRequest, every byte through
// encoding/json. The ragged-rows check is the one behaviour added since;
// the decoder under test does not reach it.
func oracleHandler(predict predictFunc) http.HandlerFunc {
	return Handle(func(ctx context.Context, req *serving.PredictRequest) (serving.PredictResponse, error) {
		if err := rectangular(req.Instances); err != nil {
			return serving.PredictResponse{}, BadRequest(err)
		}
		probs, classes, err := predict(ctx, req.ModelID, req.Instances)
		if probs == nil {
			probs, classes = [][]float64{}, []int{}
		}
		return serving.PredictResponse{Classes: classes, Probs: probs}, err
	})
}

// echo answers with what it was given, so two handlers that decoded the
// same body differently cannot answer alike: the rows back as the
// probabilities, their widths as the classes, the reference in the error
// of a model named "fail" or not named at all.
func echo(_ context.Context, ref string, instances [][]float64) ([][]float64, []int, error) {
	if ref == "" || ref == "fail" {
		return nil, nil, fmt.Errorf("no model %q for %d rows (nil: %v)", ref, len(instances), instances == nil)
	}
	classes := make([]int, len(instances))
	for i, row := range instances {
		classes[i] = len(row)
	}
	return instances, classes, nil
}

// serve runs one request body through h.
func serve(h http.Handler, contentType string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest("POST", "/predict", bytes.NewReader(body))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// predictBody is a predict request of rows × cols Gaussian values (σ = 3),
// marshalled as service.Client marshals it.
func predictBody(tb testing.TB, rows, cols int) (serving.PredictRequest, []byte) {
	tb.Helper()
	rng := rand.New(rand.NewSource(int64(rows*1000 + cols)))
	instances := make([][]float64, rows)
	for i := range instances {
		instances[i] = make([]float64, cols)
		for j := range instances[i] {
			instances[i][j] = rng.NormFloat64() * 3
		}
	}
	return marshalPredict(tb, instances)
}

// marshalPredict is a predict request for instances and its JSON body.
func marshalPredict(tb testing.TB, instances [][]float64) (serving.PredictRequest, []byte) {
	tb.Helper()
	req := serving.PredictRequest{ModelID: "lgbm@2", Instances: instances}
	raw, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return req, raw
}

// benchTable is the end-to-end benchmark's fixture: the UC2 flow table at
// twice the paper's trace counts, min-max scaled into [0, 1].
var benchTable = sync.OnceValues(func() (*dataset.Table, error) {
	cfg := datagen.DefaultNetTrafficConfig()
	cfg.Web, cfg.Interactive, cfg.Video = 2*cfg.Web, 2*cfg.Interactive, 2*cfg.Video
	table, _, err := datagen.NetTraffic(cfg)
	if err != nil {
		return nil, err
	}
	mm, err := dataset.FitMinMax(table)
	if err != nil {
		return nil, err
	}
	return table, mm.Transform(table)
})

// benchRows draws n rows of 21 values the way the end-to-end benchmark
// draws its predict bodies: a fixture row plus N(0, 0.02²) jitter, clamped
// to [0, 1]. Their shortest spellings are what the predict decoder reads
// on the predict workloads; about a sixth of them are exactly 0 or 1.
func benchRows(tb testing.TB, rng *rand.Rand, n int) [][]float64 {
	tb.Helper()
	table, err := benchTable()
	if err != nil {
		tb.Fatal(err)
	}
	rows := make([][]float64, n)
	for i := range rows {
		src := table.X[rng.Intn(table.Len())]
		rows[i] = make([]float64, len(src))
		for j, v := range src {
			rows[i][j] = math.Min(1, math.Max(0, v+0.02*rng.NormFloat64()))
		}
	}
	return rows
}

// sameMatrix compares two matrices bit for bit.
func sameMatrix(got, want [][]float64) error {
	if len(got) != len(want) || (got == nil) != (want == nil) {
		return fmt.Errorf("%d rows (nil: %v), want %d (nil: %v)", len(got), got == nil, len(want), want == nil)
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("row %d has %d values, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				return fmt.Errorf("[%d][%d] = %x, want %x", i, j, math.Float64bits(got[i][j]), math.Float64bits(want[i][j]))
			}
		}
	}
	return nil
}

// checkDecodeMatchesJSON is the fuzz property, shared with the table test.
func checkDecodeMatchesJSON(t *testing.T, data []byte) {
	t.Helper()
	if ref, rows, ok := parsePredict(data); ok {
		var req serving.PredictRequest
		if err := decodeStream(bytes.NewReader(data), &req); err != nil {
			t.Fatalf("fast path accepted %q, encoding/json refuses it: %v", data, err)
		}
		if ref != req.ModelID {
			t.Fatalf("%q: modelId %q, encoding/json reads %q", data, ref, req.ModelID)
		}
		if err := sameMatrix(rows, req.Instances); err != nil {
			t.Fatalf("%q: %v", data, err)
		}
		for i, row := range rows {
			if cap(row) != len(row) {
				t.Fatalf("%q: row %d has room for %d more values: an append would write into row %d", data, i, cap(row)-len(row), i+1)
			}
		}
	}
	got, want := serve(PredictHandler(echo), "", data), serve(oracleHandler(echo), "", data)
	if got.Code != want.Code || got.Body.String() != want.Body.String() ||
		got.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
		t.Fatalf("%q:\n got %d %s\nwant %d %s", data, got.Code, got.Body, want.Code, want.Body)
	}
}

func FuzzPredictDecodeMatchesJSON(f *testing.F) {
	_, body := predictBody(f, 3, 4)
	f.Add(body)
	f.Fuzz(checkDecodeMatchesJSON)
}

// TestPredictFastPath pins which spellings the fast path takes itself —
// the property test above is vacuous for a parser that accepts nothing.
func TestPredictFastPath(t *testing.T) {
	for body, fast := range map[string]bool{
		`{"modelId":"m","instances":[[1,2],[3,4]]}`:                                                      true,
		`{"instances":[[1,2],[3,4]],"modelId":"m"}`:                                                      true,
		" {\n\t\"modelId\" : \"lr@1\" ,\r\n \"instances\" : [ [ -0 , 1e3 ] , [ 2.5E-3 , 0.1e+2 ] ] } \n": true,
		`{"modelId":"m"}`:                  true,
		`{"instances":[]}`:                 true,
		`{"instances":[[]],"modelId":"m"}`: true,
		`{}`:                               true,
		`{"modelId":"m","instances":[[1E-400,-0.0]]}`:     true,
		`{"modelId":"sha256:ab~ ","instances":[[1],[2]]}`: true,
		`{"modelId":"m","instances":[[1],[2,3]]}`:         true, // ragged is the handler's business, not the decoder's
		`{"modelId":"m\u0041","instances":[[1]]}`:         false,
		`{"modelId":"é","instances":[[1]]}`:               false,
		`{"MODELID":"m","instances":[[1]]}`:               false,
		`{"modelId":"m","modelId":"n","instances":[[1]]}`: false,
		`{"modelId":"m","instances":null}`:                false,
		`{"modelId":null,"instances":[[1]]}`:              false,
		`{"modelId":"m","instances":[[1],null]}`:          false,
		`{"modelId":"m","instances":[[1e400]]}`:           false,
		`{"modelId":"m","instances":[[01]]}`:              false,
		`{"modelId":"m","instances":[[.5]]}`:              false,
		`{"modelId":"m","instances":[[1.]]}`:              false,
		`{"modelId":"m","instances":[[+1]]}`:              false,
		`{"modelId":"m","instances":[[0x1p-2]]}`:          false,
		`{"modelId":"m","instances":[[1_0]]}`:             false,
		`{"modelId":"m","instances":[[NaN]]}`:             false,
		`{"modelId":"m","instances":[[1,]]}`:              false,
		`{"modelId":"m","instances":[[1]],}`:              false,
		`{"modelId":"m","instances":[[1]]}}`:              false,
		`{"modelId":"m","instances":[[1]]} {}`:            false,
		`{"modelId":"m","instances":[[1]],"extra":1}`:     false,
		"\ufeff" + `{"modelId":"m","instances":[[1]]}`:    false,
		`{"modelId":"m","instances":[[1]]`:                false,
		``:                                                false,
	} {
		if _, _, ok := parsePredict([]byte(body)); ok != fast {
			t.Errorf("%q: fast path took it = %v, want %v", body, ok, fast)
		}
		checkDecodeMatchesJSON(t, []byte(body))
	}
}

// jsonNumber is JSON's number grammar (RFC 8259 §6); leftmost-longest, so
// its match on a text is where the number at its start ends.
var jsonNumber = regexp.MustCompilePOSIX(`^-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`)

// FuzzNumberMatchesParseFloat holds the number decoder to strconv: what it
// accepts ends where JSON's grammar ends and has ParseFloat's bits, and a
// JSON number ParseFloat accepts is never refused.
func FuzzNumberMatchesParseFloat(f *testing.F) {
	for _, seed := range []string{
		"9007199254740993",        // 2^53 + 1: halfway between two doubles
		"2.2250738585072011e-308", // just under the smallest normal
		"4.9406564584124654e-324", // the smallest subnormal
		"2.4703282292062327e-324", // just under half of it: rounds to 0
		"1.7976931348623157e308",  // the largest double
		"1.7976931348623159e308",  // past it: out of range
		"5e-324", "1e23", "8.41e21", "0.30000000000000004",
		"0", "-0", "-0.0", "0e99999",
		"9999999999999999999", "184467440737095516.1", "0.1234567890123456789", // 19 digits
		"18446744073709551616", "12345678901234567890", "-0.12345678901234567891e-5", // 20
		"1e-400", "1e99999", "-1e99999", "0." + strings.Repeat("0", 400) + "1",
		"1.5,", "01", "1.", "1.e5", "-", "1e", "1e+", ".5", "+1", "0x1p-2", "1_0", "Inf",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		s := scanner{data: []byte(text)}
		got, ok := s.number()
		num := jsonNumber.FindString(text)
		want, err := strconv.ParseFloat(num, 64)
		switch {
		case ok && (num == "" || s.pos != len(num)):
			t.Fatalf("%q: read %d bytes as a number, JSON's grammar reads %d", text, s.pos, len(num))
		case ok && err != nil:
			t.Fatalf("%q: read as %v, ParseFloat refuses it: %v", text, got, err)
		case ok && math.Float64bits(got) != math.Float64bits(want):
			t.Fatalf("%q: read as %v (%#x), ParseFloat reads %v (%#x)", text, got, math.Float64bits(got), want, math.Float64bits(want))
		case !ok && num != "" && num == text && err == nil:
			t.Fatalf("%q: refused a JSON number ParseFloat reads as %v", text, want)
		}
	})
}

// TestPow10Table holds the generated powers of ten to ParseFloat at every
// power the table covers: wherever the Eisel–Lemire step answers, it
// answers with ParseFloat's bits, and it answers for nearly all of them.
func TestPow10Table(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	mants := []uint64{1, 1<<53 + 1, 1e19 - 1, rng.Uint64() % 1e19, rng.Uint64() % 1e19, rng.Uint64() % 1e19}
	tried, answered := 0, 0
	for exp10 := pow10Min; exp10 <= pow10Max; exp10++ {
		for _, mant := range mants {
			for _, neg := range []bool{false, true} {
				text := fmt.Sprintf("%de%d", mant, exp10)
				if neg {
					text = "-" + text
				}
				want, err := strconv.ParseFloat(text, 64)
				got, ok := decimal{mant: mant, exp10: exp10, neg: neg}.fast()
				if ok && (err != nil || math.Float64bits(got) != math.Float64bits(want)) {
					t.Fatalf("%s: step gives %v (%#x), ParseFloat %v (%#x), %v", text, got, math.Float64bits(got), want, math.Float64bits(want), err)
				}
				if err == nil && want != 0 && math.Abs(want) >= 0x1p-1022 {
					tried++
					if ok {
						answered++
					}
				}
			}
		}
	}
	if answered < tried*999/1000 {
		t.Errorf("the step answered %d of %d conversions to a normal float64", answered, tried)
	}
}

// TestFastPathCoversMarshalledFloats: the shortest spellings of the floats
// the predict path is sent convert without strconv.ParseFloat, so the
// decoder's speed cannot drain into the fallback unnoticed.
func TestFastPathCoversMarshalledFloats(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 100_000
	unit := make([]float64, 0, n)
	for _, row := range benchRows(t, rng, n/21+1) {
		unit = append(unit, row...)
	}
	gauss := make([]float64, n)
	for i := range gauss {
		gauss[i] = rng.NormFloat64() * 3
	}
	for name, values := range map[string][]float64{"bench": unit[:n], "gaussian": gauss} {
		fast := 0
		for _, x := range values {
			text := strconv.FormatFloat(x, 'g', -1, 64)
			d, end, ok := scanNumber([]byte(text))
			if !ok || end != len(text) {
				t.Fatalf("%s: %q not read as one number", name, text)
			}
			if f, ok := d.fast(); ok {
				fast++
				if math.Float64bits(f) != math.Float64bits(x) {
					t.Fatalf("%s: %q converted to %v", name, text, f)
				}
			}
		}
		if fast < n*999/1000 {
			t.Errorf("%s: %d of %d values converted without ParseFloat, want at least 99.9 %%", name, fast, n)
		}
	}
}

// TestPredictDecodeAllocs: the fast path allocates the flat array, the row
// views and the reference, however many rows there are; a frame the same.
func TestPredictDecodeAllocs(t *testing.T) {
	for _, rows := range []int{1, 64, 256, 1024} {
		req, body := predictBody(t, rows, 21)
		got := testing.AllocsPerRun(20, func() {
			if _, _, ok := parsePredict(body); !ok {
				t.Fatal("fast path refused a marshalled request")
			}
		})
		if got > 3 {
			t.Errorf("JSON decode of %d × 21: %v allocations, want at most 3", rows, got)
		}
		frame := appendRequestFrame(nil, req.ModelID, req.Instances)
		got = testing.AllocsPerRun(20, func() {
			if _, _, err := decodeRequestFrame(frame); err != nil {
				t.Fatal(err)
			}
		})
		if got > 3 {
			t.Errorf("frame decode of %d × 21: %v allocations, want at most 3", rows, got)
		}
	}
}

// TestPredictAnswersInKind: one handler, two request forms, the same
// answer in the form it was asked in; an error is the envelope in both.
func TestPredictAnswersInKind(t *testing.T) {
	h := PredictHandler(echo)
	req, body := predictBody(t, 5, 3)
	frame := appendRequestFrame(nil, req.ModelID, req.Instances)

	asJSON := serve(h, "application/json", body)
	var resp serving.PredictResponse
	if asJSON.Code != 200 || asJSON.Header().Get("Content-Type") != "application/json" || json.Unmarshal(asJSON.Body.Bytes(), &resp) != nil {
		t.Fatalf("JSON request answered %d %q %s", asJSON.Code, asJSON.Header().Get("Content-Type"), asJSON.Body)
	}
	asFrame := serve(h, FrameType, frame)
	if asFrame.Code != 200 || asFrame.Header().Get("Content-Type") != FrameType {
		t.Fatalf("framed request answered %d %q %s", asFrame.Code, asFrame.Header().Get("Content-Type"), asFrame.Body)
	}
	probs, classes, err := decodeResponseFrame(asFrame.Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if err := sameMatrix(probs, req.Instances); err != nil {
		t.Fatalf("framed answer: %v", err)
	}
	if err := sameMatrix(resp.Probs, req.Instances); err != nil {
		t.Fatalf("JSON answer: %v", err)
	}
	if fmt.Sprint(classes) != fmt.Sprint(resp.Classes) {
		t.Fatalf("classes %v framed, %v as JSON", classes, resp.Classes)
	}

	failing := appendRequestFrame(nil, "fail", req.Instances)
	for _, rec := range []*httptest.ResponseRecorder{
		serve(h, FrameType, failing),
		serve(h, "", []byte(`{"modelId":"fail","instances":[[1]]}`)),
	} {
		var env Envelope
		if rec.Code != 422 || rec.Header().Get("Content-Type") != "application/json" ||
			json.Unmarshal(rec.Body.Bytes(), &env) != nil || !strings.HasPrefix(env.Error, `no model "fail"`) {
			t.Fatalf("error answered %d %q %s", rec.Code, rec.Header().Get("Content-Type"), rec.Body)
		}
	}
}

// header builds a request frame's bytes by hand.
func header(ref string, rows, cols uint32, payload int) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(ref)))
	b = append(b, ref...)
	b = binary.LittleEndian.AppendUint32(b, rows)
	b = binary.LittleEndian.AppendUint32(b, cols)
	return append(b, make([]byte, payload)...)
}

// TestHostileFrames: a frame whose header and length disagree is a typed
// 400 before anything is allocated for it, an oversized one a 413.
func TestHostileFrames(t *testing.T) {
	h := PredictHandler(echo)
	for name, frame := range map[string][]byte{
		"empty":                      {},
		"no header":                  {1, 0},
		"reference longer than body": binary.LittleEndian.AppendUint32(nil, 1<<31),
		"truncated":                  header("m", 4, 21, 4*21*8-1),
		"one value short":            header("m", 4, 21, 4*21*8-8),
		"one value over":             header("m", 4, 21, 4*21*8+8),
		"product overflows 64 bits":  header("m", 1<<31, 1<<30, 0), // × 8 bytes wraps to 0
		"all ones":                   header("m", math.MaxUint32, math.MaxUint32, 64),
		"rows that cost nothing":     header("m", math.MaxUint32, 0, 0),
		"columns of no rows, a byte": header("m", 0, 7, 1),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec := serve(h, FrameType, frame)
		runtime.ReadMemStats(&after)
		var env Envelope
		if rec.Code != 400 || json.Unmarshal(rec.Body.Bytes(), &env) != nil || env.Kind != "badrequest" ||
			!strings.HasPrefix(env.Error, "decode request: frame: ") {
			t.Errorf("%s: answered %d %s", name, rec.Code, rec.Body)
		}
		if allocated := after.TotalAlloc - before.TotalAlloc; allocated > 1<<20 {
			t.Errorf("%s: %d bytes allocated to refuse a frame of %d", name, allocated, len(frame))
		}
	}

	// Over the limit: refused on the declared length, and cut off at the
	// limit when none was declared.
	req := httptest.NewRequest("POST", "/predict", bytes.NewReader(header("m", 1, 1, 8)))
	req.Header.Set("Content-Type", FrameType)
	req.ContentLength = MaxBodyBytes + 1
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), `"kind":"toolarge"`) {
		t.Errorf("declared oversize frame: %d %s", rec.Code, rec.Body)
	}
	for _, contentType := range []string{FrameType, "application/json"} {
		_, body := predictBody(t, 4, 4)
		req = httptest.NewRequest("POST", "/predict", bytes.NewReader(body))
		req.Header.Set("Content-Type", contentType)
		req.ContentLength = -1
		rec = httptest.NewRecorder()
		predictHandler(echo, 64).ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), "request body too large") {
			t.Errorf("streamed oversize %s body: %d %s", contentType, rec.Code, rec.Body)
		}
	}
}

// TestAbortedBodyAnswersAsBefore: a JSON body that breaks off mid-stream
// is refused with the text the streaming decoder gave it.
func TestAbortedBodyAnswersAsBefore(t *testing.T) {
	_, body := predictBody(t, 4, 4)
	cut := func() *http.Request {
		r := httptest.NewRequest("POST", "/predict", &brokenReader{data: body[:len(body)/2], err: errors.New("connection reset by peer")})
		r.ContentLength = -1
		return r
	}
	got, want := httptest.NewRecorder(), httptest.NewRecorder()
	PredictHandler(echo).ServeHTTP(got, cut())
	oracleHandler(echo).ServeHTTP(want, cut())
	if got.Code != 400 || got.Code != want.Code || got.Body.String() != want.Body.String() {
		t.Fatalf("got %d %s\nwant %d %s", got.Code, got.Body, want.Code, want.Body)
	}
}

type brokenReader struct {
	data []byte
	err  error
}

func (b *brokenReader) Read(p []byte) (int, error) {
	if len(b.data) == 0 {
		return 0, b.err
	}
	n := copy(p, b.data)
	b.data = b.data[n:]
	return n, nil
}

// matrixFromBytes reads data as a matrix of raw float64 bit patterns.
func matrixFromBytes(data []byte) [][]float64 {
	if len(data) == 0 {
		return nil
	}
	cols := int(data[0] % 8)
	data = data[1:]
	if cols == 0 {
		return make([][]float64, len(data)%4)
	}
	rows := make([][]float64, len(data)/(8*cols))
	for i := range rows {
		rows[i] = make([]float64, cols)
		for j := range rows[i] {
			rows[i][j] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*(i*cols+j):]))
		}
	}
	return rows
}

func FuzzPredictFrame(f *testing.F) {
	f.Add(appendRequestFrame(nil, "demo@1", [][]float64{{2, 0}, {-2, 0}}))
	f.Add(append([]byte{3}, appendFloats(nil, [][]float64{{math.NaN(), math.Inf(-1), math.Float64frombits(0x7ff0000000000001)}})...))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Arbitrary bytes as either frame: an error or a matrix the bytes
		// paid for, never a panic.
		if ref, rows, err := decodeRequestFrame(data); err == nil {
			cells := 0
			for _, row := range rows {
				cells += len(row)
			}
			if len(rows) > len(data) || 8*cells+len(ref)+12 != len(data) {
				t.Fatalf("%d bytes decoded to %d rows, %d values and a %d-byte reference", len(data), len(rows), cells, len(ref))
			}
			back, again, err := decodeRequestFrame(appendRequestFrame(nil, ref, rows))
			if err != nil || back != ref || sameMatrix(again, rows) != nil {
				t.Fatalf("decoded request does not round-trip: %v", err)
			}
		}
		if probs, classes, err := decodeResponseFrame(data); err == nil {
			cells := 0
			for _, row := range probs {
				cells += len(row)
			}
			if len(classes) != len(probs) || 8*cells+4*len(classes)+8 != len(data) {
				t.Fatalf("%d bytes decoded to %d rows, %d classes and %d values", len(data), len(probs), len(classes), cells)
			}
		}

		// The bytes as float bits: what goes in comes out, NaN payloads too.
		want := matrixFromBytes(data)
		ref := string(data[:min(len(data), 5)])
		gotRef, got, err := decodeRequestFrame(appendRequestFrame(nil, ref, want))
		if err != nil || gotRef != ref {
			t.Fatalf("request round trip: %q, %v", gotRef, err)
		}
		if len(want) == 0 {
			want = [][]float64{}
		}
		if err := sameMatrix(got, want); err != nil {
			t.Fatalf("request round trip: %v", err)
		}
		classes := make([]int, len(want))
		for i := range classes {
			classes[i] = int(int32(uint32(i+len(data)) * 2654435761)) // either sign
		}
		rec := httptest.NewRecorder()
		answerFramed(rec, want, classes)
		gotProbs, gotClasses, err := decodeResponseFrame(rec.Body.Bytes())
		if err != nil || rec.Code != 200 {
			t.Fatalf("response round trip: %d, %v", rec.Code, err)
		}
		if err := sameMatrix(gotProbs, want); err != nil {
			t.Fatalf("response round trip: %v", err)
		}
		if fmt.Sprint(gotClasses) != fmt.Sprint(classes) {
			t.Fatalf("response round trip: classes %v, want %v", gotClasses, classes)
		}
	})
}

// TestAnswerFramedRefusesAMalformedResult: a scorer's answer with no frame
// is a 500, not a frame that lies about its shape.
func TestAnswerFramedRefusesAMalformedResult(t *testing.T) {
	for name, result := range map[string]struct {
		probs   [][]float64
		classes []int
	}{
		"ragged probabilities": {[][]float64{{0.5, 0.5}, {1}}, []int{0, 0}},
		"a class short":        {[][]float64{{0.5, 0.5}, {0.1, 0.9}}, []int{0}},
	} {
		rec := httptest.NewRecorder()
		answerFramed(rec, result.probs, result.classes)
		if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), `"kind":"internal"`) {
			t.Errorf("%s: answered %d %s", name, rec.Code, rec.Body)
		}
	}
}

// handlerTransport answers a client's requests from a handler in process.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, r)
	return rec.Result(), nil
}

// TestPredictClient: the framed round trip hands back the scorer's slices
// bit for bit, turns an envelope into its typed error as Do does, refuses
// a ragged matrix unsent, and reports an answer that breaks off as the
// transport failure it is.
func TestPredictClient(t *testing.T) {
	ctx := context.Background()
	client := &http.Client{Transport: handlerTransport{PredictHandler(func(ctx context.Context, ref string, instances [][]float64) ([][]float64, []int, error) {
		if ref == "gone" {
			return nil, nil, fmt.Errorf("lookup %s: %w", ref, serving.ErrNotFound)
		}
		return echo(ctx, ref, instances)
	})}}
	want := [][]float64{{math.NaN(), math.Copysign(0, -1), 5e-324}, {math.Inf(1), 1.5, math.Float64frombits(0xfff8000000001234)}}
	probs, classes, err := Predict(ctx, client, "http://replica/replica/predict", "demo", want)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameMatrix(probs, want); err != nil || fmt.Sprint(classes) != "[3 3]" {
		t.Fatalf("classes %v, %v", classes, err)
	}
	if probs, classes, err := Predict(ctx, client, "http://replica/replica/predict", "demo", nil); err != nil || len(probs) != 0 || len(classes) != 0 {
		t.Fatalf("empty matrix: %v %v %v", probs, classes, err)
	}
	_, _, err = Predict(ctx, client, "http://replica/replica/predict", "gone", want)
	var se *StatusError
	if !errors.Is(err, serving.ErrNotFound) || !errors.As(err, &se) || se.Status != 404 {
		t.Fatalf("unknown model came back as %v", err)
	}
	_, _, err = Predict(ctx, client, "http://replica/replica/predict", "demo", [][]float64{{1, 2}, {3}})
	if !errors.Is(err, ErrBadRequest) || err.Error() != "instances: row 1 has 1 values, row 0 has 2" {
		t.Fatalf("ragged matrix: %v", err)
	}

	// A replica that dies mid-answer: promised more than it delivered.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, buf, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		defer func() { _ = conn.Close() }()
		_, _ = buf.WriteString("HTTP/1.1 200 OK\r\nContent-Type: " + FrameType + "\r\nContent-Length: 100\r\n\r\n\x02\x00\x00\x00")
		_ = buf.Flush()
	}))
	defer srv.Close()
	_, _, err = Predict(ctx, srv.Client(), srv.URL, "demo", want)
	var transport *url.Error
	if !errors.As(err, &transport) {
		t.Fatalf("answer cut short came back as %v, want a *url.Error", err)
	}
	// An answer in another form is refused, not guessed at.
	client = &http.Client{Transport: handlerTransport{http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		Write(w, http.StatusOK, serving.PredictResponse{})
	})}}
	if _, _, err := Predict(ctx, client, "http://replica/replica/predict", "demo", want[1:]); err == nil || !strings.Contains(err.Error(), "not a predict frame") {
		t.Fatalf("JSON answer to a framed request: %v", err)
	}
}

// benchShapes are the predict workloads' matrix shapes with Gaussian
// values, and 256 × 21 once more with the values the benchmark sends
// (/unit): numbers of 1 to 17 significant digits in [0, 1], not 16–17
// digits around ±3, so the two cost a number decoder differently.
var benchShapes = []struct {
	rows, cols int
	unit       bool
}{{1, 21, false}, {64, 21, false}, {256, 21, false}, {256, 21, true}}

func benchDecode(b *testing.B, decode func(req serving.PredictRequest, body []byte) func() bool) {
	for _, shape := range benchShapes {
		name := fmt.Sprintf("%dx%d", shape.rows, shape.cols)
		req, body := predictBody(b, shape.rows, shape.cols)
		if shape.unit {
			name += "/unit"
			req, body = marshalPredict(b, benchRows(b, rand.New(rand.NewSource(int64(shape.rows))), shape.rows))
		}
		run := decode(req, body)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !run() {
					b.Fatal("decode failed")
				}
			}
		})
	}
}

// BenchmarkPredictDecodeJSONStd is the parent's decode: encoding/json into
// [][]float64, strict, with the trailing-data check.
func BenchmarkPredictDecodeJSONStd(b *testing.B) {
	benchDecode(b, func(_ serving.PredictRequest, body []byte) func() bool {
		return func() bool {
			var req serving.PredictRequest
			return decodeStream(bytes.NewReader(body), &req) == nil
		}
	})
}

func BenchmarkPredictDecodeJSONFast(b *testing.B) {
	benchDecode(b, func(_ serving.PredictRequest, body []byte) func() bool {
		return func() bool {
			_, _, ok := parsePredict(body)
			return ok
		}
	})
}

func BenchmarkPredictDecodeFrame(b *testing.B) {
	benchDecode(b, func(req serving.PredictRequest, _ []byte) func() bool {
		frame := appendRequestFrame(nil, req.ModelID, req.Instances)
		return func() bool {
			_, _, err := decodeRequestFrame(frame)
			return err == nil
		}
	})
}

// twoClass stands in for a replica's scorer: 64 × 21 in, 64 × 2 out, as on
// the cluster_mixed workload.
func twoClass(_ context.Context, _ string, instances [][]float64) ([][]float64, []int, error) {
	probs, classes := make([][]float64, len(instances)), make([]int, len(instances))
	for i, row := range instances {
		p := 1 / (1 + math.Exp(-row[0]))
		probs[i] = []float64{1 - p, p}
		if p > 0.5 {
			classes[i] = 1
		}
	}
	return probs, classes, nil
}

// BenchmarkReplicaHopJSON is the hop as the parent ran it: request
// marshalled, decoded by the handler, answer encoded and decoded again,
// all through an in-memory transport.
func BenchmarkReplicaHopJSON(b *testing.B) {
	req, _ := predictBody(b, 64, 21)
	client := &http.Client{Transport: handlerTransport{PredictHandler(twoClass)}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var resp serving.PredictResponse
		if err := Do(context.Background(), client, "POST", "http://replica/replica/predict", nil, req, &resp); err != nil || len(resp.Probs) != 64 {
			b.Fatal(err)
		}
	}
}

func BenchmarkReplicaHopFrame(b *testing.B) {
	req, _ := predictBody(b, 64, 21)
	client := &http.Client{Transport: handlerTransport{PredictHandler(twoClass)}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		probs, _, err := Predict(context.Background(), client, "http://replica/replica/predict", req.ModelID, req.Instances)
		if err != nil || len(probs) != 64 {
			b.Fatal(err)
		}
	}
}
