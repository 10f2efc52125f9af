package wire_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/ml"
	"repro/internal/service"
	"repro/internal/serving"
	"repro/internal/wire"
)

// requestTypes are the request types the one-pass decoder reads on the
// explain and promote routes.
var requestTypes = []func() any{
	func() any { return new(service.SHAPRequest) },
	func() any { return new(service.LIMETabularRequest) },
	func() any { return new(service.LIMEImageRequest) },
	func() any { return new(service.OcclusionRequest) },
	func() any { return new(serving.PromoteRequest) },
}

// probe is the explain probe's SHAP request: the 21→128→64→3 nn inline,
// one instance, a 16 × 21 background drawn as the end-to-end benchmark
// draws it, from the UC2 flow table scaled into [0, 1] with N(0, 0.02²)
// jitter. Training length does not change the envelope's size.
var probe = sync.OnceValues(func() (service.SHAPRequest, error) {
	table, _, err := datagen.NetTraffic(datagen.DefaultNetTrafficConfig())
	if err != nil {
		return service.SHAPRequest{}, err
	}
	mm, err := dataset.FitMinMax(table)
	if err != nil {
		return service.SHAPRequest{}, err
	}
	if err := mm.Transform(table); err != nil {
		return service.SHAPRequest{}, err
	}
	cfg := ml.DefaultMLPConfig()
	cfg.Epochs = 1
	nn := ml.NewMLP(cfg)
	if err := nn.Fit(table); err != nil {
		return service.SHAPRequest{}, err
	}
	blob, err := ml.MarshalModel(nn)
	if err != nil {
		return service.SHAPRequest{}, err
	}
	rng := rand.New(rand.NewSource(141))
	rows := make([][]float64, 17)
	for i := range rows {
		src := table.X[rng.Intn(table.Len())]
		rows[i] = make([]float64, len(src))
		for j, v := range src {
			rows[i][j] = math.Min(1, math.Max(0, v+0.02*rng.NormFloat64()))
		}
	}
	return service.SHAPRequest{Model: blob, Instance: rows[16], Class: ml.Predict(nn, rows[16]),
		Background: rows[:16], Samples: 128, Seed: rng.Int63()}, nil
})

// probeBody is the probe as the benchmark sends it.
func probeBody(tb testing.TB) (service.SHAPRequest, []byte) {
	tb.Helper()
	req, err := probe()
	if err != nil {
		tb.Fatal(err)
	}
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	// Marshal compacts the envelope; the request carries what was sent.
	var sent service.SHAPRequest
	if err := json.Unmarshal(body, &sent); err != nil {
		tb.Fatal(err)
	}
	return sent, body
}

// same compares two decoded values: floats bit for bit, raw bytes byte
// for byte, a nil slice apart from an empty one.
func same(got, want reflect.Value) error {
	switch got.Kind() {
	case reflect.Float64:
		if math.Float64bits(got.Float()) != math.Float64bits(want.Float()) {
			return fmt.Errorf("%x, want %x", math.Float64bits(got.Float()), math.Float64bits(want.Float()))
		}
	case reflect.Slice:
		if got.IsNil() != want.IsNil() || got.Len() != want.Len() {
			return fmt.Errorf("%d values (nil: %v), want %d (nil: %v)", got.Len(), got.IsNil(), want.Len(), want.IsNil())
		}
		if got.Type().Elem().Kind() == reflect.Uint8 {
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				return fmt.Errorf("%q, want %q", got.Bytes(), want.Bytes())
			}
			return nil
		}
		for i := 0; i < got.Len(); i++ {
			if err := same(got.Index(i), want.Index(i)); err != nil {
				return fmt.Errorf("[%d]: %w", i, err)
			}
		}
	case reflect.Struct:
		for i := 0; i < got.NumField(); i++ {
			if err := same(got.Field(i), want.Field(i)); err != nil {
				return fmt.Errorf("%s: %w", got.Type().Field(i).Name, err)
			}
		}
	default:
		if got.Interface() != want.Interface() {
			return fmt.Errorf("%v, want %v", got, want)
		}
	}
	return nil
}

// checkDecodeMatchesJSON is the fuzz property, shared with the table test.
func checkDecodeMatchesJSON(t *testing.T, data []byte) {
	t.Helper()
	data = data[:len(data):len(data)] // a read past the end panics, not reads spare capacity
	if got, want := wire.ValidJSON(data), json.Valid(data); got != want {
		t.Fatalf("%.200q: skipper says valid = %v, json.Valid %v", data, got, want)
	}
	for _, newReq := range requestTypes {
		fast, slow := newReq(), newReq()
		if !wire.DecodeFast(data, fast) {
			continue
		}
		if err := wire.DecodeStream(bytes.NewReader(data), slow); err != nil {
			t.Fatalf("%.200q: fast path took it as %T, encoding/json refuses it: %v", data, fast, err)
		}
		if err := same(reflect.ValueOf(fast).Elem(), reflect.ValueOf(slow).Elem()); err != nil {
			t.Fatalf("%.200q as %T: %v", data, fast, err)
		}
	}
	// Decode whole: where the one pass gives up midway, encoding/json
	// reads the same bytes into what it left, and must end where it ends
	// on a fresh value.
	for _, newReq := range requestTypes {
		got, want := newReq(), newReq()
		gotErr, wantErr := decodeRequest(data, got), wire.DecodeStream(bytes.NewReader(data), want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%.200q as %T: Decode says %v, encoding/json %v", data, got, gotErr, wantErr)
		}
		if gotErr == nil {
			if err := same(reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem()); err != nil {
				t.Fatalf("%.200q as %T through Decode: %v", data, got, err)
			}
		}
	}
}

func nested(depth int) string { return strings.Repeat("[", depth) + strings.Repeat("]", depth) }

// fastPath pins which spellings the one-pass decoder takes as a SHAP
// request itself — the property is vacuous for a decoder that takes
// nothing. Nesting counts the request's own object, as encoding/json does.
var fastPath = map[string]bool{
	`{"model":{"kind":"nn","spec":[1,-2.5e-3,true,false,null,"x"]},"instance":[0.5,1],"class":2,"background":[[1,2],[3,4]],"samples":128,"seed":7}`: true,
	`{"background":[[1,2],[3,4]],"model":{"w":[[0.1,0.2],[0.3]]},"class":0}`:                                                                        true,
	" {\n\t\"model\" : [ 1 , { \"a\" : [ ] } , { } ] ,\r\n \"instance\" : [ ] , \"background\" : [ [ ] ] } \n":                                      true,
	`{}`:                              true,
	`{"model":"xé\"y\\\/\b\f\n\r\t"}`: true,
	`{"model":{"aé":"𝄞"}}`:            true,
	"{\"model\":\"\xff\xfe\"}":        true, // invalid UTF-8 is encoding/json's to keep, not to refuse
	`{"model":` + nested(9999) + `}`:  true,
	`{"model":` + nested(10000) + `}`: false,
	`{"class":9223372036854775807,"seed":-9223372036854775808}`: true,
	`{"class":-0}`:                  true,
	`{"seed":9223372036854775808}`:  false,
	`{"seed":-9223372036854775809}`: false,
	`{"class":1e2}`:                 false,
	`{"class":1.0}`:                 false,
	`{"class":"1"}`:                 false,
	`{"Model":{}}`:                  false,
	`{"CLASS":1}`:                   false,
	`{"class":1,"class":2}`:         false,
	`{"model":null}`:                false,
	`{"background":null}`:           false,
	`{"class":null}`:                false,
	`{"instance":[1,null]}`:         false,
	`{"background":[[1],null]}`:     false,
	`{"model":{"a":1,}}`:            false,
	`{"model":{"a" 1}}`:             false,
	`{"model":[1 2]}`:               false,
	`{"model":"\x"}`:                false,
	`{"model":"\u12G4"}`:            false,
	`{"model":"\u123`:               false,
	"{\"model\":\"a\tb\"}":          false,
	"{\"model\":\"\x1f\"}":          false,
	`{"model":[01]}`:                false,
	`{"model":[.5]}`:                false,
	`{"model":[1.]}`:                false,
	`{"model":[-]}`:                 false,
	`{"model":[1e]}`:                false,
	`{"model":[tru]}`:               false,
	`{"model":[nul]}`:               false,
	`{"model":[1]]}`:                false,
	`{"model":{]}`:                  false,
	`{"model":[}`:                   false,
	`{"instance":[1e400]}`:          false,
	`{"extra":1}`:                   false,
	`{"class":1,}`:                  false,
	"\ufeff" + `{"class":1}`:        false,
	`{"class":1} x`:                 false,
	`{"class":1}}`:                  false,
	`{"class":1} {}`:                false,
	`{"class":1`:                    false,
	``:                              false,
}

func TestDecodeFastPath(t *testing.T) {
	for body, fast := range fastPath {
		var req service.SHAPRequest
		data := []byte(body)
		if got := wire.DecodeFast(data[:len(data):len(data)], &req); got != fast {
			t.Errorf("%.80q: fast path took it = %v, want %v", body, got, fast)
		}
		checkDecodeMatchesJSON(t, []byte(body))
	}
	_, body := probeBody(t)
	var req service.SHAPRequest
	if !wire.DecodeFast(body, &req) {
		t.Fatal("fast path refused the probe's body")
	}
	checkDecodeMatchesJSON(t, body)
	for body, fast := range map[string]bool{
		`{"name":"lgbm","version":2}`:       true,
		`{"name":"lgbm\u0041","version":2}`: false,
		`{"name":"lgbm","version":2.5}`:     false,
	} {
		var req serving.PromoteRequest
		if got := wire.DecodeFast([]byte(body), &req); got != fast {
			t.Errorf("%q: fast path took it = %v, want %v", body, got, fast)
		}
		checkDecodeMatchesJSON(t, []byte(body))
	}
}

func FuzzDecodeMatchesJSON(f *testing.F) {
	for body := range fastPath {
		f.Add([]byte(body))
	}
	f.Add([]byte(`{"model":{},"image":[0.5,1],"class":1,"w":2,"h":1,"patch":1,"samples":3,"seed":-4}`))
	f.Add([]byte(`{"model":{},"image":[0.5,1],"w":2,"h":1,"window":1,"stride":1,"baseline":0.5}`))
	f.Add([]byte(`{"model":{},"instance":[0.5],"scale":[1],"samples":3}`))
	f.Add([]byte(`{"name":"lgbm","version":2}`))
	f.Fuzz(checkDecodeMatchesJSON)
}

// decodeRequest runs body through wire.Decode as a handler would.
func decodeRequest(body []byte, v any) error {
	r := httptest.NewRequest("POST", "/explain", bytes.NewReader(body))
	return wire.Decode(httptest.NewRecorder(), r, v)
}

// TestDecodeDoesNotAliasPool: what Decode returns is the caller's; the
// buffer the body was read into goes back to the pool and is reused.
func TestDecodeDoesNotAliasPool(t *testing.T) {
	want, body := probeBody(t)
	var got service.SHAPRequest
	if err := decodeRequest(body, &got); err != nil {
		t.Fatal(err)
	}
	wire.OverwritePooledBody('x')
	if err := same(reflect.ValueOf(got), reflect.ValueOf(want)); err != nil {
		t.Fatalf("after the pooled buffer was overwritten: %v", err)
	}
	// The same on a buffer the test holds, which no pool can hand elsewhere.
	data := bytes.Clone(body)
	got = service.SHAPRequest{}
	if !wire.DecodeFast(data, &got) {
		t.Fatal("fast path refused the probe's body")
	}
	for i := range data {
		data[i] = 'x'
	}
	if err := same(reflect.ValueOf(got), reflect.ValueOf(want)); err != nil {
		t.Fatalf("after the body was overwritten: %v", err)
	}
}

// raceEnabled is set by race_test.go.
var raceEnabled bool

// TestDecodeAllocs: the probe's body costs Decode a fixed handful of
// allocations — the limit reader, the model's copy, the instance, the
// background's two arrays, and here the caller's request value — where
// encoding/json makes 130.
func TestDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	_, body := probeBody(t)
	r := httptest.NewRequest("POST", "/shap/explain", nil)
	w := httptest.NewRecorder()
	rd := bytes.NewReader(body)
	r.Body = io.NopCloser(rd)
	got := testing.AllocsPerRun(20, func() {
		rd.Reset(body)
		var req service.SHAPRequest
		if err := wire.Decode(w, r, &req); err != nil {
			t.Fatal(err)
		}
	})
	if got > 8 {
		t.Errorf("Decode of the probe's body: %v allocations, want at most 8", got)
	}
}

// TestMatrixSizedByItsOwnExtent: a background sent before the model is
// sized from its own commas, not the model's thousands.
func TestMatrixSizedByItsOwnExtent(t *testing.T) {
	want, _ := probeBody(t)
	body, err := json.Marshal(map[string]any{"background": want.Background, "model": want.Model})
	if err != nil {
		t.Fatal(err)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		var req service.SHAPRequest
		if !wire.DecodeFast(body, &req) {
			t.Fatal("fast path refused the body")
		}
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	if limit := uint64(len(want.Model) + 16<<10); perRun > limit {
		t.Errorf("%d bytes allocated a decode, want at most %d: the %d-byte model and a 16 × 21 background",
			perRun, limit, len(want.Model))
	}
}

// BenchmarkDecodeExplainBody decodes the explain probe's SHAP body from a
// request: json is encoding/json over the limited body, as every request
// was decoded before the one-pass decoder and as decodeStream still does;
// fast is Decode.
func BenchmarkDecodeExplainBody(b *testing.B) {
	_, body := probeBody(b)
	for _, c := range []struct {
		name   string
		decode func(w http.ResponseWriter, r *http.Request, v any) error
	}{
		{"json", func(w http.ResponseWriter, r *http.Request, v any) error {
			return wire.DecodeStream(http.MaxBytesReader(w, r.Body, wire.MaxBodyBytes), v)
		}},
		{"fast", wire.Decode},
	} {
		b.Run(c.name, func(b *testing.B) {
			r := httptest.NewRequest("POST", "/shap/explain", nil)
			w := httptest.NewRecorder()
			rd := bytes.NewReader(body)
			r.Body = io.NopCloser(rd)
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rd.Reset(body)
				var req service.SHAPRequest
				if err := c.decode(w, r, &req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
