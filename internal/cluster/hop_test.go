package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/serving"
	"repro/internal/wire"
)

// The replica hop under attack: /replica/predict carries float64 frames
// (wire.FrameType) between HTTPBackend and Replica.Handler, and every way
// a frame or the replica behind it can fail must come out as the typed
// answer the JSON hop gave — and move the router exactly as it did.

// requestFrame spells the documented request layout by hand, so the test
// holds the layout and not only the encoder's agreement with the decoder.
func requestFrame(ref string, rows, cols uint32, values ...float64) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(ref)))
	b = append(b, ref...)
	b = binary.LittleEndian.AppendUint32(b, rows)
	b = binary.LittleEndian.AppendUint32(b, cols)
	for _, v := range values {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

func postFrame(h http.Handler, frame []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest("POST", "/replica/predict", bytes.NewReader(frame))
	req.Header.Set("Content-Type", wire.FrameType)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestReplicaRefusesBadFrames: a truncated frame, a frame whose declared
// rows × cols overflows or disagrees with its length, and a frame over the
// body limit are typed refusals, and the replica serves the next request.
func TestReplicaRefusesBadFrames(t *testing.T) {
	rp := NewReplica("replica-0", serving.Config{MaxBatch: 1})
	defer rp.Close()
	if _, err := rp.Runtime().Registry().Register("demo", trainedModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	h := rp.Handler()
	good := requestFrame("demo", 2, 2, 2, 0, -2, 0)
	for _, tc := range []struct {
		name   string
		frame  []byte
		status int
		kind   string
	}{
		{"truncated", good[:len(good)-3], 400, "badrequest"},
		{"a row short", requestFrame("demo", 3, 2, 2, 0, -2, 0), 400, "badrequest"},
		{"rows × cols overflows", requestFrame("demo", 1<<31, 1<<30), 400, "badrequest"},
		{"trailing bytes", append(append([]byte{}, good...), 0), 400, "badrequest"},
	} {
		rec := postFrame(h, tc.frame)
		var env wire.Envelope
		if rec.Code != tc.status || json.Unmarshal(rec.Body.Bytes(), &env) != nil || env.Kind != tc.kind {
			t.Errorf("%s: answered %d %s, want %d kind %s", tc.name, rec.Code, rec.Body, tc.status, tc.kind)
		}
	}
	req := httptest.NewRequest("POST", "/replica/predict", bytes.NewReader(good))
	req.Header.Set("Content-Type", wire.FrameType)
	req.ContentLength = wire.MaxBodyBytes + 1
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), `"kind":"toolarge"`) {
		t.Errorf("frame over the body limit: answered %d %s, want 413", rec.Code, rec.Body)
	}

	rec = postFrame(h, good)
	if rec.Code != 200 || rec.Header().Get("Content-Type") != wire.FrameType {
		t.Fatalf("good frame after the bad ones: %d %s", rec.Code, rec.Body)
	}
	// rows, cols, two int32 classes, then the probabilities.
	b := rec.Body.Bytes()
	if len(b) != 8+2*4+2*2*8 || binary.LittleEndian.Uint32(b) != 2 || binary.LittleEndian.Uint32(b[4:]) != 2 ||
		binary.LittleEndian.Uint32(b[8:]) != 1 || binary.LittleEndian.Uint32(b[12:]) != 0 {
		t.Fatalf("response frame % x", b)
	}
	want, _, err := rp.Predict(context.Background(), "demo", testInstances)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if got := binary.LittleEndian.Uint64(b[16+8*i:]); got != math.Float64bits(want[i/2][i%2]) {
			t.Fatalf("probability %d crossed as %x, the replica computed %x", i, got, math.Float64bits(want[i/2][i%2]))
		}
	}
}

// dyingReplica is an HTTP server that takes a predict request and dies:
// before it has read the request's frame, or halfway through its answer.
func dyingReplica(t *testing.T, midAnswer bool) *httptest.Server {
	t.Helper()
	// Joins, pushes and heartbeats see a healthy replica.
	rp := NewReplica("replica-dying", serving.Config{MaxBatch: 1})
	t.Cleanup(rp.Close)
	rest := rp.Handler()
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/replica/predict" {
			rest.ServeHTTP(w, r)
			return
		}
		conn, buf, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		defer func() { _ = conn.Close() }()
		if midAnswer {
			_, _ = io.Copy(io.Discard, r.Body)
			_, _ = buf.WriteString("HTTP/1.1 200 OK\r\nContent-Type: " + wire.FrameType + "\r\nContent-Length: 48\r\n\r\n\x02\x00\x00\x00\x02\x00")
			_ = buf.Flush()
		}
	}))
}

// TestReplicaKilledMidFrame: a replica that dies with a frame half sent,
// in either direction, is ErrReplicaDown to the router, which demotes it
// and answers from the survivor; alone, the front answers the typed 503.
func TestReplicaKilledMidFrame(t *testing.T) {
	for name, midAnswer := range map[string]bool{"reading the request": false, "writing the answer": true} {
		t.Run(name, func(t *testing.T) {
			dying := dyingReplica(t, midAnswer)
			defer dying.Close()
			hb := NewHTTPBackend("replica-dying", dying.URL, dying.Client())
			if _, _, err := hb.Predict(context.Background(), "demo", testInstances); !errors.Is(err, ErrReplicaDown) {
				t.Fatalf("replica died %s: %v, want ErrReplicaDown", name, err)
			}

			c := New(Config{RPCTimeout: 10 * time.Second})
			healthy := NewReplica("replica-healthy", serving.Config{MaxBatch: 1})
			defer healthy.Close()
			for _, b := range []Backend{hb, healthy} {
				if err := c.Join(b); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := c.Register("demo", trainedModel(t, 1)); err != nil {
				t.Fatal(err)
			}
			want, _, err := healthy.Predict(context.Background(), "demo", testInstances)
			if err != nil {
				t.Fatal(err)
			}
			front := c.Handler()
			// Whoever owns the shard, two requests reach the dying member at
			// most once: it is demoted on the first failure.
			for i := 0; i < 2; i++ {
				rec := httptest.NewRecorder()
				front.ServeHTTP(rec, httptest.NewRequest("POST", "/predict", strings.NewReader(`{"modelId":"demo","instances":[[2,0],[-2,0]]}`)))
				var resp serving.PredictResponse
				if rec.Code != 200 || json.Unmarshal(rec.Body.Bytes(), &resp) != nil || fmt.Sprint(resp.Probs) != fmt.Sprint(want) {
					t.Fatalf("request %d: %d %s, want the survivor's %v", i, rec.Code, rec.Body, want)
				}
			}
			healthy.Kill()
			if _, _, err := c.Predict(context.Background(), "demo", testInstances); !errors.Is(err, ErrNoReplicas) {
				t.Fatalf("both replicas dead: %v, want ErrNoReplicas", err)
			}
			rec := httptest.NewRecorder()
			front.ServeHTTP(rec, httptest.NewRequest("POST", "/predict", strings.NewReader(`{"modelId":"demo","instances":[[2,0]]}`)))
			if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), `"kind":"noreplicas"`) {
				t.Fatalf("front with no live replica: %d %s, want the typed 503", rec.Code, rec.Body)
			}
			for _, r := range c.Status().Replicas {
				if r.ID == "replica-dying" && r.Up {
					t.Fatalf("replica that died mid-frame is still up: %+v", r)
				}
			}
		})
	}
}

// TestConcurrentCallersGetTheirOwnRows: sixteen callers through one
// HTTPBackend, each with rows of its own, each compared bit for bit with
// what the replica computes in process. Request and answer bytes pass
// through pooled buffers on both ends; a buffer handed on while its rows
// were still being read would show here (and under -race).
func TestConcurrentCallersGetTheirOwnRows(t *testing.T) {
	rp := NewReplica("replica-0", serving.Config{})
	defer rp.Close()
	if _, err := rp.Runtime().Registry().Register("demo", trainedModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(rp.Handler())
	defer srv.Close()
	hb := NewHTTPBackend("replica-0", srv.URL, srv.Client())

	const callers, rounds = 16, 25
	ctx := context.Background()
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				// A different height each round, so buffers change hands
				// between requests of different sizes.
				rows := make([][]float64, 1+(c+round)%7)
				for i := range rows {
					rows[i] = []float64{float64(c) - 8 + float64(i)/16, float64(round) / 32}
				}
				got, gotClasses, err := hb.Predict(ctx, "demo", rows)
				if err != nil {
					t.Errorf("caller %d round %d: %v", c, round, err)
					return
				}
				want, wantClasses, err := rp.Predict(ctx, "demo", rows)
				if err != nil {
					t.Errorf("caller %d round %d in process: %v", c, round, err)
					return
				}
				if len(got) != len(want) || fmt.Sprint(gotClasses) != fmt.Sprint(wantClasses) {
					t.Errorf("caller %d round %d: %d rows %v, in process %d rows %v", c, round, len(got), gotClasses, len(want), wantClasses)
					return
				}
				for i := range want {
					for j := range want[i] {
						if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
							t.Errorf("caller %d round %d: [%d][%d] = %v over the hop, %v in process", c, round, i, j, got[i][j], want[i][j])
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}
