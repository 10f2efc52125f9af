package wire

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ml"
	"repro/internal/serving"
	"repro/internal/telemetry"
)

type echoReq struct {
	Msg string `json:"msg"`
}

// failWith serves a handler that always fails with err.
func failWith(err error) http.Handler {
	return Handle(func(context.Context, *echoReq) (echoReq, error) { return echoReq{}, err })
}

// TestErrorTableRoundTrip walks the one error→status table: what a
// handler's error becomes on the wire, and what Do hands back to the
// caller from it.
func TestErrorTableRoundTrip(t *testing.T) {
	shed := &serving.OverloadedError{Ref: "m", Depth: 3, RetryAfter: 1500 * time.Millisecond}
	cases := []struct {
		name       string
		err        error
		status     int
		kind       string
		retryAfter string
		is         error // what the error Do returns must match; nil = a bare status
	}{
		{"decode failure", BadRequest(errors.New("bad")), 400, "badrequest", "", nil},
		{"oversized body", Tag(ErrTooLarge, errors.New("big")), 413, "toolarge", "", nil},
		{"too many instances", fmt.Errorf("%w: 769, limit 768", serving.ErrTooManyInstances), 413, "toomany", "", serving.ErrTooManyInstances},
		{"not found", fmt.Errorf("lookup: %w", serving.ErrNotFound), 404, "notfound", "", serving.ErrNotFound},
		{"not found beats a conflict tag", Conflict(fmt.Errorf("promote: %w", serving.ErrNotFound)), 404, "notfound", "", serving.ErrNotFound},
		{"conflict", Conflict(errors.New("no history")), 409, "conflict", "", nil},
		{"conflict tag beats down", Conflict(fmt.Errorf("aborted: %w", ErrReplicaDown)), 409, "conflict", "", nil},
		{"internal", Tag(ErrInternal, errors.New("disk")), 500, "internal", "", nil},
		{"domain error", errors.New("dimension mismatch"), 422, "", "", nil},
		{"input mismatch", fmt.Errorf("serving: instance 0: %w", ml.Widths{Min: 2, Max: math.MaxInt}.Check(1)), 422, "mismatch", "", ml.ErrInput},
		{"shed", fmt.Errorf("predict: %w", shed), 429, "overloaded", "2", nil},
		{"replica down", fmt.Errorf("replica r1: %w", ErrReplicaDown), 503, "down", "", ErrReplicaDown},
		{"no replicas", ErrNoReplicas, 503, "noreplicas", "", ErrNoReplicas},
		{"closed runtime is a down replica", serving.ErrClosed, 503, "down", "", ErrReplicaDown},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(failWith(tc.err))
			defer srv.Close()
			rec := httptest.NewRecorder()
			failWith(tc.err).ServeHTTP(rec, httptest.NewRequest("POST", "/", strings.NewReader(`{}`)))
			if rec.Code != tc.status || rec.Header().Get("Retry-After") != tc.retryAfter ||
				rec.Header().Get("Content-Type") != "application/json" {
				t.Fatalf("wrote %d Retry-After=%q %q, want %d %q", rec.Code, rec.Header().Get("Retry-After"),
					rec.Header().Get("Content-Type"), tc.status, tc.retryAfter)
			}

			err := Do(context.Background(), srv.Client(), "POST", srv.URL, nil, echoReq{}, nil)
			var se *StatusError
			if !errors.As(err, &se) {
				t.Fatalf("Do returned %v, want a *StatusError", err)
			}
			if se.Status != tc.status || se.Kind != tc.kind || se.Message != tc.err.Error() {
				t.Fatalf("Do returned %+v, want status %d kind %q message %q", se, tc.status, tc.kind, tc.err.Error())
			}
			if tc.is != nil && !errors.Is(err, tc.is) {
				t.Fatalf("Do returned %v, which is not %v", err, tc.is)
			}
			for _, other := range []error{serving.ErrNotFound, ErrReplicaDown, ErrNoReplicas, ErrConflict, ErrBadRequest} {
				if other != tc.is && errors.Is(err, other) {
					t.Fatalf("Do returned %v, which also matches %v", err, other)
				}
			}
			var over *serving.OverloadedError
			if gotShed := errors.As(err, &over); gotShed != (tc.kind == "overloaded") {
				t.Fatalf("errors.As(*OverloadedError) = %v for kind %q", gotShed, tc.kind)
			}
			if over != nil && (over.RetryAfter != shed.RetryAfter || se.RetryAfter != shed.RetryAfter) {
				t.Fatalf("retry hint %v / %v, want the exact %v", over.RetryAfter, se.RetryAfter, shed.RetryAfter)
			}
		})
	}
}

// TestDoNonEnvelopeAnswer: an error answer that is no envelope (a proxy's
// plain text) still yields the status and the Retry-After header.
func TestDoNonEnvelopeAnswer(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "3")
		http.Error(w, "rate limit exceeded", http.StatusTooManyRequests)
	}))
	defer srv.Close()
	err := Do(context.Background(), srv.Client(), "GET", srv.URL, nil, nil, nil)
	var se *StatusError
	if !errors.As(err, &se) || se.Status != 429 || se.RetryAfter != 3*time.Second || se.Kind != "" {
		t.Fatalf("got %v (%+v)", err, se)
	}
}

func TestDecodeStrictness(t *testing.T) {
	ok := Handle(func(_ context.Context, req *echoReq) (echoReq, error) { return *req, nil })
	cases := []struct {
		name, body string
		status     int
	}{
		{"one value", `{"msg":"hi"}`, 200},
		{"trailing whitespace", "{\"msg\":\"hi\"}\n \t\n", 200},
		{"unknown field", `{"msg":"hi","extra":1}`, 400},
		{"malformed", `{"msg":`, 400},
		{"empty body", ``, 400},
		{"second value", `{"msg":"hi"} {"msg":"again"}`, 400},
		{"trailing garbage", `{"msg":"hi"}}`, 400},
		{"trailing text", `{"msg":"hi"} x`, 400},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		ok.ServeHTTP(rec, httptest.NewRequest("POST", "/", strings.NewReader(tc.body)))
		if rec.Code != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, rec.Code, tc.status, rec.Body)
		}
	}
}

// countingReader counts the bytes a handler pulled from a body.
type countingReader struct {
	r io.Reader
	n atomic.Int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func TestDecodeBodyLimit(t *testing.T) {
	// A declared length over the limit is refused before a byte is read.
	body := &countingReader{r: strings.NewReader(`{"msg":"hi"}`)}
	req := httptest.NewRequest("POST", "/", body)
	req.ContentLength = MaxBodyBytes + 1
	rec := httptest.NewRecorder()
	failWith(nil).ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge || body.n.Load() != 0 {
		t.Fatalf("declared oversize: status %d after reading %d bytes, want 413 after 0", rec.Code, body.n.Load())
	}
	if !strings.Contains(rec.Body.String(), `"kind":"toolarge"`) {
		t.Fatalf("413 body is not the envelope: %s", rec.Body)
	}

	// An undeclared (chunked) body is cut off at the limit while streaming.
	var got echoReq
	req = httptest.NewRequest("POST", "/", strings.NewReader(`{"msg":"`+strings.Repeat("x", 100)+`"}`))
	req.ContentLength = -1
	err := decode(httptest.NewRecorder(), req, &got, 64)
	if !errors.Is(err, ErrTooLarge) || errors.Is(err, ErrBadRequest) {
		t.Fatalf("streamed oversize: %v, want ErrTooLarge", err)
	}
	// At the limit exactly is fine.
	exact := `{"msg":"` + strings.Repeat("x", 54) + `"}`
	if err := decode(httptest.NewRecorder(), httptest.NewRequest("POST", "/", strings.NewReader(exact)), &got, int64(len(exact))); err != nil {
		t.Fatalf("body of exactly the limit: %v", err)
	}
}

// TestDoPropagatesTrace: a context carrying a trace reaches the server
// with both headers; a context without one sends neither.
func TestDoPropagatesTrace(t *testing.T) {
	var trace, span atomic.Value
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		trace.Store(r.Header.Get(telemetry.HeaderTraceID))
		span.Store(r.Header.Get(telemetry.HeaderSpanID))
		Write(w, http.StatusOK, echoReq{})
	}))
	defer srv.Close()

	ctx := telemetry.ContextWithTrace(context.Background(), "trace-abc", "span-123")
	if err := Do(ctx, srv.Client(), "POST", srv.URL, nil, echoReq{}, nil); err != nil {
		t.Fatal(err)
	}
	if trace.Load() != "trace-abc" || span.Load() != "span-123" {
		t.Fatalf("server saw trace %q span %q", trace.Load(), span.Load())
	}
	if err := Do(context.Background(), srv.Client(), "POST", srv.URL, nil, echoReq{}, nil); err != nil {
		t.Fatal(err)
	}
	if trace.Load() != "" || span.Load() != "" {
		t.Fatalf("traceless context sent trace %q span %q", trace.Load(), span.Load())
	}
}

// TestDoDefaultsToTheSharedClient: without an injected client Do uses
// DefaultClient, which — unlike http.DefaultClient — has a timeout.
func TestDoDefaultsToTheSharedClient(t *testing.T) {
	if DefaultClient == http.DefaultClient || DefaultClient.Timeout <= 0 {
		t.Fatalf("DefaultClient %+v must be a private client with a timeout", DefaultClient)
	}
	srv := httptest.NewServer(Handle(func(_ context.Context, req *echoReq) (echoReq, error) { return *req, nil }))
	defer srv.Close()
	var used atomic.Int64
	saved := DefaultClient.Transport
	DefaultClient.Transport = roundTripFunc(func(r *http.Request) (*http.Response, error) {
		used.Add(1)
		return http.DefaultTransport.RoundTrip(r)
	})
	defer func() { DefaultClient.Transport = saved }()
	var out echoReq
	if err := Do(context.Background(), nil, "POST", srv.URL, http.Header{"X-Api-Key": {"k"}}, echoReq{Msg: "hi"}, &out); err != nil {
		t.Fatal(err)
	}
	if used.Load() != 1 || out.Msg != "hi" {
		t.Fatalf("shared client used %d times, echoed %q", used.Load(), out.Msg)
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

func TestServersLifecycle(t *testing.T) {
	var servers Servers
	hello := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { Write(w, http.StatusOK, echoReq{Msg: "hello"}) })
	a, err := servers.Listen("127.0.0.1:0", hello)
	if err != nil {
		t.Fatal(err)
	}
	b, err := servers.Listen("127.0.0.1:0", hello)
	if err != nil {
		t.Fatal(err)
	}
	// A taken address fails at Listen, not later in a goroutine.
	if _, err := servers.Listen(strings.TrimPrefix(a, "http://"), hello); err == nil {
		t.Fatal("second Listen on a bound address succeeded")
	}
	client := &http.Client{Transport: &http.Transport{}}
	for _, url := range []string{a, b} {
		var out echoReq
		if err := Do(context.Background(), client, "GET", url, nil, nil, &out); err != nil || out.Msg != "hello" {
			t.Fatalf("%s: %v %q", url, err, out.Msg)
		}
	}

	// Owners of outbound connections stop before the servers drain.
	var order []string
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	start := time.Now()
	err = servers.Shutdown(ctx, func() {
		order = append(order, "owner")
		client.CloseIdleConnections()
	})
	if err != nil || len(order) != 1 {
		t.Fatalf("shutdown: %v, owners stopped %v", err, order)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("shutdown of idle servers took %v", d)
	}
	if err := Do(context.Background(), client, "GET", a, nil, nil, nil); err == nil {
		t.Fatal("server still answering after Shutdown")
	}
	// Nothing left to stop: a second Shutdown is a no-op.
	if err := servers.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestServersWaitReturnsOnContext: Wait is a main's tail — it blocks until
// its context ends, then shuts the servers down.
func TestServersWaitReturnsOnContext(t *testing.T) {
	var servers Servers
	url, err := servers.Listen("127.0.0.1:0", http.NotFoundHandler())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	stopped := make(chan struct{})
	go func() { done <- servers.Wait(ctx, func() { close(stopped) }) }()
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait did not return after its context ended")
	}
	<-stopped
	if err := Do(context.Background(), nil, "GET", url, nil, nil, nil); err == nil {
		t.Fatal("server still answering after Wait returned")
	}
}
