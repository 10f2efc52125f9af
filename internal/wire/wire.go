// Package wire is the single holder of the HTTP/JSON request shape every
// SPATIAL tier speaks: the strict request decoder (its one-pass form and
// the one body reader in decode.go), the response writer,
// the error envelope with its one error→status table, the generic typed
// handler, the client round trip that turns an envelope back into the
// typed error it was written from, (predict.go) the predict path's numeric
// codec — JSON fast path and float64 frames — and (serve.go) the
// listen/serve/shutdown lifecycle. Services, the cluster front, the
// replica hop and the mains are plain functions over it.
package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/ml"
	"repro/internal/serving"
	"repro/internal/telemetry"
)

// MaxBodyBytes bounds every request body. The largest legitimate upload
// is a UC1 train request: 11 771 windows × 451 features × ≤ 25 bytes per
// JSON float64 (24 digits and a comma) ≈ 133 MB for train and eval
// together, so 256 MiB leaves headroom without letting one request pin
// the heap.
const MaxBodyBytes = 256 << 20

// Handlers place an error in the status table by wrapping it with Tag;
// the text the client sees stays the wrapped error's own.
var (
	ErrBadRequest = errors.New("bad request")
	ErrTooLarge   = errors.New("request body too large")
	ErrConflict   = errors.New("conflict")
	ErrInternal   = errors.New("internal error")
	// ErrReplicaDown and ErrNoReplicas are the cluster tier's routing
	// errors (re-exported by internal/cluster); they live here so the one
	// table can name them without importing its own caller.
	ErrReplicaDown = errors.New("cluster: replica down")
	ErrNoReplicas  = errors.New("cluster: no replica available")
)

// table is the one error→status mapping, walked top to bottom: the first
// row the error matches wins, and an error matching none is a domain
// error, 422. A shed (*serving.OverloadedError → 429, kind "overloaded")
// is checked before the table because it is a type, not a sentinel. Tags
// sit above the 503 rows so a handler that tags a failed two-phase
// promote as a conflict answers 409 even when a down replica caused it.
var table = []struct {
	kind   string
	status int
	is     error
	// typed rows come back from Do as the same sentinel; the others are
	// statuses only, so a tag never leaks across a hop and re-maps there.
	typed bool
}{
	{"notfound", http.StatusNotFound, serving.ErrNotFound, true},
	{"badrequest", http.StatusBadRequest, ErrBadRequest, false},
	{"toolarge", http.StatusRequestEntityTooLarge, ErrTooLarge, false},
	// More instances than one request may carry: as final as an oversized
	// body, and typed so the cluster front answers a replica's refusal
	// with the same 413 instead of a 422.
	{"toomany", http.StatusRequestEntityTooLarge, serving.ErrTooManyInstances, true},
	{"conflict", http.StatusConflict, ErrConflict, false},
	{"internal", http.StatusInternalServerError, ErrInternal, false},
	{"down", http.StatusServiceUnavailable, ErrReplicaDown, true},
	{"noreplicas", http.StatusServiceUnavailable, ErrNoReplicas, true},
	// To its caller a closed runtime is a down replica: the router fails
	// over on it exactly as on a killed one.
	{"down", http.StatusServiceUnavailable, serving.ErrClosed, false},
	// A row or label the model cannot take (ml.CheckInput): the status an
	// unmatched domain error gets anyway, named so a client can tell it
	// from a failed computation, and typed so the cluster front answers a
	// replica's refusal as the same 422.
	{"mismatch", http.StatusUnprocessableEntity, ml.ErrInput, true},
}

const kindOverloaded = "overloaded"

type tagged struct{ kind, err error }

func (e *tagged) Error() string   { return e.err.Error() }
func (e *tagged) Unwrap() []error { return []error{e.kind, e.err} }

// Tag makes err match kind (a sentinel of the table) without changing its
// text. A nil err stays nil.
func Tag(kind, err error) error {
	if err == nil {
		return nil
	}
	return &tagged{kind: kind, err: err}
}

// BadRequest tags err as the client's fault in the request itself: 400.
func BadRequest(err error) error { return Tag(ErrBadRequest, err) }

// Conflict tags err as a refused state change: 409.
func Conflict(err error) error { return Tag(ErrConflict, err) }

// ModelNotFound rewrites a registry miss into the services' public text
// for an unknown model reference; any other err passes through.
func ModelNotFound(ref string, err error) error {
	if errors.Is(err, serving.ErrNotFound) {
		return Tag(serving.ErrNotFound, fmt.Errorf("model %q not found", ref))
	}
	return err
}

// Envelope is the error body of every tier.
type Envelope struct {
	Error        string `json:"error"`
	Kind         string `json:"kind,omitempty"`
	RetryAfterMs int64  `json:"retryAfterMs,omitempty"`
}

// Write writes v as JSON with the given status. v is encoded before the
// status is written, so a value JSON cannot carry (a NaN, an infinity) is
// answered as an error envelope, 422, and never as a status with no body.
func Write(w http.ResponseWriter, status int, v any) {
	buf := getBody()
	defer putBody(buf)
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		WriteError(w, fmt.Errorf("wire: encode response: %w", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes()) // a failed write means the client is gone; there is no one to tell
}

// WriteError writes err as the envelope under the status the table gives
// it; a shed also carries Retry-After, whole seconds rounded up as the
// header requires (the envelope keeps the exact hint).
func WriteError(w http.ResponseWriter, err error) {
	env, status := Envelope{Error: err.Error()}, http.StatusUnprocessableEntity
	var over *serving.OverloadedError
	if errors.As(err, &over) {
		env.Kind, env.RetryAfterMs, status = kindOverloaded, over.RetryAfter.Milliseconds(), http.StatusTooManyRequests
		secs := (over.RetryAfter + time.Second - 1) / time.Second
		w.Header().Set("Retry-After", strconv.FormatInt(max(int64(secs), 1), 10))
	} else {
		for _, row := range table {
			if errors.Is(err, row.is) {
				env.Kind, status = row.kind, row.status
				break
			}
		}
	}
	Write(w, status, env)
}

// Decode reads the request body into v: one JSON value of at most
// MaxBodyBytes, no unknown fields (contract drift fails loudly), nothing
// but whitespace after it. Failures are tagged 400, or 413 when the body
// is over the limit — refused on its declared length before a byte of it
// is buffered where the client declared one. A request type the one-pass
// decoder tables (decode.go) is read once and decoded in one pass; any
// other streams through encoding/json.
func Decode(w http.ResponseWriter, r *http.Request, v any) error {
	return decode(w, r, v, MaxBodyBytes)
}

func decode(w http.ResponseWriter, r *http.Request, v any, limit int64) error {
	p := planFor(v)
	if p == nil {
		if err := declaredTooLarge(r, limit); err != nil {
			return err
		}
		return decodeStream(http.MaxBytesReader(w, r.Body, limit), v)
	}
	b, err := readBody(w, r, limit)
	if err != nil {
		return err
	}
	defer b.release()
	if b.err == nil && p.decode(b.Bytes(), v) {
		return nil
	}
	return b.replay(v)
}

// declaredTooLarge refuses a body on its declared length alone.
func declaredTooLarge(r *http.Request, limit int64) error {
	if r.ContentLength > limit {
		return Tag(ErrTooLarge, fmt.Errorf("decode request: body of %d bytes exceeds the %d-byte limit", r.ContentLength, limit))
	}
	return nil
}

// decodeStream is the strict JSON decode and the only author of decode
// errors: whatever reads a body some other way (predict.go) sends the same
// bytes through here to refuse them.
func decodeStream(body io.Reader, v any) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		switch _, terr := dec.Token(); {
		case terr == io.EOF:
			return nil
		case terr == nil:
			err = errors.New("trailing data after the JSON value")
		default:
			err = terr
		}
	}
	return decodeError(err)
}

// decodeError places a failure to read or decode a body: 413 when the
// limit cut it off, else 400.
func decodeError(err error) error {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return Tag(ErrTooLarge, fmt.Errorf("decode request: %w", err))
	}
	return BadRequest(fmt.Errorf("decode request: %w", err))
}

// Handle is the one handler shape: decode a Req, call fn, write its Resp
// as 200 or its error through the table.
func Handle[Req, Resp any](fn func(context.Context, *Req) (Resp, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if err := Decode(w, r, &req); err != nil {
			WriteError(w, err)
			return
		}
		resp, err := fn(r.Context(), &req)
		if err != nil {
			WriteError(w, err)
			return
		}
		Write(w, http.StatusOK, resp)
	}
}

// StatusError is a non-2xx answer as Do returns it. It unwraps to the
// typed error the server wrote it from (serving.ErrNotFound,
// serving.ErrTooManyInstances, *serving.OverloadedError, ErrReplicaDown,
// ErrNoReplicas, ml.ErrInput) when the envelope names one.
type StatusError struct {
	Status  int
	Kind    string
	Message string
	// RetryAfter is the server's back-off hint: the envelope's exact
	// retryAfterMs, else the Retry-After header's whole seconds.
	RetryAfter time.Duration
	typed      error
}

func (e *StatusError) Error() string { return fmt.Sprintf("%s (status %d)", e.Message, e.Status) }
func (e *StatusError) Unwrap() error { return e.typed }

// DefaultClient serves every caller that injects no client of its own. It
// has a timeout — http.DefaultClient has none, so one hung peer would hang
// a sensor collection or a replica call forever.
var DefaultClient = &http.Client{Timeout: 30 * time.Second}

// Do runs one JSON round trip: in (when non-nil) is the request body, out
// (when non-nil) receives a 2xx body, hdr is copied onto the request and
// the trace ctx carries is propagated. Any status of 400 or above comes
// back as a *StatusError; a failure to reach the server at all is the
// http.Client's *url.Error.
func Do(ctx context.Context, c *http.Client, method, url string, hdr http.Header, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("marshal request: %w", err)
		}
	}
	resp, err := send(ctx, c, method, url, hdr, "application/json", body)
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }()
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	return nil
}

// send is the request half of every round trip: body (when non-nil) goes
// out under contentType, hdr is copied, the trace is injected, and an
// answer of 400 or above is read and returned as its *StatusError. The
// caller closes the body of the response it gets.
func send(ctx context.Context, c *http.Client, method, url string, hdr http.Header, contentType string, body []byte) (*http.Response, error) {
	if c == nil {
		c = DefaultClient
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, fmt.Errorf("build request: %w", err)
	}
	for k, v := range hdr {
		req.Header[k] = v
	}
	if body != nil {
		req.Header.Set("Content-Type", contentType)
	}
	telemetry.Inject(ctx, req.Header)
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 400 {
		defer func() { _ = resp.Body.Close() }()
		return nil, statusError(resp)
	}
	return resp, nil
}

// statusError reads an error answer; a body that is no envelope (a proxy's
// plain-text 502, the gateway's rate limiter) leaves the status text.
func statusError(resp *http.Response) *StatusError {
	e := &StatusError{Status: resp.StatusCode, Message: http.StatusText(resp.StatusCode)}
	var env Envelope
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&env); err == nil && env.Error != "" {
		e.Message, e.Kind = env.Error, env.Kind
	}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
		e.RetryAfter = time.Duration(secs) * time.Second
	}
	if env.RetryAfterMs > 0 {
		e.RetryAfter = time.Duration(env.RetryAfterMs) * time.Millisecond
	}
	if e.Kind == kindOverloaded {
		e.typed = &serving.OverloadedError{RetryAfter: e.RetryAfter}
	}
	for _, row := range table {
		if row.typed && row.kind == e.Kind {
			e.typed = row.is
		}
	}
	return e
}
