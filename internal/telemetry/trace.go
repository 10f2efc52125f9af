package telemetry

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
)

// Trace propagation headers, attached to every instrumented request and
// forwarded across service hops so client, gateway, and service spans of
// one logical request share a trace ID.
const (
	HeaderTraceID = "X-Trace-Id"
	HeaderSpanID  = "X-Span-Id"
)

// Span is one recorded unit of work within a trace.
type Span struct {
	TraceID  string    `json:"traceId"`
	SpanID   string    `json:"spanId"`
	ParentID string    `json:"parentId,omitempty"`
	Service  string    `json:"service"`
	Name     string    `json:"name"`
	Start    time.Time `json:"start"`
	Duration float64   `json:"durationMs"`
	Status   int       `json:"status,omitempty"`
	Error    string    `json:"error,omitempty"`
}

// idCounter salts fallback IDs should crypto/rand ever fail.
var idCounter atomic.Uint64

func randomHex(n int) string {
	buf := make([]byte, n)
	if _, err := rand.Read(buf); err != nil {
		// Fallback: time + counter. Not cryptographically random, but
		// unique enough for correlation.
		binary.BigEndian.PutUint64(buf[:8], uint64(clock.Real().Now().UnixNano())^idCounter.Add(1))
	}
	return hex.EncodeToString(buf)
}

// NewTraceID generates a 128-bit hex trace ID.
func NewTraceID() string { return randomHex(16) }

// NewSpanID generates a 64-bit hex span ID.
func NewSpanID() string { return randomHex(8) }

type traceCtxKey struct{}

type traceCtx struct{ traceID, spanID string }

// ContextWithTrace attaches a trace/span ID pair to the context.
func ContextWithTrace(ctx context.Context, traceID, spanID string) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, traceCtx{traceID: traceID, spanID: spanID})
}

// TraceFromContext reads the trace/span IDs set by ContextWithTrace;
// ok is false when the context carries no trace.
func TraceFromContext(ctx context.Context) (traceID, spanID string, ok bool) {
	tc, ok := ctx.Value(traceCtxKey{}).(traceCtx)
	return tc.traceID, tc.spanID, ok
}

// Inject writes the context's trace headers into h (outbound requests).
// The current span becomes the downstream parent.
func Inject(ctx context.Context, h http.Header) {
	traceID, spanID, ok := TraceFromContext(ctx)
	if !ok || traceID == "" {
		return
	}
	h.Set(HeaderTraceID, traceID)
	if spanID != "" {
		h.Set(HeaderSpanID, spanID)
	}
}

// Extract reads the trace headers of an inbound request; empty strings
// when absent. Caller-supplied IDs are untrusted input that ends up in
// span stores and response headers on every tier, so anything that is
// not a modest-length token is treated as absent (a fresh ID gets
// minted instead of the garbage propagating).
func Extract(h http.Header) (traceID, parentSpanID string) {
	return sanitizeID(h.Get(HeaderTraceID)), sanitizeID(h.Get(HeaderSpanID))
}

// sanitizeID returns id when it is 1-64 characters of [0-9A-Za-z_-],
// and "" otherwise.
func sanitizeID(id string) string {
	if id == "" || len(id) > 64 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '-', c == '_':
		default:
			return ""
		}
	}
	return id
}

// Tracer records spans into a bounded ring buffer; when full, the oldest
// spans are overwritten. All methods are safe for concurrent use.
type Tracer struct {
	mu   sync.Mutex
	buf  []Span
	next int
	full bool
}

// NewTracer builds a tracer keeping up to capacity spans (default 1024).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Tracer{buf: make([]Span, capacity)}
}

// Record appends a span, evicting the oldest when the ring is full.
func (t *Tracer) Record(s Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf[t.next] = s
	t.next++
	if t.next == len(t.buf) {
		t.next = 0
		t.full = true
	}
}

// Len reports how many spans are currently retained.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.full {
		return len(t.buf)
	}
	return t.next
}

// Spans returns retained spans in recording order, oldest first. A
// non-empty traceID filters to that trace; n > 0 keeps only the newest n
// after filtering.
func (t *Tracer) Spans(traceID string, n int) []Span {
	t.mu.Lock()
	var ordered []Span
	if t.full {
		ordered = append(ordered, t.buf[t.next:]...)
		ordered = append(ordered, t.buf[:t.next]...)
	} else {
		ordered = append(ordered, t.buf[:t.next]...)
	}
	t.mu.Unlock()

	if traceID != "" {
		kept := ordered[:0]
		for _, s := range ordered {
			if s.TraceID == traceID {
				kept = append(kept, s)
			}
		}
		ordered = kept
	}
	if n > 0 && len(ordered) > n {
		ordered = ordered[len(ordered)-n:]
	}
	return ordered
}

// Handler serves retained spans as JSON. Query parameters: ?trace=<id>
// filters to one trace, ?n=<k> limits to the newest k spans.
func (t *Tracer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		traceID := r.URL.Query().Get("trace")
		n := 0
		if raw := r.URL.Query().Get("n"); raw != "" {
			v, err := strconv.Atoi(raw)
			if err != nil || v < 0 {
				http.Error(w, `{"error":"invalid ?n="}`, http.StatusBadRequest)
				return
			}
			n = v
		}
		spans := t.Spans(traceID, n)
		if spans == nil {
			spans = []Span{}
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(spans); err != nil {
			return
		}
	})
}
