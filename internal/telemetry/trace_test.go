package telemetry

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestIDsAreUniqueAndHex(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if len(id) != 32 {
			t.Fatalf("trace id %q: want 32 hex chars", id)
		}
		if seen[id] {
			t.Fatalf("duplicate trace id %q", id)
		}
		seen[id] = true
	}
	if len(NewSpanID()) != 16 {
		t.Fatalf("span id length %d, want 16", len(NewSpanID()))
	}
}

func TestContextRoundTripAndInject(t *testing.T) {
	ctx := ContextWithTrace(context.Background(), "trace-1", "span-1")
	traceID, spanID, ok := TraceFromContext(ctx)
	if !ok || traceID != "trace-1" || spanID != "span-1" {
		t.Fatalf("round trip = %q %q %v", traceID, spanID, ok)
	}
	h := http.Header{}
	Inject(ctx, h)
	if h.Get(HeaderTraceID) != "trace-1" || h.Get(HeaderSpanID) != "span-1" {
		t.Errorf("Inject headers = %v", h)
	}
	// No trace in context -> no headers.
	h2 := http.Header{}
	Inject(context.Background(), h2)
	if len(h2) != 0 {
		t.Errorf("Inject on bare context wrote %v", h2)
	}
}

func TestExtractSanitizesIDs(t *testing.T) {
	mk := func(trace, span string) http.Header {
		h := http.Header{}
		h.Set(HeaderTraceID, trace)
		h.Set(HeaderSpanID, span)
		return h
	}
	if tr, sp := Extract(mk("trace-abc_123", "span-1")); tr != "trace-abc_123" || sp != "span-1" {
		t.Errorf("clean IDs = %q %q", tr, sp)
	}
	// Garbage — quotes, backslashes, spaces, oversized — must read as
	// absent so callers mint fresh IDs instead of propagating it.
	for _, bad := range []string{
		`"x\"x\`, "has space", "new\nline", strings.Repeat("a", 65),
	} {
		if tr, _ := Extract(mk(bad, "span-1")); tr != "" {
			t.Errorf("Extract(%q) adopted %q", bad, tr)
		}
	}
	if _, sp := Extract(mk("t", `bad"span`)); sp != "" {
		t.Errorf("bad span id adopted: %q", sp)
	}
}

func TestTracerRingBounds(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Record(Span{TraceID: "t", SpanID: string(rune('a' + i))})
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
	spans := tr.Spans("", 0)
	if len(spans) != 4 || spans[0].SpanID != "g" || spans[3].SpanID != "j" {
		t.Fatalf("ring order wrong: %+v", spans)
	}
	if got := tr.Spans("", 2); len(got) != 2 || got[1].SpanID != "j" {
		t.Fatalf("limit wrong: %+v", got)
	}
}

func TestTracerFilterAndHandler(t *testing.T) {
	tr := NewTracer(16)
	tr.Record(Span{TraceID: "t1", SpanID: "a", Service: "gw", Start: time.Now()})
	tr.Record(Span{TraceID: "t2", SpanID: "b", Service: "svc"})
	tr.Record(Span{TraceID: "t1", SpanID: "c", ParentID: "a", Service: "svc"})

	rr := httptest.NewRecorder()
	tr.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/traces?trace=t1", nil))
	var spans []Span
	if err := json.Unmarshal(rr.Body.Bytes(), &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 || spans[0].SpanID != "a" || spans[1].ParentID != "a" {
		t.Fatalf("filtered spans = %+v", spans)
	}

	rr = httptest.NewRecorder()
	tr.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/traces?n=bogus", nil))
	if rr.Code != http.StatusBadRequest {
		t.Errorf("bad ?n= status = %d", rr.Code)
	}
}

func TestTracerConcurrentRecord(t *testing.T) {
	tr := NewTracer(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr.Record(Span{TraceID: NewTraceID()})
				tr.Spans("", 8)
			}
		}()
	}
	wg.Wait()
	if tr.Len() != 64 {
		t.Errorf("Len = %d after 4000 records into a 64-span ring", tr.Len())
	}
}
