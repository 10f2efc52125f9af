package gateway

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

// TestPrefixStripKeepsEscapedPath: the prefix comes off the escaped
// spelling of the path too, so an escaped slash inside a segment reaches
// the upstream escaped and /models/{id} still sees one id.
func TestPrefixStripKeepsEscapedPath(t *testing.T) {
	b := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, r.RequestURI)
	}))
	defer b.Close()
	g := New(Config{})
	defer g.Stop()
	if err := g.AddRoute("/ml", RoundRobin, b.URL); err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]string{
		"/ml/models/a%2Fb/versions": "/models/a%2Fb/versions",
		"/ml/models/a/versions?x=1": "/models/a/versions?x=1",
		"/ml":                       "/",
	} {
		if code, got := get(t, g, path, nil); code != http.StatusOK || got != want {
			t.Errorf("%s reached the upstream as %d %q, want %q", path, code, got, want)
		}
	}
}

// proxyBody is a one-row predict body of 21 features, about 400 bytes:
// what predict_single sends through the gateway.
var proxyBody = func() []byte {
	var sb strings.Builder
	sb.WriteString(`{"modelId":"rf","instances":[[`)
	for i := 0; i < 21; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%.15f", 0.123456789+float64(i)/7)
	}
	sb.WriteString("]]}")
	return []byte(sb.String())
}()

// proxyLoop deploys a gateway server over loopback in front of one
// loopback upstream that drains the body and answers a predict-sized
// reply, and returns a post that sends proxyBody through both.
func proxyLoop(tb testing.TB) (post func()) {
	up := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		_, _ = io.WriteString(w, `{"modelId":"rf","predictions":["walk"],"probabilities":[[0.1,0.7,0.2]]}`)
	}))
	g := New(Config{})
	if err := g.AddRoute("/ml", RoundRobin, up.URL); err != nil {
		tb.Fatal(err)
	}
	front := httptest.NewServer(g)
	tr := &http.Transport{}
	client := &http.Client{Transport: tr}
	tb.Cleanup(func() {
		tr.CloseIdleConnections()
		front.Close()
		g.Stop()
		up.Close()
	})
	url := front.URL + "/ml/predict"
	rd := bytes.NewReader(proxyBody)
	return func() {
		rd.Reset(proxyBody)
		resp, err := client.Post(url, "application/json", rd)
		if err != nil {
			tb.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			tb.Fatalf("proxied predict: status %d", resp.StatusCode)
		}
	}
}

// TestGatewayProxyAllocBytes: a round trip through the gateway costs
// client, gateway and upstream together well under one 32 KiB copy
// buffer, which the proxies take from a pool instead of allocating per
// response.
func TestGatewayProxyAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items, so the buffers are reallocated at random")
	}
	post := proxyLoop(t)
	for i := 0; i < 50; i++ {
		post()
	}
	const n = 500
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		post()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per > 24<<10 {
		t.Errorf("a proxied round trip allocates %d B, want at most %d", per, 24<<10)
	}
}

// BenchmarkGatewayProxy is the gateway's layer benchmark: one-row
// predict-sized POSTs, one at a time, through a loopback gateway to a
// loopback upstream.
func BenchmarkGatewayProxy(b *testing.B) {
	post := proxyLoop(b)
	for i := 0; i < 50; i++ {
		post()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
}
