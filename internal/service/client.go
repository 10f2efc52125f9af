package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/ml"
	"repro/internal/resilience"
	"repro/internal/serving"
	"repro/internal/wire"
)

// Client is the typed HTTP client the AI sensors and examples use to call
// the micro-services, usually through the API gateway. BaseURL addresses
// one service (direct) or the gateway route prefix.
type Client struct {
	// BaseURL is the service root, e.g. "http://gw:8000/shap".
	BaseURL string
	// HTTP is the underlying client; wire.DefaultClient (30 s timeout,
	// never the timeout-less http.DefaultClient) when nil.
	HTTP *http.Client
	// APIKey, when set, is sent as the X-API-Key header (the gateway's
	// auth middleware).
	APIKey string
	// Retry, when set, transparently retries idempotent GETs (on network
	// errors and 5xx) and shed requests (429 from serving admission
	// control, any method — the request was rejected before execution)
	// with exponentially growing, fully jittered back-off. A 429's
	// Retry-After hint, when present, overrides the computed back-off.
	Retry *RetryPolicy
}

// RetryPolicy configures the client's back-off schedule. Delays follow
// "full jitter": attempt i sleeps uniform(0, min(MaxDelay, BaseDelay·2^i)).
type RetryPolicy struct {
	// MaxAttempts bounds total tries, first included (default 4).
	MaxAttempts int
	// BaseDelay is the back-off scale of the first retry (default 50ms).
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth (default 2s).
	MaxDelay time.Duration
	// Seed makes the jitter sequence deterministic (tests); 0 keeps it
	// deterministic too (a fixed default stream) — vary Seed per client
	// to decorrelate fleets.
	Seed int64
	// Clock drives the back-off sleeps; clock.Real() when nil. Tests
	// inject clock.Fake and assert the exact schedule.
	Clock clock.Clock

	mu  sync.Mutex
	rng *rand.Rand
}

func (p *RetryPolicy) attempts() int {
	if p == nil {
		return 1
	}
	if p.MaxAttempts <= 0 {
		return 4
	}
	return p.MaxAttempts
}

func (p *RetryPolicy) clk() clock.Clock {
	if p == nil || p.Clock == nil {
		return clock.Real()
	}
	return p.Clock
}

// backoff computes the fully jittered delay of retry i (0-based).
func (p *RetryPolicy) backoff(i int) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	limit := p.MaxDelay
	if limit <= 0 {
		limit = 2 * time.Second
	}
	ceil := base << uint(i)
	if ceil > limit || ceil <= 0 {
		ceil = limit
	}
	p.mu.Lock()
	if p.rng == nil {
		p.rng = rand.New(rand.NewSource(p.Seed))
	}
	d := time.Duration(p.rng.Int63n(int64(ceil) + 1))
	p.mu.Unlock()
	return d
}

// sleep blocks for the attempt's delay (hint, when positive, wins over
// the computed back-off) or until ctx is done.
func (p *RetryPolicy) sleep(ctx context.Context, i int, hint time.Duration) error {
	d := hint
	if d <= 0 {
		d = p.backoff(i)
	}
	select {
	case <-p.clk().After(d):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// assess decides whether an attempt's outcome is retryable and with what
// back-off hint.
func (p *RetryPolicy) assess(method string, err error) (bool, time.Duration) {
	if p == nil {
		return false, 0
	}
	var status *wire.StatusError
	if !errors.As(err, &status) {
		// The server was never reached or never answered: the request may
		// have executed, so only idempotent GETs retry.
		var transport *url.Error
		return method == http.MethodGet && errors.As(err, &transport), 0
	}
	if status.Status == http.StatusTooManyRequests {
		// Shed before execution — safe to retry any method, honoring
		// the server's back-off hint.
		return true, status.RetryAfter
	}
	return method == http.MethodGet && status.Status >= 500, 0
}

// do sends in as JSON to path and decodes the answer into out through the
// one wire round trip (shared 30 s client when HTTP is nil, trace headers
// from ctx, typed errors back from the envelope), replaying it per the
// retry policy.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	hdr := http.Header{}
	if c.APIKey != "" {
		hdr.Set("X-API-Key", c.APIKey)
	}
	attempts := c.Retry.attempts()
	for i := 0; ; i++ {
		err := wire.Do(ctx, c.HTTP, method, c.BaseURL+path, hdr, in, out)
		if err == nil {
			return nil
		}
		if retryable, hint := c.Retry.assess(method, err); retryable && i+1 < attempts {
			if err = c.Retry.sleep(ctx, i, hint); err == nil {
				continue
			}
		}
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
}

// Train submits a training job to the ML-pipeline service.
func (c *Client) Train(ctx context.Context, req TrainRequest) (TrainResponse, error) {
	var resp TrainResponse
	err := c.do(ctx, http.MethodPost, "/train", req, &resp)
	return resp, err
}

// Predict requests predictions from the ML-pipeline service.
func (c *Client) Predict(ctx context.Context, req PredictRequest) (PredictResponse, error) {
	var resp PredictResponse
	err := c.do(ctx, http.MethodPost, "/predict", req, &resp)
	return resp, err
}

// FetchModel downloads a stored model envelope and reconstructs it. The
// id accepts every serving-registry reference form ("m0001", "lgbm@2",
// "sha256:...").
func (c *Client) FetchModel(ctx context.Context, id string) (ml.Classifier, error) {
	var raw json.RawMessage
	if err := c.do(ctx, http.MethodGet, "/models/"+id, nil, &raw); err != nil {
		return nil, fmt.Errorf("fetch model: %w", err)
	}
	return ml.UnmarshalModel(raw)
}

// Promote atomically points a model alias at one of its versions.
func (c *Client) Promote(ctx context.Context, req PromoteRequest) (AliasResponse, error) {
	var resp AliasResponse
	err := c.do(ctx, http.MethodPost, "/models/promote", req, &resp)
	return resp, err
}

// Rollback restores a model alias's previously promoted version.
func (c *Client) Rollback(ctx context.Context, name string) (AliasResponse, error) {
	var resp AliasResponse
	err := c.do(ctx, http.MethodPost, "/models/rollback", RollbackRequest{Name: name}, &resp)
	return resp, err
}

// Aliases lists the ML service's model aliases and version histories.
func (c *Client) Aliases(ctx context.Context) ([]serving.AliasInfo, error) {
	var resp []serving.AliasInfo
	err := c.do(ctx, http.MethodGet, "/aliases", nil, &resp)
	return resp, err
}

// SHAP requests a SHAP explanation.
func (c *Client) SHAP(ctx context.Context, req SHAPRequest) ([]float64, error) {
	var resp ExplainResponse
	if err := c.do(ctx, http.MethodPost, "/explain", req, &resp); err != nil {
		return nil, err
	}
	return resp.Attribution, nil
}

// LIMETabular requests a tabular LIME explanation.
func (c *Client) LIMETabular(ctx context.Context, req LIMETabularRequest) ([]float64, error) {
	var resp ExplainResponse
	if err := c.do(ctx, http.MethodPost, "/explain/tabular", req, &resp); err != nil {
		return nil, err
	}
	return resp.Attribution, nil
}

// LIMEImage requests an image LIME explanation.
func (c *Client) LIMEImage(ctx context.Context, req LIMEImageRequest) ([]float64, error) {
	var resp ExplainResponse
	if err := c.do(ctx, http.MethodPost, "/explain/image", req, &resp); err != nil {
		return nil, err
	}
	return resp.Attribution, nil
}

// Occlusion requests an occlusion-sensitivity heatmap.
func (c *Client) Occlusion(ctx context.Context, req OcclusionRequest) (OcclusionResponse, error) {
	var resp OcclusionResponse
	err := c.do(ctx, http.MethodPost, "/explain", req, &resp)
	return resp, err
}

// PoisonImpact requests a poisoning resilience report.
func (c *Client) PoisonImpact(ctx context.Context, req PoisonImpactRequest) (resilience.Report, error) {
	var resp resilience.Report
	err := c.do(ctx, http.MethodPost, "/impact/poisoning", req, &resp)
	return resp, err
}

// EvasionImpact requests an FGSM evasion resilience report.
func (c *Client) EvasionImpact(ctx context.Context, req EvasionImpactRequest) (resilience.Report, error) {
	var resp resilience.Report
	err := c.do(ctx, http.MethodPost, "/impact/evasion", req, &resp)
	return resp, err
}

// Healthz checks the service health endpoint.
func (c *Client) Healthz(ctx context.Context) (Health, error) {
	var h Health
	err := c.do(ctx, http.MethodGet, "/healthz", nil, &h)
	return h, err
}

// WaitHealthy polls /healthz until it responds or the deadline passes.
// The poll schedule runs on the retry policy's clock, so tests with a
// fake clock can step through it without real sleeps.
func (c *Client) WaitHealthy(ctx context.Context, timeout time.Duration) error {
	clk := c.Retry.clk()
	deadline := clk.Now().Add(timeout)
	for {
		hctx, cancel := context.WithTimeout(ctx, 500*time.Millisecond)
		_, err := c.Healthz(hctx)
		cancel()
		if err == nil {
			return nil
		}
		if clk.Now().After(deadline) {
			return fmt.Errorf("service at %s not healthy after %v: %w", c.BaseURL, timeout, err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-clk.After(50 * time.Millisecond):
		}
	}
}
