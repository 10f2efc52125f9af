package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
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
}

// do sends in as JSON to path and decodes the answer into out through the
// one wire round trip: shared 30 s client when HTTP is nil, trace headers
// from ctx, typed errors back from the envelope.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	hdr := http.Header{}
	if c.APIKey != "" {
		hdr.Set("X-API-Key", c.APIKey)
	}
	if err := wire.Do(ctx, c.HTTP, method, c.BaseURL+path, hdr, in, out); err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	return nil
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
func (c *Client) WaitHealthy(ctx context.Context, timeout time.Duration) error {
	clk := clock.Real()
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
