package service

import (
	"context"
	"net/http"

	"repro/internal/drift"
	"repro/internal/wire"
)

// DriftRequest asks the drift micro-service to compare a live batch
// against a reference (training-time) sample.
type DriftRequest struct {
	Reference TableJSON `json:"reference"`
	Batch     TableJSON `json:"batch"`
	// Alpha, PSIThreshold and Bins tune the detector; zero values select
	// the defaults (0.01 / 0.2 / 10).
	Alpha        float64 `json:"alpha,omitempty"`
	PSIThreshold float64 `json:"psiThreshold,omitempty"`
	Bins         int     `json:"bins,omitempty"`
}

// DriftService wraps the drift detector. It is stateless: the reference
// travels with each request, keeping the service replaceable like every
// other metric (a deployment seeking lower payloads can front it with a
// caching proxy keyed on the reference hash).
type DriftService struct{ *base }

// NewDriftService constructs the service.
func NewDriftService() *DriftService {
	s := &DriftService{base: newBase("drift")}
	s.handle("POST /drift", wire.Handle(detectDrift))
	return s
}

func detectDrift(_ context.Context, req *DriftRequest) (rep drift.Report, err error) {
	ref, err := req.Reference.toTable("reference")
	if err != nil {
		return rep, err
	}
	batch, err := req.Batch.toTable("batch")
	if err != nil {
		return rep, err
	}
	det, err := drift.Fit(ref, req.Alpha, req.PSIThreshold, req.Bins)
	if err != nil {
		return rep, err
	}
	return det.Detect(batch)
}

// Drift requests a drift report from the drift service.
func (c *Client) Drift(ctx context.Context, req DriftRequest) (drift.Report, error) {
	var rep drift.Report
	err := c.do(ctx, http.MethodPost, "/drift", req, &rep)
	return rep, err
}

var _ http.Handler = (*DriftService)(nil)
