package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"

	"repro/internal/wire"
	"repro/internal/xai"
)

// SHAPRequest asks the SHAP micro-service for one explanation. The model
// travels inline as an ml.MarshalModel envelope, so the service is
// stateless (the paper's "input/output manner").
type SHAPRequest struct {
	Model      json.RawMessage `json:"model"`
	Instance   []float64       `json:"instance"`
	Class      int             `json:"class"`
	Background [][]float64     `json:"background"`
	Samples    int             `json:"samples,omitempty"`
	Seed       int64           `json:"seed,omitempty"`
}

// ExplainResponse carries a per-feature (or per-segment) attribution.
type ExplainResponse struct {
	Attribution []float64 `json:"attribution"`
}

// SHAPService wraps xai.KernelSHAP as a micro-service.
type SHAPService struct{ *base }

// NewSHAPService constructs the service.
func NewSHAPService() *SHAPService {
	s := &SHAPService{base: newBase("shap")}
	s.handle("POST /explain", wire.Handle(s.explain))
	return s
}

func (s *SHAPService) explain(_ context.Context, req *SHAPRequest) (resp ExplainResponse, err error) {
	model, err := s.decodeModel(req.Model)
	if err != nil {
		return resp, err
	}
	explainer := &xai.KernelSHAP{
		Model:      model,
		Background: req.Background,
		Samples:    req.Samples,
		Seed:       req.Seed,
	}
	resp.Attribution, err = explainer.Explain(req.Instance, req.Class)
	return resp, err
}

// LIMETabularRequest asks for a tabular LIME explanation.
type LIMETabularRequest struct {
	Model    json.RawMessage `json:"model"`
	Instance []float64       `json:"instance"`
	Class    int             `json:"class"`
	Scale    []float64       `json:"scale"`
	Samples  int             `json:"samples,omitempty"`
	Seed     int64           `json:"seed,omitempty"`
}

// LIMEImageRequest asks for a superpixel LIME explanation of a flattened
// image.
type LIMEImageRequest struct {
	Model   json.RawMessage `json:"model"`
	Image   []float64       `json:"image"`
	Class   int             `json:"class"`
	W       int             `json:"w"`
	H       int             `json:"h"`
	Patch   int             `json:"patch,omitempty"`
	Samples int             `json:"samples,omitempty"`
	Seed    int64           `json:"seed,omitempty"`
}

// LIMEService wraps xai.TabularLIME and xai.ImageLIME.
type LIMEService struct{ *base }

// NewLIMEService constructs the service.
func NewLIMEService() *LIMEService {
	s := &LIMEService{base: newBase("lime")}
	s.handle("POST /explain/tabular", wire.Handle(s.explainTabular))
	s.handle("POST /explain/image", wire.Handle(s.explainImage))
	return s
}

func (s *LIMEService) explainTabular(_ context.Context, req *LIMETabularRequest) (resp ExplainResponse, err error) {
	model, err := s.decodeModel(req.Model)
	if err != nil {
		return resp, err
	}
	explainer := &xai.TabularLIME{
		Model:   model,
		Scale:   req.Scale,
		Samples: req.Samples,
		Seed:    req.Seed,
	}
	resp.Attribution, err = explainer.Explain(req.Instance, req.Class)
	return resp, err
}

func (s *LIMEService) explainImage(_ context.Context, req *LIMEImageRequest) (resp ExplainResponse, err error) {
	model, err := s.decodeModel(req.Model)
	if err != nil {
		return resp, err
	}
	explainer := &xai.ImageLIME{
		Model:   model,
		W:       req.W,
		H:       req.H,
		Patch:   req.Patch,
		Samples: req.Samples,
		Seed:    req.Seed,
	}
	resp.Attribution, err = explainer.Explain(req.Image, req.Class)
	return resp, err
}

// OcclusionRequest asks for an occlusion-sensitivity heatmap.
type OcclusionRequest struct {
	Model    json.RawMessage `json:"model"`
	Image    []float64       `json:"image"`
	Class    int             `json:"class"`
	W        int             `json:"w"`
	H        int             `json:"h"`
	Window   int             `json:"window,omitempty"`
	Stride   int             `json:"stride,omitempty"`
	Baseline float64         `json:"baseline,omitempty"`
}

// OcclusionResponse carries the heatmap and its geometry.
type OcclusionResponse struct {
	Heatmap []float64 `json:"heatmap"`
	Cols    int       `json:"cols"`
	Rows    int       `json:"rows"`
}

// OcclusionService wraps xai.Occlusion.
type OcclusionService struct{ *base }

// NewOcclusionService constructs the service.
func NewOcclusionService() *OcclusionService {
	s := &OcclusionService{base: newBase("occlusion")}
	s.handle("POST /explain", wire.Handle(s.occlude))
	s.handle("POST /explain/png", s.handleExplainPNG)
	return s
}

func (s *OcclusionService) occlude(_ context.Context, req *OcclusionRequest) (resp OcclusionResponse, err error) {
	model, err := s.decodeModel(req.Model)
	if err != nil {
		return resp, err
	}
	occ := &xai.Occlusion{
		Model:    model,
		W:        req.W,
		H:        req.H,
		Window:   req.Window,
		Stride:   req.Stride,
		Baseline: req.Baseline,
	}
	if resp.Heatmap, err = occ.Explain(req.Image, req.Class); err != nil {
		return resp, err
	}
	resp.Cols, resp.Rows = occ.HeatmapSize()
	return resp, nil
}

// handleExplainPNG renders the occlusion-sensitivity map as a PNG heatmap
// — the artifact the AI dashboard embeds for operators.
func (s *OcclusionService) handleExplainPNG(w http.ResponseWriter, r *http.Request) {
	var req OcclusionRequest
	if err := wire.Decode(w, r, &req); err != nil {
		wire.WriteError(w, err)
		return
	}
	resp, err := s.occlude(r.Context(), &req)
	if err != nil {
		wire.WriteError(w, err)
		return
	}
	var buf bytes.Buffer
	if err := xai.WriteHeatmapPNG(&buf, resp.Heatmap, resp.Cols, resp.Rows, 8); err != nil {
		wire.WriteError(w, wire.Tag(wire.ErrInternal, err))
		return
	}
	w.Header().Set("Content-Type", "image/png")
	if _, err := w.Write(buf.Bytes()); err != nil {
		return
	}
}

var (
	_ http.Handler = (*SHAPService)(nil)
	_ http.Handler = (*LIMEService)(nil)
	_ http.Handler = (*OcclusionService)(nil)
	_ http.Handler = (*MLService)(nil)
)
