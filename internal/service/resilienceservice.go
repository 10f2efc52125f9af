package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/attack"
	"repro/internal/ml"
	"repro/internal/resilience"
	"repro/internal/wire"
)

// PoisonImpactRequest asks for a poisoning resilience report from already-
// measured baseline and poisoned metrics.
type PoisonImpactRequest struct {
	Baseline ml.Metrics `json:"baseline"`
	Poisoned ml.Metrics `json:"poisoned"`
	Rate     float64    `json:"rate"`
}

// EvasionImpactRequest asks the service to run FGSM against an inline
// model (the victim doubles as the surrogate when it is differentiable) on
// the provided clean samples, and report impact/complexity. When Surrogate
// is present it is used to craft the perturbations instead (transfer
// attack).
type EvasionImpactRequest struct {
	Model     json.RawMessage `json:"model"`
	Surrogate json.RawMessage `json:"surrogate,omitempty"`
	Clean     TableJSON       `json:"clean"`
	Eps       float64         `json:"eps"`
}

// ResilienceService exposes the impact/complexity metrics.
type ResilienceService struct{ *base }

// NewResilienceService constructs the service.
func NewResilienceService() *ResilienceService {
	s := &ResilienceService{base: newBase("resilience")}
	s.handle("POST /impact/poisoning", wire.Handle(poisonImpact))
	s.handle("POST /impact/evasion", wire.Handle(s.evasionImpact))
	return s
}

func poisonImpact(_ context.Context, req *PoisonImpactRequest) (resilience.Report, error) {
	return resilience.Poisoning(req.Baseline, req.Poisoned, req.Rate)
}

func (s *ResilienceService) evasionImpact(_ context.Context, req *EvasionImpactRequest) (rep resilience.Report, err error) {
	victim, err := s.decodeModel(req.Model)
	if err != nil {
		return rep, err
	}
	surrogateModel := victim
	if len(req.Surrogate) > 0 {
		if surrogateModel, err = s.decodeModel(req.Surrogate); err != nil {
			return rep, fmt.Errorf("surrogate: %w", err)
		}
	}
	grad, ok := surrogateModel.(ml.GradientClassifier)
	if !ok {
		return rep, fmt.Errorf("model kind %q is not differentiable; provide a differentiable surrogate", surrogateModel.Name())
	}
	clean, err := req.Clean.toTable("clean")
	if err != nil {
		return rep, err
	}
	res, err := attack.FGSM(grad, clean, req.Eps)
	if err != nil {
		return rep, err
	}
	return resilience.Evasion(victim, clean, res.Adversarial, res.CraftCost)
}

var _ http.Handler = (*ResilienceService)(nil)
