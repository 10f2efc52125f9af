package service

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"

	"repro/internal/ml"
	"repro/internal/serving"
	"repro/internal/wire"
)

// MLService is the AI-pipeline micro-service: it trains models on uploaded
// datasets, reports performance indicators, serves predictions through the
// model-serving runtime (versioned registry, micro-batching, admission
// control), and hands out serialized models for the explainer services.
type MLService struct {
	*base
	runtime *serving.Runtime

	mu     sync.RWMutex
	nextID int
	models map[string]*storedModel
}

// storedModel is the catalog metadata of one trained model; the model
// itself lives in the serving registry under the storedModel id.
type storedModel struct {
	id      string
	algo    string
	ref     serving.Ref
	metrics ml.Metrics
}

// TrainRequest asks the service to train one model.
type TrainRequest struct {
	// Algorithm is an ml.NewByName identifier (lr, dt, rf, mlp, dnn,
	// lgbm, xgb, nn).
	Algorithm string `json:"algorithm"`
	// Train is the training split. Eval, if present, is a held-out
	// split used for the reported metrics; otherwise metrics are
	// computed on the training data.
	Train TableJSON  `json:"train"`
	Eval  *TableJSON `json:"eval,omitempty"`
	// Seed makes training deterministic.
	Seed int64 `json:"seed"`
}

// TrainResponse reports the stored model and its performance indicators.
type TrainResponse struct {
	ModelID string     `json:"modelId"`
	Metrics ml.Metrics `json:"metrics"`
	// Ref is the serving-registry reference: the content-addressed id
	// plus the algorithm-alias version this training run appended.
	Ref serving.Ref `json:"ref"`
}

// The predict, promote and rollback contracts are the serving surface's
// own (internal/serving), shared with the cluster tier.
type (
	PredictRequest  = serving.PredictRequest
	PredictResponse = serving.PredictResponse
	PromoteRequest  = serving.PromoteRequest
	RollbackRequest = serving.RollbackRequest
	AliasResponse   = serving.AliasResponse
)

// NewMLService constructs the service. The embedded serving runtime
// records its telemetry (batch sizes, shed counts, cache churn) into the
// service registry exposed at /metrics.
func NewMLService() *MLService {
	b := newBase("ml-pipeline")
	s := &MLService{
		base:    b,
		runtime: serving.New(serving.Config{Telemetry: b.tel}),
		models:  make(map[string]*storedModel),
	}
	s.handle("POST /train", wire.Handle(s.train))
	s.handle("POST /predict", wire.PredictHandler(s.predict))
	s.handle("GET /models", s.handleList)
	s.handle("GET /models/{id}", s.handleGet)
	s.handle("GET /aliases", func(w http.ResponseWriter, r *http.Request) {
		wire.Write(w, http.StatusOK, s.runtime.Registry().Aliases())
	})
	s.handle("POST /models/promote", wire.Handle(s.promote))
	s.handle("POST /models/rollback", wire.Handle(s.rollback))
	return s
}

// Runtime exposes the serving runtime for in-process composition (core
// pipeline, examples).
func (s *MLService) Runtime() *serving.Runtime { return s.runtime }

// Close stops the serving runtime's workers.
func (s *MLService) Close() { s.runtime.Close() }

func (s *MLService) train(_ context.Context, req *TrainRequest) (resp TrainResponse, err error) {
	train, err := req.Train.toTable("train")
	if err != nil {
		return resp, err
	}
	model, err := ml.NewByName(req.Algorithm, req.Seed)
	if err != nil {
		return resp, wire.BadRequest(err)
	}
	if err := model.Fit(train); err != nil {
		return resp, fmt.Errorf("fit: %w", err)
	}
	evalTable := train
	if req.Eval != nil {
		if evalTable, err = req.Eval.toTable("eval"); err != nil {
			return resp, err
		}
	}
	metrics, err := ml.Evaluate(model, evalTable)
	if err != nil {
		return resp, fmt.Errorf("evaluate: %w", err)
	}
	id, ref, err := s.register(req.Algorithm, model, metrics)
	if err != nil {
		return resp, wire.Tag(wire.ErrInternal, err)
	}
	return TrainResponse{ModelID: id, Metrics: metrics, Ref: ref}, nil
}

// register stores a trained model in the serving registry under two
// aliases: the stable catalog id ("m0001", promoted immediately so the
// id always serves) and the algorithm name ("lgbm"), which versions
// across retrainings so operators can promote or roll back "lgbm@N".
// Content addressing deduplicates the underlying bytes.
func (s *MLService) register(algorithm string, model ml.Classifier, metrics ml.Metrics) (string, serving.Ref, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	reg := s.runtime.Registry()
	id := fmt.Sprintf("m%04d", s.nextID+1)
	idRef, err := reg.Register(id, model)
	if err != nil {
		return "", serving.Ref{}, err
	}
	blob, algoTag, err := reg.Blob(idRef.ID)
	if err != nil {
		return "", serving.Ref{}, err
	}
	algoRef, err := reg.RegisterBytes(algorithm, algoTag, blob)
	if err != nil {
		return "", serving.Ref{}, err
	}
	s.nextID++
	s.models[id] = &storedModel{id: id, algo: algorithm, ref: algoRef, metrics: metrics}
	return id, algoRef, nil
}

// predict scores through the serving runtime; a shed surfaces as 429
// with a Retry-After hint, an unknown reference as 404, and a scoring
// failure (e.g. a feature-dimension mismatch) as 422.
func (s *MLService) predict(ctx context.Context, ref string, instances [][]float64) ([][]float64, []int, error) {
	probs, classes, err := s.runtime.Predict(ctx, ref, instances)
	return probs, classes, wire.ModelNotFound(ref, err)
}

// modelInfo is the listing entry for one stored model.
type modelInfo struct {
	ModelID   string      `json:"modelId"`
	Algorithm string      `json:"algorithm"`
	Metrics   ml.Metrics  `json:"metrics"`
	Ref       serving.Ref `json:"ref"`
}

func (s *MLService) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	infos := make([]modelInfo, 0, len(s.models))
	for _, m := range s.models {
		infos = append(infos, modelInfo{ModelID: m.id, Algorithm: m.algo, Metrics: m.metrics, Ref: m.ref})
	}
	s.mu.RUnlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].ModelID < infos[j].ModelID })
	wire.Write(w, http.StatusOK, infos)
}

// handleGet returns the serialized model envelope so explainer services
// can reconstruct it. The path id accepts every registry reference form.
func (s *MLService) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	blob, _, err := s.runtime.Registry().Blob(id)
	if err != nil {
		wire.WriteError(w, wire.Tag(serving.ErrNotFound, fmt.Errorf("model %q not found", id)))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(blob); err != nil {
		return
	}
}

func (s *MLService) promote(_ context.Context, req *PromoteRequest) (resp AliasResponse, err error) {
	reg := s.runtime.Registry()
	if err := reg.Promote(req.Name, req.Version); err != nil {
		return resp, wire.Conflict(err)
	}
	id, err := reg.Resolve(req.Name)
	if err != nil {
		return resp, wire.Tag(wire.ErrInternal, err)
	}
	return AliasResponse{Name: req.Name, Version: req.Version, ID: id}, nil
}

func (s *MLService) rollback(_ context.Context, req *RollbackRequest) (AliasResponse, error) {
	ref, err := s.runtime.Registry().Rollback(req.Name)
	return AliasResponse{Name: ref.Name, Version: ref.Version, ID: ref.ID}, wire.Conflict(err)
}

// StoreModel registers an externally trained model (e.g. the output of a
// pipeline run) and returns its id — the "deploy" step of the paper's
// pipeline.
func (s *MLService) StoreModel(algorithm string, model ml.Classifier, metrics ml.Metrics) (string, error) {
	if model == nil {
		return "", fmt.Errorf("service: nil model")
	}
	if model.NumClasses() == 0 {
		return "", fmt.Errorf("service: model %q is not trained", algorithm)
	}
	id, _, err := s.register(algorithm, model, metrics)
	return id, err
}
