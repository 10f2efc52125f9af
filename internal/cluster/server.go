package cluster

import (
	"context"
	"net/http"

	"repro/internal/serving"
	"repro/internal/wire"
)

// Handler exposes the cluster over HTTP with the MLService's JSON
// contracts (the same serving request structs, the same wire handlers),
// so the existing gateway and service.Client talk to a cluster exactly as
// they talk to a single replica:
//
//	POST /predict          {modelId, instances} -> {classes, probs}
//	POST /cluster/promote  {name, version}      -> {name, version, id}
//	POST /cluster/rollback {name}               -> {name, version, id}
//	GET  /cluster/status                        -> StatusInfo
//	GET  /healthz
//
// Routing and serving errors map through wire's one table: sheds 429 with
// Retry-After, unknown references 404, an empty tier 503, scoring
// failures 422, a refused or aborted flip 409.
func (c *Cluster) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /predict", wire.PredictHandler(func(ctx context.Context, ref string, instances [][]float64) ([][]float64, []int, error) {
		probs, classes, err := c.Predict(ctx, ref, instances)
		return probs, classes, wire.ModelNotFound(ref, err)
	}))
	mux.HandleFunc("POST /cluster/promote", wire.Handle(c.promote))
	mux.HandleFunc("POST /cluster/rollback", wire.Handle(c.rollback))
	mux.HandleFunc("GET /cluster/status", func(w http.ResponseWriter, r *http.Request) {
		wire.Write(w, http.StatusOK, c.Status())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		wire.Write(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

func (c *Cluster) promote(_ context.Context, req *serving.PromoteRequest) (resp serving.AliasResponse, err error) {
	if err := c.PromoteAll(req.Name, req.Version); err != nil {
		return resp, wire.Conflict(err)
	}
	id, err := c.canonical.Resolve(req.Name)
	if err != nil {
		return resp, wire.Tag(wire.ErrInternal, err)
	}
	return serving.AliasResponse{Name: req.Name, Version: req.Version, ID: id}, nil
}

func (c *Cluster) rollback(_ context.Context, req *serving.RollbackRequest) (serving.AliasResponse, error) {
	ref, err := c.RollbackAll(req.Name)
	return serving.AliasResponse{Name: ref.Name, Version: ref.Version, ID: ref.ID}, wire.Conflict(err)
}
