package serving

// The JSON contract of the serving surface, shared by every tier that
// exposes it over HTTP: the ML service, the cluster front and the
// replica hop.

// PredictRequest asks for predictions on raw instances. ModelID accepts
// every registry reference form: a stored model id ("m0001"), an alias
// ("lgbm", "lgbm@2", "lgbm@latest"), or a raw content id ("sha256:...").
type PredictRequest struct {
	ModelID   string      `json:"modelId"`
	Instances [][]float64 `json:"instances"`
}

// PredictResponse carries argmax classes and full probability rows.
type PredictResponse struct {
	Classes []int       `json:"classes"`
	Probs   [][]float64 `json:"probs"`
}

// PromoteRequest atomically points an alias at one of its versions.
type PromoteRequest struct {
	Name    string `json:"name"`
	Version int    `json:"version"`
}

// RollbackRequest restores an alias's previously promoted version.
type RollbackRequest struct {
	Name string `json:"name"`
}

// AliasResponse reports an alias's state after a promote or rollback.
type AliasResponse struct {
	Name    string `json:"name"`
	Version int    `json:"version"`
	ID      string `json:"id"`
}
