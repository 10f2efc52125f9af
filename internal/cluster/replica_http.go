package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"time"

	"repro/internal/ml"
	"repro/internal/serving"
	"repro/internal/wire"
)

// The replica's wire boundary. Replica.Handler serves the Backend
// surface over HTTP; HTTPBackend is the matching client, so a topology
// can mix in-process replicas (tests, cmd/spatial-cluster) and remote
// ones (one process per replica) behind the same Backend interface.
//
// Typed serving errors survive the boundary through the `kind` field of
// wire's error envelope: an overload shed on the replica reconstructs as
// a *serving.OverloadedError at the coordinator, an unknown reference as
// serving.ErrNotFound, a killed replica behind a still-running HTTP
// server as ErrReplicaDown, so the router and HTTP error mapping behave
// identically in both modes. /replica/predict is the shared predict
// handler: HTTPBackend sends it a float64 frame and is answered in one;
// JSON (the serving tier's own PredictRequest/PredictResponse) still works
// from curl.

// wire shapes for the remaining backend methods.
type wirePushReq struct {
	Name string `json:"name"`
	Algo string `json:"algo"`
	Blob []byte `json:"blob"` // base64 via encoding/json
}

type wirePrepareReq struct {
	Txn     string `json:"txn"`
	Name    string `json:"name"`
	Version int    `json:"version"`
	ID      string `json:"id"`
	TTLMs   int64  `json:"ttlMs"`
}

type wireTxnReq struct {
	Txn string `json:"txn"`
}

// replicaErr places a backend error in wire's status table: typed errors
// (shed, not found, down, closed, a row the model cannot take) keep their
// own rows; anything else is a refusal the coordinator treats as
// divergence — 409, not the 422 an untagged error would get, and never a
// tag over "down", which the coordinator must still see as a failover
// signal. A mismatched row is the caller's, not a diverged replica's.
func replicaErr(err error) error {
	if errors.Is(err, ErrReplicaDown) || errors.Is(err, serving.ErrClosed) || errors.Is(err, ml.ErrInput) {
		return err
	}
	return wire.Conflict(err)
}

// serveGet answers a bodiless GET with fn's result.
func serveGet[T any](fn func(context.Context) (T, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		v, err := fn(r.Context())
		if err != nil {
			wire.WriteError(w, replicaErr(err))
			return
		}
		wire.Write(w, http.StatusOK, v)
	}
}

// txnState is the answer to a prepare, commit or abort.
func txnState(txn, state string, err error) (map[string]string, error) {
	return map[string]string{"txn": txn, "state": state}, replicaErr(err)
}

// Handler exposes the replica's Backend surface over HTTP under
// /replica/*, plus /healthz.
func (rp *Replica) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /replica/heartbeat", serveGet(rp.Heartbeat))
	mux.HandleFunc("GET /replica/aliases", serveGet(rp.Aliases))
	mux.HandleFunc("POST /replica/predict", wire.PredictHandler(func(ctx context.Context, ref string, instances [][]float64) ([][]float64, []int, error) {
		probs, classes, err := rp.Predict(ctx, ref, instances)
		return probs, classes, replicaErr(err)
	}))
	mux.HandleFunc("POST /replica/push", wire.Handle(func(ctx context.Context, req *wirePushReq) (serving.Ref, error) {
		ref, err := rp.Push(ctx, req.Name, req.Algo, req.Blob)
		return ref, replicaErr(err)
	}))
	mux.HandleFunc("POST /replica/prepare", wire.Handle(func(ctx context.Context, req *wirePrepareReq) (map[string]string, error) {
		ttl := time.Duration(req.TTLMs) * time.Millisecond
		return txnState(req.Txn, "prepared", rp.Prepare(ctx, req.Txn, req.Name, req.Version, req.ID, ttl))
	}))
	mux.HandleFunc("POST /replica/commit", wire.Handle(func(ctx context.Context, req *wireTxnReq) (map[string]string, error) {
		return txnState(req.Txn, "committed", rp.Commit(ctx, req.Txn))
	}))
	mux.HandleFunc("POST /replica/abort", wire.Handle(func(ctx context.Context, req *wireTxnReq) (map[string]string, error) {
		return txnState(req.Txn, "aborted", rp.Abort(ctx, req.Txn))
	}))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		wire.Write(w, http.StatusOK, map[string]string{"status": "ok", "replica": rp.id})
	})
	return mux
}

// HTTPBackend implements Backend against a remote replica's Handler.
// Transport failures — refused connections, resets, a dead process —
// map to ErrReplicaDown so the router's failover treats a vanished
// replica exactly like a killed in-process one.
type HTTPBackend struct {
	id     string
	base   string
	client *http.Client
}

// NewHTTPBackend builds a backend for the replica with the given stable
// ID served at baseURL. client may be nil; wire.DefaultClient (30 s
// timeout, never the timeout-less http.DefaultClient) is used then.
func NewHTTPBackend(id, baseURL string, client *http.Client) *HTTPBackend {
	return &HTTPBackend{id: id, base: baseURL, client: client}
}

// ID implements Backend.
func (b *HTTPBackend) ID() string { return b.id }

// do runs one wire round trip, which hands error envelopes back as the
// typed errors they were written from.
func (b *HTTPBackend) do(ctx context.Context, method, path string, in, out any) error {
	return b.hopErr(path, wire.Do(ctx, b.client, method, b.base+path, nil, in, out))
}

// hopErr names the replica and path in a round trip's error.
func (b *HTTPBackend) hopErr(path string, err error) error {
	var transport *url.Error
	switch {
	case err == nil:
		return nil
	case errors.As(err, &transport):
		// Transport-level failure: the process is gone or unreachable.
		return fmt.Errorf("replica %s: %s: %v: %w", b.id, path, err, ErrReplicaDown)
	default:
		return fmt.Errorf("replica %s: %s: %w", b.id, path, err)
	}
}

// Predict implements Backend. The matrix crosses as a float64 frame and
// comes back as one (wire.Predict), so the floats are the replica's own
// bits, as the in-process Backend hands them over.
func (b *HTTPBackend) Predict(ctx context.Context, ref string, instances [][]float64) ([][]float64, []int, error) {
	const path = "/replica/predict"
	probs, classes, err := wire.Predict(ctx, b.client, b.base+path, ref, instances)
	if err != nil {
		// Give the reconstructed overload error its real model ref.
		var over *serving.OverloadedError
		if errors.As(err, &over) {
			over.Ref = ref
		}
		return nil, nil, b.hopErr(path, err)
	}
	return probs, classes, nil
}

// Heartbeat implements Backend.
func (b *HTTPBackend) Heartbeat(ctx context.Context) (HeartbeatInfo, error) {
	var info HeartbeatInfo
	err := b.do(ctx, http.MethodGet, "/replica/heartbeat", nil, &info)
	return info, err
}

// Push implements Backend.
func (b *HTTPBackend) Push(ctx context.Context, name, algo string, blob []byte) (serving.Ref, error) {
	var ref serving.Ref
	err := b.do(ctx, http.MethodPost, "/replica/push", wirePushReq{Name: name, Algo: algo, Blob: blob}, &ref)
	return ref, err
}

// Aliases implements Backend.
func (b *HTTPBackend) Aliases(ctx context.Context) ([]serving.AliasInfo, error) {
	var out []serving.AliasInfo
	err := b.do(ctx, http.MethodGet, "/replica/aliases", nil, &out)
	return out, err
}

// Prepare implements Backend.
func (b *HTTPBackend) Prepare(ctx context.Context, txn, name string, version int, id string, ttl time.Duration) error {
	return b.do(ctx, http.MethodPost, "/replica/prepare", wirePrepareReq{
		Txn: txn, Name: name, Version: version, ID: id, TTLMs: ttl.Milliseconds(),
	}, nil)
}

// Commit implements Backend.
func (b *HTTPBackend) Commit(ctx context.Context, txn string) error {
	return b.do(ctx, http.MethodPost, "/replica/commit", wireTxnReq{Txn: txn}, nil)
}

// Abort implements Backend.
func (b *HTTPBackend) Abort(ctx context.Context, txn string) error {
	return b.do(ctx, http.MethodPost, "/replica/abort", wireTxnReq{Txn: txn}, nil)
}
