package service

import (
	"container/list"
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/ml"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// modelCacheBytes bounds, in envelope bytes, the inline models a service
// keeps decoded. An AI sensor sends the same envelope with every probe
// (SHAP then LIME, per collection), so a few dozen models of the probe's
// size cover a deployment's working set; past the budget the least
// recently used go first. Each envelope is its entry's key, so the cache
// holds the budget in envelopes plus the models decoded from them.
const modelCacheBytes = 16 << 20

// modelCache keeps the classifiers decoded from inline envelopes, keyed
// by the envelope bytes themselves: a hit is an envelope equal byte for
// byte, so two envelopes never get each other's model. Only successful
// decodes are kept. A hit hands out the shared classifier: every ml model
// is safe for concurrent prediction and no endpoint trains or
// re-parameterizes the model it is sent, the rule the serving registry's
// warm models already live by.
type modelCache struct {
	mu    sync.Mutex
	byKey map[string]*list.Element
	lru   *list.List // of *cachedModel, most recently used first
	bytes int

	hit, miss *telemetry.Counter
}

type cachedModel struct {
	envelope string // the entry's key in byKey
	model    ml.Classifier
}

func newModelCache(reg *telemetry.Registry) *modelCache {
	decodes := reg.Counter("spatial_service_model_decode_total",
		"Inline model envelopes by whether the decoded model was already cached.", "result")
	return &modelCache{
		byKey: make(map[string]*list.Element),
		lru:   list.New(),
		hit:   decodes.With("hit"),
		miss:  decodes.With("miss"),
	}
}

// decodeModel reconstructs a classifier from an inline envelope, through
// the service's cache; a missing or undecodable envelope is the request's
// fault (400), answered afresh each time.
func (b *base) decodeModel(raw json.RawMessage) (ml.Classifier, error) {
	if len(raw) == 0 {
		return nil, wire.BadRequest(fmt.Errorf("missing model envelope"))
	}
	c := b.models
	if model := c.lookup(raw); model != nil {
		c.hit.Inc()
		return model, nil
	}
	c.miss.Inc()
	// Decoded outside the lock: requests racing on one new envelope each
	// decode it, and the first to finish is the one kept.
	model, err := ml.UnmarshalModel(raw)
	if err != nil {
		return nil, wire.BadRequest(err)
	}
	return c.insert(raw, model), nil
}

// lookup returns the model decoded from envelope, or nil. The map index
// by string(envelope) neither copies nor allocates.
func (c *modelCache) lookup(envelope []byte) ml.Classifier {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[string(envelope)]
	if !ok {
		return nil
	}
	c.lru.MoveToFront(el)
	return el.Value.(*cachedModel).model
}

// insert stores model under a copy of envelope unless a racing request
// already did, evicts from the cold end until the budget holds (an
// envelope larger than the whole budget evicts itself), and returns the
// model to use.
func (c *modelCache) insert(envelope []byte, model ml.Classifier) ml.Classifier {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[string(envelope)]; ok {
		return el.Value.(*cachedModel).model
	}
	key := string(envelope)
	c.byKey[key] = c.lru.PushFront(&cachedModel{envelope: key, model: model})
	c.bytes += len(key)
	for c.bytes > modelCacheBytes {
		cold := c.lru.Remove(c.lru.Back()).(*cachedModel)
		delete(c.byKey, cold.envelope)
		c.bytes -= len(cold.envelope)
	}
	return model
}
