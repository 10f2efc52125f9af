package serving

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/ml"
)

// ErrNotFound is wrapped by registry lookups that miss: unknown content
// id, unknown alias, out-of-range version, or an alias with no promoted
// version. Servers map it to 404.
var ErrNotFound = errors.New("serving: model not found")

// idPrefix tags content-addressed model ids.
const idPrefix = "sha256:"

// Ref identifies one registered model version: the content-addressed id
// plus the name@version alias it was registered under.
type Ref struct {
	ID      string `json:"id"`
	Name    string `json:"name"`
	Version int    `json:"version"`
}

// String renders the name@version form.
func (r Ref) String() string { return fmt.Sprintf("%s@%d", r.Name, r.Version) }

// entry is one content-addressed model: serialized bytes are the source
// of truth, the deserialized classifier is a warm-cache citizen.
type entry struct {
	id   string
	algo string
	blob []byte

	model ml.Classifier // nil when cold
	elem  *list.Element // LRU position when warm
}

// alias is the version history of one model name.
type alias struct {
	// versions[v-1] is the content id of version v.
	versions []string
	// current is the promoted version (0 = none).
	current int
	// history stacks previously promoted versions for rollback.
	history []int
}

// Registry is the versioned model store: content-addressed entries
// (SHA-256 of the serialized envelope), name@version aliases with atomic
// promote/rollback, and an LRU warm cache with a byte budget so cold
// models deserialize on demand and evictions are observable. All methods
// are safe for concurrent use.
type Registry struct {
	budget int64
	met    *metrics

	mu        sync.Mutex
	entries   map[string]*entry
	aliases   map[string]*alias
	lru       *list.List // front = most recently used warm entry
	warmBytes int64
}

// defaultWarmBytes is a registry's warm-cache budget in serialized bytes
// unless NewRegistry is given another: cold models deserialize on demand,
// least recently used models are evicted back to bytes.
const defaultWarmBytes = 128 << 20

// NewRegistry builds a standalone registry with the given warm-cache
// byte budget (<=0 selects defaultWarmBytes). Registries owned by a
// Runtime share its telemetry; standalone ones record into a private
// registry reachable via nothing — construct through New when metrics
// matter.
func NewRegistry(warmBytes int64) *Registry {
	if warmBytes <= 0 {
		warmBytes = defaultWarmBytes
	}
	return newRegistry(warmBytes, nil)
}

func newRegistry(budget int64, met *metrics) *Registry {
	return &Registry{
		budget:  budget,
		met:     met,
		entries: make(map[string]*entry),
		aliases: make(map[string]*alias),
		lru:     list.New(),
	}
}

// contentID hashes a serialized model envelope.
func contentID(blob []byte) string {
	sum := sha256.Sum256(blob)
	return idPrefix + hex.EncodeToString(sum[:])
}

// Register serializes model, stores it under its content id, and appends
// a new version of name. The first version of a name is promoted
// automatically; later versions await an explicit Promote. Registering
// byte-identical models deduplicates storage: the new version points at
// the existing entry and the warm model is reused.
func (r *Registry) Register(name string, model ml.Classifier) (Ref, error) {
	if name == "" || strings.ContainsAny(name, "@/\\") {
		return Ref{}, fmt.Errorf("serving: invalid model name %q", name)
	}
	blob, err := ml.MarshalModel(model)
	if err != nil {
		return Ref{}, fmt.Errorf("serving: marshal model: %w", err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.internLocked(blob, model.Name())
	if e.model == nil {
		// Keep the freshly registered model warm — the caller is about
		// to serve it.
		e.model = model
		r.warmLocked(e)
	}
	return r.appendVersionLocked(name, e.id), nil
}

// RegisterBytes stores an already-serialized envelope (e.g. one pushed
// by the cluster coordinator) as a new version of name. The model stays
// cold until first use.
func (r *Registry) RegisterBytes(name, algo string, blob []byte) (Ref, error) {
	if name == "" || strings.ContainsAny(name, "@/\\") {
		return Ref{}, fmt.Errorf("serving: invalid model name %q", name)
	}
	if len(blob) == 0 {
		return Ref{}, errors.New("serving: empty model envelope")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.internLocked(append([]byte(nil), blob...), algo)
	return r.appendVersionLocked(name, e.id), nil
}

// internLocked returns (creating if new) the entry for blob.
func (r *Registry) internLocked(blob []byte, algo string) *entry {
	id := contentID(blob)
	if e, ok := r.entries[id]; ok {
		return e
	}
	e := &entry{id: id, algo: algo, blob: blob}
	r.entries[id] = e
	r.met.setModels(len(r.entries))
	return e
}

func (r *Registry) appendVersionLocked(name, id string) Ref {
	a := r.aliases[name]
	if a == nil {
		a = &alias{}
		r.aliases[name] = a
	}
	a.versions = append(a.versions, id)
	v := len(a.versions)
	if a.current == 0 {
		a.current = v
	}
	return Ref{ID: id, Name: name, Version: v}
}

// Promote atomically points name's promoted version at version,
// stacking the previous promotion for Rollback.
func (r *Registry) Promote(name string, version int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	a := r.aliases[name]
	if a == nil {
		return fmt.Errorf("serving: alias %q: %w", name, ErrNotFound)
	}
	if version < 1 || version > len(a.versions) {
		return fmt.Errorf("serving: %s@%d: %w (have %d versions)", name, version, ErrNotFound, len(a.versions))
	}
	if version == a.current {
		return nil
	}
	a.history = append(a.history, a.current)
	a.current = version
	return nil
}

// Rollback atomically restores name's previously promoted version and
// returns its ref.
func (r *Registry) Rollback(name string) (Ref, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	a := r.aliases[name]
	if a == nil {
		return Ref{}, fmt.Errorf("serving: alias %q: %w", name, ErrNotFound)
	}
	if len(a.history) == 0 {
		return Ref{}, fmt.Errorf("serving: alias %q has no promotion to roll back", name)
	}
	a.current = a.history[len(a.history)-1]
	a.history = a.history[:len(a.history)-1]
	return Ref{ID: a.versions[a.current-1], Name: name, Version: a.current}, nil
}

// PeekRollback returns the ref Rollback would restore for name, without
// mutating any state. Cluster coordinators use it to learn the rollback
// target, run a two-phase flip to that version across replicas, and only
// then pop the canonical history.
func (r *Registry) PeekRollback(name string) (Ref, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	a := r.aliases[name]
	if a == nil {
		return Ref{}, fmt.Errorf("serving: alias %q: %w", name, ErrNotFound)
	}
	if len(a.history) == 0 {
		return Ref{}, fmt.Errorf("serving: alias %q has no promotion to roll back", name)
	}
	v := a.history[len(a.history)-1]
	return Ref{ID: a.versions[v-1], Name: name, Version: v}, nil
}

// Resolve maps a model reference onto its content id. Accepted forms:
// a raw content id ("sha256:..."), "name@N", "name@latest", or a bare
// promoted name.
func (r *Registry) Resolve(ref string) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.resolveLocked(ref)
}

func (r *Registry) resolveLocked(ref string) (string, error) {
	if strings.HasPrefix(ref, idPrefix) {
		if _, ok := r.entries[ref]; !ok {
			return "", fmt.Errorf("serving: id %s: %w", ref, ErrNotFound)
		}
		return ref, nil
	}
	name, verStr, hasVer := strings.Cut(ref, "@")
	a := r.aliases[name]
	if a == nil {
		return "", fmt.Errorf("serving: model %q: %w", ref, ErrNotFound)
	}
	v := a.current
	if hasVer {
		if verStr == "latest" {
			v = len(a.versions)
		} else {
			n, err := strconv.Atoi(verStr)
			if err != nil {
				return "", fmt.Errorf("serving: bad version in %q: %w", ref, err)
			}
			v = n
		}
	}
	if v < 1 || v > len(a.versions) {
		return "", fmt.Errorf("serving: %s@%d: %w (have %d versions)", name, v, ErrNotFound, len(a.versions))
	}
	return a.versions[v-1], nil
}

// Model resolves ref and returns its classifier, deserializing on demand
// (a cold load) and keeping the result warm under the LRU byte budget.
func (r *Registry) Model(ref string) (ml.Classifier, error) {
	r.mu.Lock()
	id, err := r.resolveLocked(ref)
	if err != nil {
		r.mu.Unlock()
		return nil, err
	}
	e := r.entries[id]
	if e.model != nil {
		r.lru.MoveToFront(e.elem)
		m := e.model
		r.mu.Unlock()
		return m, nil
	}
	blob := e.blob
	r.mu.Unlock()

	// Deserialize outside the lock: cold loads of big models must not
	// stall warm hits on other entries. Concurrent cold loads of the
	// same entry may duplicate work; first one in wins the cache slot.
	model, err := ml.UnmarshalModel(blob)
	if err != nil {
		return nil, fmt.Errorf("serving: decode %s: %w", id, err)
	}
	r.met.incColdLoads()

	r.mu.Lock()
	defer r.mu.Unlock()
	if e.model == nil {
		e.model = model
		r.warmLocked(e)
	}
	return e.model, nil
}

// warmLocked inserts e at the LRU front and evicts past the budget.
func (r *Registry) warmLocked(e *entry) {
	e.elem = r.lru.PushFront(e)
	r.warmBytes += int64(len(e.blob))
	for r.warmBytes > r.budget && r.lru.Len() > 1 {
		back := r.lru.Back()
		victim := back.Value.(*entry)
		if victim == e {
			break // never evict the entry being warmed
		}
		r.lru.Remove(back)
		victim.model = nil
		victim.elem = nil
		r.warmBytes -= int64(len(victim.blob))
		r.met.incEvictions()
	}
	r.met.setWarmBytes(r.warmBytes)
}

// Blob resolves ref and returns the serialized envelope plus the
// algorithm tag it was registered with.
func (r *Registry) Blob(ref string) ([]byte, string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	id, err := r.resolveLocked(ref)
	if err != nil {
		return nil, "", err
	}
	e := r.entries[id]
	return e.blob, e.algo, nil
}

// AliasInfo is the exported state of one model name.
type AliasInfo struct {
	Name     string   `json:"name"`
	Versions []string `json:"versions"` // content ids, version = index+1
	Current  int      `json:"current"`
}

// Aliases lists every alias sorted by name.
func (r *Registry) Aliases() []AliasInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]AliasInfo, 0, len(r.aliases))
	for name, a := range r.aliases {
		out = append(out, AliasInfo{
			Name:     name,
			Versions: append([]string(nil), a.versions...),
			Current:  a.current,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Len reports the number of distinct content-addressed models.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// WarmBytes reports the serialized size of currently warm models.
func (r *Registry) WarmBytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.warmBytes
}
