package cluster

import (
	"sort"
)

// Shard routing uses a consistent-hash ring with virtual nodes. The key
// property the serving tier buys from it: all traffic for one model name
// lands on one replica (its shard owner), so that replica's registry warm
// cache stays hot for its shard instead of every replica churning every
// model through its LRU. The bounded-load refinement (Mirrokni et al.'s
// "consistent hashing with bounded loads") keeps a hot shard from
// melting its owner: when the owner is past c times the mean load, the
// request walks the ring to the next replica under the bound.

// defaultVirtualNodes is the per-replica vnode count. 64 points per
// replica keeps the expected ownership imbalance under ~12% for small
// clusters while ring rebuilds stay microseconds.
const defaultVirtualNodes = 64

// vnode is one hash point on the ring.
type vnode struct {
	hash    uint64
	replica int32 // index into Ring.ids
}

// Ring is an immutable consistent-hash ring over replica IDs. Membership
// changes build a new Ring (see NewRing); lookups are lock-free and
// allocation-free, which is what lets the router sit on the predict hot
// path.
type Ring struct {
	ids    []string
	vnodes []vnode // sorted by hash
}

// fnvOffset and fnvPrime are the FNV-1a 64-bit parameters.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// hashKey is FNV-1a over the key bytes. Inlined by hand (no hash.Hash64
// allocation) so Owner stays allocation-free on the predict path.
func hashKey(key string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime
	}
	return h
}

// hashVnode perturbs a replica id hash per virtual-node index without
// string concatenation.
func hashVnode(idHash uint64, i int) uint64 {
	h := idHash ^ uint64(i)*0x9e3779b97f4a7c15 // golden-ratio spread
	// splitmix64 finalizer: decorrelates sequential vnode indices.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// NewRing builds a ring over the given replica IDs with vper virtual
// nodes per replica (defaultVirtualNodes when <= 0). IDs are deduplicated
// and sorted so the ring is a pure function of the membership set.
func NewRing(ids []string, vper int) *Ring {
	if vper <= 0 {
		vper = defaultVirtualNodes
	}
	uniq := make([]string, 0, len(ids))
	seen := make(map[string]bool, len(ids))
	for _, id := range ids {
		if id == "" || seen[id] {
			continue
		}
		seen[id] = true
		uniq = append(uniq, id)
	}
	sort.Strings(uniq)
	r := &Ring{ids: uniq, vnodes: make([]vnode, 0, len(uniq)*vper)}
	for ri, id := range uniq {
		idHash := hashKey(id)
		for v := 0; v < vper; v++ {
			r.vnodes = append(r.vnodes, vnode{hash: hashVnode(idHash, v), replica: int32(ri)})
		}
	}
	sort.Slice(r.vnodes, func(i, j int) bool {
		a, b := r.vnodes[i], r.vnodes[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		return a.replica < b.replica
	})
	return r
}

// Len reports the member count.
func (r *Ring) Len() int { return len(r.ids) }

// IDs returns the member IDs in ring (sorted) order. Callers must not
// mutate the returned slice.
func (r *Ring) IDs() []string { return r.ids }

// succ locates the first vnode at or clockwise after h. Manual binary
// search: no closure, no allocation, branch-predictable.
func (r *Ring) succ(h uint64) int {
	lo, hi := 0, len(r.vnodes)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.vnodes[mid].hash < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(r.vnodes) {
		lo = 0 // wrap
	}
	return lo
}

// Owner returns the index (into IDs) of the replica owning key, or -1 on
// an empty ring. This is the shard-routing hot path: zero allocations.
func (r *Ring) Owner(key string) int {
	if len(r.vnodes) == 0 {
		return -1
	}
	return int(r.vnodes[r.succ(hashKey(key))].replica)
}

// OwnerID returns the owning replica's ID, or "" on an empty ring.
func (r *Ring) OwnerID(key string) string {
	i := r.Owner(key)
	if i < 0 {
		return ""
	}
	return r.ids[i]
}

// Walk visits the distinct replicas in ring order starting at key's
// owner, until visit returns false or every member was seen. The
// bounded-load pick and the failover path both ride on it: the owner is
// visited first, then each successor exactly once.
func (r *Ring) Walk(key string, visit func(replica int) bool) {
	n := len(r.vnodes)
	if n == 0 {
		return
	}
	start := r.succ(hashKey(key))
	visited := 0
	// Stack-allocated seen set: replica counts are operator-configured
	// and small, so 256 covers every realistic topology without a heap
	// allocation on the pick path.
	var seenArr [256]bool
	seen := seenArr[:]
	if len(r.ids) > len(seen) {
		seen = make([]bool, len(r.ids))
	}
	for i := 0; i < n && visited < len(r.ids); i++ {
		v := r.vnodes[(start+i)%n]
		if seen[v.replica] {
			continue
		}
		seen[v.replica] = true
		visited++
		if !visit(int(v.replica)) {
			return
		}
	}
}

// Moves counts the vnode hash points whose owner differs between two
// rings — the deterministic rebalance cost of a membership change, fed
// into spatial_cluster_ring_moves_total. Points are compared over the
// union of both rings' vnode sets by replica ID (indices differ between
// rings).
func Moves(old, new_ *Ring) int {
	if old == nil || new_ == nil {
		if old == new_ {
			return 0
		}
		r := old
		if r == nil {
			r = new_
		}
		return len(r.vnodes)
	}
	moves := 0
	count := func(points *Ring) {
		for _, v := range points.vnodes {
			oldOwner, newOwner := "", ""
			if len(old.vnodes) > 0 {
				oldOwner = old.ids[old.vnodes[old.succ(v.hash)].replica]
			}
			if len(new_.vnodes) > 0 {
				newOwner = new_.ids[new_.vnodes[new_.succ(v.hash)].replica]
			}
			if oldOwner != newOwner {
				moves++
			}
		}
	}
	count(old)
	count(new_)
	return moves
}
