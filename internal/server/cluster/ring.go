// Package cluster turns a pool of single-node netemud processes into one
// service: a coordinator routes each RunSpec request to a worker chosen
// by consistent hashing over the spec's canonical cache key, so every
// worker's in-memory memo and result store stay hot for the slice of the
// key space it owns. A health prober tracks which workers answer
// /healthz; the dispatcher retries a failed forward on the key's next
// ring successor with bounded exponential backoff, and reports "no
// worker reachable" so the caller can degrade to local execution.
//
// The wire format is the one the single-node server already speaks —
// JSON runspec.Spec in, json.MarshalIndent(Result) out — which is what
// makes a cluster response byte-identical to a single-node one: the
// coordinator copies the worker's body verbatim, and the determinism
// contract makes every worker (and the local fallback) produce the same
// bytes for the same canonical spec.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// virtualNodes is how many ring positions each worker occupies. More
// virtual nodes smooth the key-space split across workers at the cost of
// a longer sorted ring; 64 keeps the per-worker share within a few
// percent of fair for small pools.
const virtualNodes = 64

// Ring is an immutable consistent-hash ring over a fixed worker pool.
// Liveness is deliberately not its concern: the ring always answers with
// the full successor order for a key, and the dispatcher skips dead
// workers so that a worker's slice of the key space comes back to it —
// caches intact — the moment it revives.
type Ring struct {
	hashes  []uint64 // sorted virtual-node positions
	owner   []int    // hashes[i] belongs to workers[owner[i]]
	workers []string
}

// NewRing places each worker at virtualNodes pseudo-random positions
// (FNV-1a of "worker#i") on the 64-bit ring. Duplicate workers are
// collapsed; order of the input does not matter.
func NewRing(workers []string) *Ring {
	seen := make(map[string]bool, len(workers))
	var distinct []string
	for _, w := range workers {
		if w != "" && !seen[w] {
			seen[w] = true
			distinct = append(distinct, w)
		}
	}
	sort.Strings(distinct) // ring identity independent of listing order
	r := &Ring{workers: distinct}
	for wi, w := range distinct {
		for i := 0; i < virtualNodes; i++ {
			r.hashes = append(r.hashes, hashKey(fmt.Sprintf("%s#%d", w, i)))
			r.owner = append(r.owner, wi)
		}
	}
	sort.Sort(byHash{r})
	return r
}

// Workers returns the distinct worker pool in ring-identity order.
func (r *Ring) Workers() []string { return r.workers }

// Successors returns every worker exactly once, ordered by ring
// distance from key: the first element owns the key, the rest are the
// failover order. Deterministic for a given (pool, key) regardless of
// construction order, so every coordinator instance routes identically.
// Empty pool returns nil.
func (r *Ring) Successors(key string) []string {
	if len(r.workers) == 0 {
		return nil
	}
	h := hashKey(key)
	start := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	out := make([]string, 0, len(r.workers))
	taken := make([]bool, len(r.workers))
	for i := 0; i < len(r.hashes) && len(out) < len(r.workers); i++ {
		wi := r.owner[(start+i)%len(r.hashes)]
		if !taken[wi] {
			taken[wi] = true
			out = append(out, r.workers[wi])
		}
	}
	return out
}

func hashKey(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// byHash sorts the parallel hash/owner slices together.
type byHash struct{ r *Ring }

func (b byHash) Len() int           { return len(b.r.hashes) }
func (b byHash) Less(i, j int) bool { return b.r.hashes[i] < b.r.hashes[j] }
func (b byHash) Swap(i, j int) {
	b.r.hashes[i], b.r.hashes[j] = b.r.hashes[j], b.r.hashes[i]
	b.r.owner[i], b.r.owner[j] = b.r.owner[j], b.r.owner[i]
}
